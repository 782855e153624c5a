"""Leonard systems as exact data.

A system is built from a parameter array (theta; theta*; varphi; phi) with
the ambient basis declared to be a split basis, so the defining matrices are
bidiagonal verbatim: A has diagonal theta_0..theta_d and subdiagonal 1,
A* has diagonal theta*_0..theta*_d and superdiagonal varphi_1..varphi_d.
Certification is explicit: ``build_system`` never rejects, ``verify_axioms``
reports, ``certify`` raises NotALeonardPair on any failure.  Every reader takes
the idempotents through their factors E_i = w_i u_i^T (``LeonardSystem.eigenbasis``):
tr(M E_i) = u_i^T M w_i and tr(E_i E*_j) = (u_i . w*_j)(u*_j . w_i) for any family
that factors, so no check forms a dense E_i, and a family that does not factor
fails each check that reads it with that DegenerateSplit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import prod
from operator import mul

from .errors import DegenerateSplit, NotALeonardPair, SingularMatrix
from .fields import Field
from .linalg import (
    Matrix,
    Vector,
    _to_ints,
    bidiagonal,
    bidiagonal_eigenbasis,
    flag_decomposition,
    is_irreducible_tridiagonal,
    lagrange_idempotent,
    outer,
    rank_one_factors,
    root_product_family,
)
from .report import VerificationReport


def edge_values(pa: ParameterArray):
    """(tau_d(theta_d), eta_d(theta_0), tau*_d(theta*_d), eta*_d(theta*_0)): the ends of `pa.gaps`."""
    (g, gs), d = pa.gaps, pa.d
    return g[d], g[0], gs[d], gs[0]


@dataclass(frozen=True)
class ParameterArray:
    """The full isomorphism invariant (theta; theta*; varphi; phi) over a field."""

    field: Field
    d: int
    theta: tuple
    theta_star: tuple
    varphi: tuple
    phi: tuple

    def __post_init__(self):
        for name in ("theta", "theta_star", "varphi", "phi"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        check_pa1(self.field, self.d, self.theta, self.theta_star, self.varphi, self.phi)

    @cached_property
    def split_products(self) -> tuple:
        """(varphi heads, varphi tails, phi heads, phi tails), built on first use:
        entry i = 0..d of a head is varphi_1 ... varphi_i, of a tail varphi_d ... varphi_{d-i+1}."""
        one = self.field.one()
        return tuple(tuple(accumulate(run, mul, initial=one))
                     for seq in (self.varphi, self.phi) for run in (seq, seq[::-1]))

    @cached_property
    def nu(self) -> tuple:
        """(nu, nu_down, nu_ddown, nu_down_ddown) by their closed forms, built on first use (`nu_scalars`)."""
        tau_d, eta_d, taus_d, etas_d = edge_values(self)
        vp, ph = self.split_products[0][self.d], self.split_products[2][self.d]
        return eta_d * etas_d / ph, eta_d * taus_d / vp, tau_d * etas_d / vp, tau_d * taus_d / ph

    @cached_property
    def gaps(self) -> tuple:
        """(g, g*), built on first use: g_r = prod_{h != r} (theta_r - theta_h) = tau_r(theta_r) eta_{d-r}(theta_r),
        read as prod_{h != r} (t_r - t_h) / den^d off the integers t / den of `_to_ints`; g*_r the same over theta*."""
        (t, ts), den = _to_ints(self.field, [self.theta, self.theta_star])
        fraction, scale = self.field.fraction, den ** self.d
        return tuple(tuple(fraction(prod(x - y for h, y in enumerate(row) if h != r), scale) for r, x in enumerate(row))
                     for row in (t, ts))

    def to_json(self) -> dict:
        enc = self.field.encode_scalar
        return {
            "field": self.field.to_json(),
            "d": self.d,
            "theta": [enc(x) for x in self.theta],
            "theta_star": [enc(x) for x in self.theta_star],
            "varphi": [enc(x) for x in self.varphi],
            "phi": [enc(x) for x in self.phi],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ParameterArray":
        """The array of a JSON object; ValueError naming the fault when obj is not an object, a key is missing or a
        sequence is not a JSON array (not its characters or keys)."""
        if not isinstance(obj, dict):
            kind = "null" if obj is None else type(obj).__name__
            raise ValueError(f"a parameter array must be a JSON object, not {kind}")
        names = ("theta", "theta_star", "varphi", "phi")
        if missing := [key for key in ("field", "d", *names) if key not in obj]:
            raise ValueError(f"missing key {missing[0]!r}")
        field, d, seqs = Field.from_json(obj["field"]), obj["d"], {}
        for name in names:
            if not isinstance(seq := obj[name], list):
                raise ValueError(f"{name} must be a JSON array")
            seqs[name] = tuple(map(field.decode_scalar, seq))
        return cls(field, d, **seqs)


def check_pa1(field: Field, d, theta, theta_star, varphi, phi) -> None:
    """The checks of ParameterArray on the tuples: shapes, PA1 (distinct
    eigenvalues), nonzero split sequences and field membership (ValueError)."""
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError(f"diameter must be an integer, not {d!r}")
    if d < 0:
        raise ValueError("diameter must be >= 0")
    if len(theta) != d + 1 or len(theta_star) != d + 1:
        raise ValueError("eigenvalue sequences must have length d+1")
    if len(varphi) != d or len(phi) != d:
        raise ValueError("split sequences must have length d")
    for name, seq in (("theta", theta), ("theta_star", theta_star)):
        if len(set(seq)) != len(seq):
            raise ValueError(f"{name} entries must be mutually distinct")
    for name, seq in (("varphi", varphi), ("phi", phi)):
        if not all(seq):
            raise ValueError(f"{name} entries must be nonzero")
    if not all(field.contains(x) for seq in (theta, theta_star, varphi, phi) for x in seq):
        raise ValueError("entry does not lie in the stated field")


class LeonardSystem:
    """Matrices A, A* with both idempotent families, in a fixed ambient basis.

    A system given its idempotents keeps them and factors each family on first use (`eigenbasis`).  One built by
    `from_eigenbases` (`build_system` on a parameter array) stores the eigenbases (W, U) and (W*, U*) instead:
    E_i = w_i u_i^T (E*_i alike) is formed only when E (Estar) is first read, and every reader reads the factors.
    Derived data (the Gram weights, the tau/eta families, flags and decompositions) is built on first use and
    memoised on the instance.
    """

    __slots__ = ("pa", "A", "Astar", "theta", "theta_star", "_memo")

    def __init__(self, A, Astar, E, Estar, theta, theta_star, pa=None):
        """E or Estar None: the family is formed from the memoised eigenbasis when first read (`idempotents`)."""
        self.A = A
        self.Astar = Astar
        self.theta = tuple(theta)
        self.theta_star = tuple(theta_star)
        self.pa = pa
        self._memo = {("idempotents", star): tuple(mats) for star, mats in ((False, E), (True, Estar))
                      if mats is not None}

    E = property(lambda self: self.idempotents(), doc="E_0..E_d (`idempotents`).")
    Estar = property(lambda self: self.idempotents(star=True), doc="E*_0..E*_d (`idempotents`).")

    def idempotents(self, star: bool = False) -> tuple:
        """E (resp. E*): the matrices given, else w_i u_i^T for the memoised eigenbasis, formed on first read."""
        def build():
            W, U = self.eigenbasis(star)
            return tuple(outer(W.column(i), U.row(i)) for i in range(W.ncols))
        return self.cached(("idempotents", star), build)

    def family_size(self, star: bool = False) -> int:
        """The number of idempotents E (resp. E*), without forming them: those given, else the columns of W (W*)."""
        given = self._memo.get(("idempotents", star))
        return len(given) if given is not None else self.eigenbasis(star)[0].ncols

    @property
    def field(self) -> Field:
        return self.A.field

    @property
    def d(self) -> int:
        return self.A.nrows - 1

    @classmethod
    def from_pair(cls, A: Matrix, Astar: Matrix, theta, theta_star, pa=None) -> "LeonardSystem":
        E = [lagrange_idempotent(A, theta, i) for i in range(len(theta))]
        Estar = [lagrange_idempotent(Astar, theta_star, i) for i in range(len(theta_star))]
        return cls(A, Astar, E, Estar, theta, theta_star, pa)

    @classmethod
    def from_eigenbases(cls, A, Astar, eigenbasis, eigenbasis_star, theta, theta_star, pa=None) -> "LeonardSystem":
        """The system stored with the eigenbases (W, U) of A and (W*, U*) of A* rather than with any idempotent:
        `eigenbasis` factors neither family, and E_i = w_i u_i^T is formed only if E is read."""
        sys = cls(A, Astar, None, None, theta, theta_star, pa)
        sys._memo.update({("eigenbasis", False): eigenbasis, ("eigenbasis", True): eigenbasis_star})
        return sys

    def conjugated(self, K: Matrix) -> "LeonardSystem":
        """The isomorphic system K X K^-1 (same parameter array)."""
        Kinv = K.inverse()
        conj = lambda X: K * X * Kinv
        return LeonardSystem(
            conj(self.A),
            conj(self.Astar),
            [conj(X) for X in self.E],
            [conj(X) for X in self.Estar],
            self.theta,
            self.theta_star,
            self.pa,
        )

    def cached(self, key, build):
        """The value memoised under key, computed by build() on first use."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @property
    def parameter_array(self) -> ParameterArray:
        """The stored array, else the one extracted from the matrices."""
        if self.pa is not None:
            return self.pa
        return self.cached("pa", lambda: extract_parameter_array(self))

    def root_family(self, kind: str, star: bool = False, start=None, covector: bool = False) -> tuple:
        """The tau or eta family (kind) p_0..p_d at M = A (resp. A*), memoised: tau_i has roots
        theta_0..theta_{i-1}, eta_i has theta_d..theta_{d-i+1}.  The matrices p_i(M) when start
        is None, else the vectors p_i(M) v for v = start, or with covector the covectors
        u^T p_i(M) for u = start, built as p_i(M^T) u (`root_product_family`)."""
        M, theta = (self.Astar, self.theta_star) if star else (self.A, self.theta)
        roots = theta[:-1] if kind == "tau" else theta[:0:-1]
        return self.cached(("root_family", kind, star, start, covector),
                           lambda: tuple(root_product_family(M.transpose() if covector else M, roots, start)))

    def pair(self, u: Vector, v: Vector):
        """The bilinear form <u, v> = u^T G v = (U u)^T diag(m) (U v) / pivot (`solve_gram`, `_gram_pivot`), without
        forming G, on the memoised U x (`coordinates`)."""
        m = _gram_weights(self)
        a, b = self.coordinates(u), self.coordinates(v)
        return sum(map(mul, m, map(mul, a, b)), self.field.zero()) / _gram_pivot(self)

    def coordinates(self, x: Vector, star: bool = False) -> Vector:
        """U x (resp. U* x), memoised per vector, so each distinct vector is mapped once: E_i x = (U x)_i w_i."""
        return self.cached(("eigencoordinates", star, x), lambda: self.eigenbasis(star)[1] * x)

    def eigenbasis(self, star: bool = False) -> tuple:
        """(W, U) with E_i == w_i u_i^T (resp. E*_i) for w_i column i of W and u_i^T row i of U (`rank_one_factors`,
        memoised, or from the build); DegenerateSplit naming the first E_i not of rank one, memoised too, so a family
        is ranked once, or the count of an empty family (`_sized`)."""
        def build():
            mats = self.idempotents(star)
            return rank_one_factors(mats) if mats else _sized(self, star)
        found = self.cached(("eigenbasis", star), build)
        if found is None:
            raise DegenerateSplit(self.cached(("eigenbasis_failure", star), lambda: next(
                f"idempotent {'E*' if star else 'E'}_{i} is not of rank one"
                for i, M in enumerate(self.idempotents(star)) if M.rank() != 1)))
        return found

    def eigencolumn(self, i: int, star: bool = False) -> Vector:
        """w_i: the first nonzero column of E_i (resp. E*_i), a theta_i-eigenvector."""
        return self.eigenbasis(star)[0].column(i)


def build_system(pa: ParameterArray) -> LeonardSystem:
    """The split form: A and A* bidiagonal with the eigenbases of `bidiagonal_eigenbasis` (`from_eigenbases`)."""
    f, (t, ts) = pa.field, ((pa.theta, None), (pa.theta_star, pa.varphi))
    return LeonardSystem.from_eigenbases(bidiagonal(f, *t), bidiagonal(f, *ts), bidiagonal_eigenbasis(f, *t),
                                         bidiagonal_eigenbasis(f, *ts), pa.theta, pa.theta_star, pa)


def _orthogonality_witness(sys: LeonardSystem, star: bool = False):
    """The first (i, j) where U W != I for (W, U) = sys.eigenbasis(star), else None, memoised."""
    W, U = sys.eigenbasis(star)
    return sys.cached(("UW_witness", star), lambda: _off_diagonal(U * W, [sys.field.one()] * W.ncols))


def change_of_basis(sys: LeonardSystem, a: bool, X: str | Matrix | None, b: bool) -> Matrix:
    """W_a^-1 X W_b, memoised under X, for the eigenbases (W_a, U_a) and W_b of E (False) or E* (True) and X one of
    None (I), "A", "Astar" or a matrix (such as T); W_a^-1 W_a is I.  W_a^-1 is U_a once U_a W_a = I, else
    Gauss-Jordan on W_a (SingularMatrix when W_a is singular)."""
    def build():
        W, U = sys.eigenbasis(a)
        inverse, W = W.inverse() if _orthogonality_witness(sys, a) else U, sys.eigenbasis(b)[0]
        if X is None:
            return Matrix.identity(sys.field, sys.d + 1) if a == b else inverse * W
        return inverse * (getattr(sys, X) if isinstance(X, str) else X) * W
    return sys.cached(("change_of_basis", a, X, b), build)


def _outcomes(n: int, check) -> list:
    """check(), a list of n (passed, witness); n failures with the error as witness when it raises DegenerateSplit
    or SingularMatrix: a family that does not factor, a singular W or an array that cannot be extracted."""
    try:
        return check()
    except (DegenerateSplit, SingularMatrix) as exc:
        return [(False, {"error": str(exc)})] * n


def _add_factored(report, names, check) -> None:
    """Add the checks names in order, one outcome of check() each (`_outcomes`)."""
    for name, (passed, witness) in zip(names, _outcomes(len(names), check), strict=True):
        report.add(name, passed, witness)


def _off_diagonal(M: Matrix, diag):
    """{"i", "j"} of the first entry (row-major) where M differs from the diagonal matrix diag, else None;
    an off-diagonal entry is 0 exactly when its integer is, so only the diagonal becomes field elements."""
    f, den = M.field, M.den
    return next(({"i": i, "j": j} for i, row in enumerate(M.nums) for j, a in enumerate(row)
                 if (f.fraction(a, den) != diag[i] if i == j else a)), None)


def _sized(sys: LeonardSystem, star: bool) -> None:
    """d+1 idempotents E (resp. E*), the premise of each check that reads them as a basis; else DegenerateSplit."""
    if (n := sys.family_size(star)) != sys.d + 1:
        raise DegenerateSplit(f"{n} idempotents {'E*' if star else 'E'}, not d + 1 = {sys.d + 1}")


def _idempotent_checks(report, sys: LeonardSystem, star: bool):
    """With E_i = w_i u_i^T, E_i E_j = (u_i^T w_j) w_i u_j^T: the family is orthogonal exactly when U W = I, and the
    first (i, j) with (U W)_ij != delta_ij is the first failing product.  Then, with d+1 of each, W U = I, so sum E_i
    is I and sum theta_i E_i = W diag(theta) U is M exactly when M W == W diag(theta) (a column scaling); else dense."""
    label, M, theta = ("Estar", sys.Astar, sys.theta_star) if star else ("E", sys.A, sys.theta)
    field, n = M.field, M.nrows
    _add_factored(report, [f"idempotents_{label}_orthogonal"],
                  lambda: [((witness := _orthogonality_witness(sys, star)) is None, witness)])
    decided = report[f"idempotents_{label}_orthogonal"].passed and sys.family_size(star) == len(theta) == n
    W, zero = (sys.eigenbasis(star)[0] if decided else None), Matrix.zeros(field, n)
    report.add(f"idempotents_{label}_sum", decided or sum(sys.idempotents(star), zero) == Matrix.identity(field, n))
    report.add(f"idempotents_{label}_spectral", M * W == W.scale_columns(theta)
               if decided else sum((Ei.scale(th) for th, Ei in zip(theta, sys.idempotents(star))), zero) == M)

    try:
        factored = bool(sys.eigenbasis(star))
    except DegenerateSplit:
        factored = False
    report.add(f"idempotents_{label}_rank_one", factored,
               None if factored else {"ranks": [Ei.rank() for Ei in sys.idempotents(star)]})


def verify_axioms(sys: LeonardSystem) -> VerificationReport:
    """Check the defining axioms; failures are report entries, never exceptions.  Memoised: `certify`, the
    identity suite and the certificates of `duality` read this one report, and none of them extends it."""
    def build():
        report = VerificationReport()
        for name, star, X in (("tridiagonal_Astar_in_A_eigenbasis", False, "Astar"),
                              ("tridiagonal_A_in_Astar_eigenbasis", True, "A")):  # each reads one family as a basis
            _add_factored(report, [name], lambda: _sized(sys, star) or [
                (is_irreducible_tridiagonal(change_of_basis(sys, star, X, star)), None)])
        report.add("standard_orderings", report["tridiagonal_Astar_in_A_eigenbasis"].passed
                   and report["tridiagonal_A_in_Astar_eigenbasis"].passed)
        _idempotent_checks(report, sys, star=False)
        _idempotent_checks(report, sys, star=True)
        return report
    return sys.cached("axioms", build)


def premises(sys: LeonardSystem, star: bool = False) -> None:
    """Only raises, DegenerateSplit naming the first premise that fails, read off the memoised `verify_axioms` report:
    E (resp. E*) of d+1 idempotents, orthogonal and spectral, and theta (theta*) of d+1 distinct values.  Once they
    hold, U W = I and M = W diag(theta) U for M = A (A*): the premises of the F[M] checks and of `solve_gram`."""
    _sized(sys, star)
    report, label = verify_axioms(sys), "Estar" if star else "E"
    if failed := [c for c in ("orthogonal", "spectral") if not report[f"idempotents_{label}_{c}"].passed]:
        raise DegenerateSplit(f"idempotents_{label}_{failed[0]} fails")
    if not len(set(theta := sys.theta_star if star else sys.theta)) == len(theta) == sys.d + 1:
        raise DegenerateSplit(f"theta{'*' * star} is not d + 1 = {sys.d + 1} distinct values")


def certified(sys: LeonardSystem) -> bool:
    """Every axiom of the memoised `verify_axioms` report holds and theta and theta* have d+1 values, memoised: the
    premise of the closed forms that stand in for the eliminations (the split lines of `standard_identity_suite`,
    the decompositions and bases of `duality`).  Then theta and theta* are distinct, as A (A*) is diagonalizable and
    similar to the irreducible tridiagonal B* = U* A W* (B = U A* W); U W = I gives U A W = diag(theta), which is
    idempotents_E_spectral; and each row of U W* (U* W) is a left eigenvector of B* (B), so it has no zero at
    either end (Terwilliger, LAA 330 (2001), Thm 1.9)."""
    return sys.cached("certified", lambda: verify_axioms(sys).all_pass
                      and len(sys.theta) == len(sys.theta_star) == sys.d + 1)


def certificate_failure(sys: LeonardSystem) -> str | None:
    """None once `certified` holds, else the failed premise as a message: the first failed axiom of the memoised
    `verify_axioms` report, else theta and theta* not of d+1 values.  The one premise of every check of `duality`
    read off the certificate, each of which fails with {"error": message} as witness."""
    if certified(sys):
        return None
    failed = next((c.name for c in verify_axioms(sys).checks if not c.passed), None)
    return f"{failed} fails" if failed else f"theta and theta* are not d + 1 = {sys.d + 1} values"


def certify(pa: ParameterArray) -> LeonardSystem:
    """Build and certify; raises NotALeonardPair when the array is not realizable.

    Certification is the axiom report plus the extraction round trip (the round trip is what ties the stored
    second split sequence to the system).  On the split form neither eliminates nor factors: the eigenbases come
    from the build, and the round trip reads varphi and phi off the axioms (`_superdiagonal_in_split_basis`).
    """
    sys = build_system(pa)
    report = verify_axioms(sys)
    if not report.all_pass:
        raise NotALeonardPair("axiom verification failed", report)
    extracted = extract_parameter_array(sys)
    if extracted != pa:
        raise NotALeonardPair("parameter array does not round-trip", report)
    return sys


def pa5_failure(theta, theta_star) -> int | None:
    """The first i in 2..d-1 where PA5 fails, else None; each ratio is compared with
    theta's at i = 2 by cross-multiplication (PA1 keeps every denominator nonzero)."""
    for i in range(2, len(theta) - 1):
        for t in (theta_star, theta):
            if (t[i - 2] - t[i + 1]) * (theta[1] - theta[2]) != (theta[0] - theta[3]) * (t[i - 1] - t[i]):
                return i
    return None


def pa_failure(theta, theta_star, varphi):
    """PA2, PA3 and PA5 by ring operations: the message of the first failure in that order, else
    phi_i D for i = 1..d, D = theta_0 - theta_d (PA4 times D).  PA3 is compared times D^2.  Each
    condition is homogeneous, so (a theta, b theta*, ab varphi) gets the same verdict and message."""
    th, ths, d = theta, theta_star, len(theta) - 1
    D = th[0] - th[d]
    S = tuple(accumulate((th[h] - th[d - h] for h in range(d)), initial=D - D))  # s_i D
    phi_D = tuple(varphi[0] * S[i] + (ths[i] - ths[0]) * (th[d - i + 1] - th[0]) * D for i in range(1, d + 1))
    for i in range(1, d + 1):
        if not phi_D[i - 1]:
            return f"PA2 fails at i={i}: phi_{i} = 0"
    DD = D * D
    for i in range(1, d + 1):
        if varphi[i - 1] * DD != phi_D[0] * S[i] + (ths[i] - ths[0]) * (th[i - 1] - th[d]) * DD:
            return f"PA3 fails at i={i}: varphi_{i} disagrees with phi_1"
    i = pa5_failure(th, ths)
    if i is not None:
        return f"PA5 fails at i={i}: the theta, theta* recurrences differ"
    return phi_D


def complete_parameter_array(field: Field, theta, theta_star, varphi) -> ParameterArray:
    """The unique parameter array with first split sequence varphi, by PA1-PA5.

    Terwilliger's closed-form classification (LAA 330, 2001; any field), in
    O(d) scalar steps and independent of the matrix route in ``certify``:
    `check_pa1` checks PA1, `pa_failure` PA2, PA3 and PA5, and PA4 fixes phi.
    Raises NotALeonardPair naming the failed condition and index.
    """
    th, ths, varphi = tuple(theta), tuple(theta_star), tuple(varphi)
    d = len(th) - 1
    check_pa1(field, d, th, ths, varphi, varphi)  # phi is not known yet; varphi stands in
    phi_D = pa_failure(th, ths, varphi)
    if isinstance(phi_D, str):
        raise NotALeonardPair(phi_D)
    return ParameterArray(field, d, th, ths, varphi, tuple(x / (th[0] - th[d]) for x in phi_D))


def _superdiagonal_in_split_basis(sys: LeonardSystem, kind: str):
    """The superdiagonal of A* in the split basis p_i = tau_i(A) w*_0 (resp. eta_i(A) w*_0) for kind.  Once
    `certified` holds, A* - theta*_i maps p_i into the span of p_{i-1} (Terwilliger, LAA 330 (2001), Thm 1.9 and
    Section 3), so entry i is ((A* p_i)_k - theta*_i (p_i)_k) / (p_{i-1})_k, k the first nonzero of p_{i-1}.
    Else A* P = P X is solved for X."""
    cols, f = sys.root_family(kind, False, sys.eigencolumn(0, star=True)), sys.field
    if any(u.is_zero() for u in cols):
        raise DegenerateSplit("split basis vector vanished")
    if certified(sys):
        (ts,), tden = _to_ints(f, [sys.theta_star])
        A, out = sys.Astar, []
        for i, (p, q) in enumerate(zip(cols[1:], cols), 1):
            k, (a,), (b,) = q.first_nonzero_index(), p.nums, q.nums
            out.append(f.fraction((sum(map(mul, A.nums[k], a)) * tden - ts[i] * A.den * a[k]) * q.den,
                                  A.den * tden * p.den * b[k]))
        return tuple(out)
    U = Matrix.from_columns(f, cols)
    try:
        rep = U.solve(sys.Astar * U)
    except SingularMatrix as exc:
        raise DegenerateSplit("split vectors are linearly dependent") from exc
    return tuple(rep.row(i - 1)[i] for i in range(1, sys.d + 1))


def _diagonal_of_product(X: Matrix, Y: Matrix) -> tuple:
    """(X Y)_ii for each row i of X, one integer dot product each."""
    return tuple(X.field.fraction(sum(a * row[i] for a, row in zip(X.nums[i], Y.nums)), X.den * Y.den)
                 for i in range(X.nrows))


def extract_parameter_array(sys: LeonardSystem) -> ParameterArray:
    """Recover (theta; theta*; varphi; phi) from the matrices alone.

    theta_i is read off as tr(A E_i) (the idempotents have trace 1), varphi from the representation of A* in a split
    basis, and phi from the split basis of the relative with the eigenvalue ordering reversed.  With E_i = w_i u_i^T,
    tr(A E_i) = u_i^T A w_i, the diagonal of U (A W), whether or not U W = I (`_diagonal_of_product`; theta* alike);
    once `certified` holds, U A W = diag(theta), so theta is the stored one, and varphi and phi are read by ratios
    (`_superdiagonal_in_split_basis`).  Raises DegenerateSplit when a family does not factor
    (`LeonardSystem.eigenbasis`) or what is read back is not a parameter array.
    """
    theta, theta_star = (sys.theta, sys.theta_star) if certified(sys) else (
        _diagonal_of_product(U, M * W) for M, (W, U) in ((sys.A, sys.eigenbasis()), (sys.Astar, sys.eigenbasis(True))))
    varphi, phi = (_superdiagonal_in_split_basis(sys, kind) for kind in ("tau", "eta"))
    try:
        return ParameterArray(sys.field, sys.d, theta, theta_star, varphi, phi)
    except ValueError as exc:
        raise DegenerateSplit(f"extracted array is not a parameter array: {exc}") from exc


# --- the dihedral group action on parameter arrays ---

D4_LABELS = ("e", "*", "d", "D", "dD", "*d", "*D", "*dD")


def _apply_generator(pa: ParameterArray, g: str) -> ParameterArray:
    th, ths, vp, ph = pa.theta, pa.theta_star, pa.varphi, pa.phi
    if g == "*":
        th, ths, vp, ph = ths, th, vp, tuple(reversed(ph))
    elif g == "d":
        th, ths, vp, ph = th, tuple(reversed(ths)), tuple(reversed(ph)), tuple(reversed(vp))
    elif g == "D":
        th, ths, vp, ph = tuple(reversed(th)), ths, ph, vp
    else:
        raise ValueError(f"unknown generator {g!r}; use '*', 'd' (down) or 'D' (double down)")
    return ParameterArray(pa.field, pa.d, th, ths, vp, ph)


def d4_apply(pa: ParameterArray, word: str) -> ParameterArray:
    """Apply a word over the generators {*, d, D}, left to right.

    'd' is the single down-arrow (reverse the dual idempotent ordering) and
    'D' the double down-arrow; 'e' and '' both denote the identity.
    """
    out = pa
    for g in word:
        if g == "e":
            continue
        out = _apply_generator(out, g)
    return out


def d4_reduce(word: str) -> str:
    """Canonical label of a generator word: one of D4_LABELS."""
    a = b = c = 0
    for g in word:
        if g == "e":
            continue
        elif g == "*":
            a, b, c = a ^ 1, c, b
        elif g == "d":
            b ^= 1
        elif g == "D":
            c ^= 1
        else:
            raise ValueError(f"unknown generator {g!r}")
    label = "*" * a + "d" * b + "D" * c
    return label or "e"


def d4_orbit(pa: ParameterArray) -> dict:
    """The 8 relatives keyed by reduced word."""
    return {label: d4_apply(pa, label if label != "e" else "") for label in D4_LABELS}


# --- scalars from Section "Some traces" ---


def nu_scalars(pa: ParameterArray):
    """(nu, nu_down, nu_ddown, nu_down_ddown) by their closed forms, memoised on the array (`ParameterArray.nu`)."""
    return pa.nu


def trace_products(sys: LeonardSystem, r: int):
    """Direct traces (tr E_r E*_0, tr E_r E*_d, tr E*_r E_0, tr E*_r E_d), each tr(E_i E*_j) = (u_i . w*_j)(u*_j . w_i)
    for E_i = w_i u_i^T and E*_j = w*_j u*_j^T, two integer dot products over one denominator; DegenerateSplit when a
    family does not factor (`LeonardSystem.eigenbasis`)."""
    if not 0 <= r <= sys.d:
        raise IndexError(f"r = {r} outside 0..{sys.d}")
    d, ((W, U), (Ws, Us)) = sys.d, (sys.eigenbasis(), sys.eigenbasis(star=True))
    dot = lambda X, i, Y, j: sum(a * row[j] for a, row in zip(X.nums[i], Y.nums))  # (X Y)_ij times X.den Y.den
    tr = lambda i, j: sys.field.fraction(dot(U, i, Ws, j) * dot(Us, j, W, i), U.den * Ws.den * Us.den * W.den)
    return tr(r, 0), tr(r, d), tr(0, r), tr(d, r)


def trace_products_closed_form(pa: ParameterArray, r: int):
    """The four trace scalars as ratios of split-sequence products and gaps."""
    if not 0 <= r <= pa.d:
        raise IndexError(f"r = {r} outside 0..{pa.d}")
    d, (g, gs) = pa.d, pa.gaps
    vp_head, vp_tail, ph_head, ph_tail = pa.split_products
    return (
        vp_head[r] * ph_head[d - r] / (gs[0] * g[r]),
        ph_tail[r] * vp_tail[d - r] / (gs[d] * g[r]),
        vp_head[r] * ph_tail[d - r] / (g[0] * gs[r]),
        ph_head[r] * vp_tail[d - r] / (g[d] * gs[r]),
    )


# --- split decomposition projectors ---


def split_factors(sys: LeonardSystem) -> tuple:
    """(P, Q) with F_i = nu tau_i(A) E*_0 E_0 tau*_i(A*) / c_i = p_i q_i^T, c_i = varphi_1 ... varphi_i, for
    p_i column i of P and q_i^T row i of Q: with E*_0 = w*_0 u*_0^T and E_0 = w_0 u_0^T,
    p_i = tau_i(A) w*_0 and q_i^T = nu (u*_0^T w_0) u_0^T tau*_i(A*) / c_i."""
    pa, f = sys.parameter_array, sys.field
    (W, U), (Ws, Us) = sys.eigenbasis(), sys.eigenbasis(star=True)
    scale = nu_scalars(pa)[0] * Us.row(0).dot(W.column(0))
    ps, qs = sys.root_family("tau", False, Ws.column(0)), sys.root_family("tau", True, U.row(0), covector=True)
    return (Matrix.from_columns(f, ps),
            Matrix.from_columns(f, [q.scale(scale / c) for q, c in zip(qs, pa.split_products[0])]).transpose())


def split_projectors(sys: LeonardSystem) -> list:
    """F_i = p_i q_i^T for the factors (P, Q) of `split_factors`."""
    P, Q = split_factors(sys)
    return [outer(P.column(i), Q.row(i)) for i in range(P.ncols)]


def split_projectors_by_intersection(sys: LeonardSystem) -> list:
    """Independent construction of the split projectors from the split lines
    U_i = (E*_0 V + ... + E*_i V) ∩ (E_i V + ... + E_d V): the decomposition of
    the flags with ordered bases W* and W reversed (`flag_decomposition`)."""
    W = sys.eigenbasis()[0].submatrix(cols=slice(None, None, -1))
    lines = flag_decomposition(change_of_basis(sys, True, None, False).submatrix(cols=slice(None, None, -1)), W)
    if lines is None:
        raise DegenerateSplit("split component is not one-dimensional")
    C = Matrix.from_columns(sys.field, lines)
    Cinv = C.inverse()
    # C e_i e_i^T C^-1: column i of C times row i of C^-1
    return [outer(C.column(i), Cinv.row(i)) for i in range(sys.d + 1)]


# --- the bilinear form ---


def solve_gram(sys: LeonardSystem) -> tuple:
    """The weights m_0..m_d of the symmetric invertible G = U^T diag(m) U with A^T G = G A and A*^T G = G A*,
    read off in the eigenbasis (W, U) of A; no matrix is formed.  Its premises, in order, each a DegenerateSplit
    naming it: every E_i of rank one (`LeonardSystem.eigenbasis`); those of `premises` on E, read off the memoised
    axiom report: d+1 idempotents, idempotents_E_orthogonal (U W = I), idempotents_E_spectral (U A W = diag(theta))
    and d+1 distinct theta; and B = U A* W irreducible tridiagonal, the report's tridiagonal_Astar_in_A_eigenbasis,
    as W^-1 = U.  Then W U = I, A = W diag(theta) U and A* = W B U, so A^T G = G A forces G = U^T diag(m) U, and
    A*^T G = G A* holds exactly when m_i B_ij = m_j B_ji: m_0 = 1 and m_{i+1} = m_i B_{i,i+1} / B_{i+1,i}, all
    nonzero (Terwilliger, LAA 330 (2001)).  So once the premises hold G = U^T diag(m) U / pivot (`_gram_pivot`) is
    symmetric, and X -> G^-1 X^T G fixes A, A* and each E_i = w_i u_i^T and is an involution; once E* is orthogonal and
    spectral, each E*_i, a polynomial in A* (similar to B, so theta* is distinct), is fixed too.  No G is formed."""
    f, d = sys.field, sys.d
    sys.eigenbasis()
    premises(sys)
    if not verify_axioms(sys)["tridiagonal_Astar_in_A_eigenbasis"].passed:
        raise DegenerateSplit("U A* W is not irreducible tridiagonal")
    B = change_of_basis(sys, False, "Astar", False)
    return tuple(accumulate((f.fraction(B.nums[i][i + 1], B.nums[i + 1][i]) for i in range(d)), mul, initial=f.one()))


def _gram_weights(sys: LeonardSystem) -> tuple:
    """The weights m of `solve_gram`, memoised under "gram_weights"."""
    return sys.cached("gram_weights", lambda: solve_gram(sys))


def _gram_pivot(sys: LeonardSystem):
    """The first nonzero entry of row 0 of U^T diag(m) U, which is U^T (m_i U_i0)_i, memoised: G is invertible, so
    the row is not zero, and `LeonardSystem.pair` divides by it."""
    def build():
        U = sys.eigenbasis()[1]
        row = U.transpose() * Vector(sys.field, map(mul, _gram_weights(sys), U.column(0)))
        return next(x for x in row if x)
    return sys.cached("gram_pivot", build)


# --- the aggregated Sections 3..6 identity suite ---


def standard_identity_suite(sys: LeonardSystem) -> VerificationReport:
    """Axioms plus every general-system identity used by the acceptance gate, the same checks in the
    same order on every system.  When the array cannot be extracted, the round trip fails with that
    error, and the other checks read the stored array; without one, each check that reads the array
    fails with the error as witness."""
    report = VerificationReport()
    report.merge(verify_axioms(sys))
    f, d = sys.field, sys.d
    try:
        extracted, error = sys.cached("pa", lambda: extract_parameter_array(sys)), None
    except (DegenerateSplit, SingularMatrix) as exc:
        extracted, error = None, exc
    report.add("round_trip_parameter_array", error is None and extracted == sys.parameter_array,
               {"error": str(error)} if error else None)

    def array() -> ParameterArray:
        """The stored array, else the extracted one; the extraction error when there is neither."""
        if error and sys.pa is None:
            raise error
        return sys.parameter_array

    sized = lambda: _sized(sys, False) or _sized(sys, True)  # first in each check that reads both families

    # edge idempotents, char products and bases of F[M], M = A (A*), given E (E*) of d+1 idempotents, orthogonal and
    # spectral, and d+1 distinct theta (theta*): then U W = I and M = W diag(theta) U, so p(M) = W diag(p(theta_k)) U
    # for each polynomial p.  Hence tau_{d+1}(M) = 0, each of tau_i(M), eta_i(M), M^i is a basis of F[M] (triangular
    # resp. Vandermonde in the independent E_k), eta_d(M) = eta_d(theta_0) E_0 and tau_d(M) = tau_d(theta_d) E_d
    # (Terwilliger, LAA 330 (2001), Thm 1.9; Horn & Johnson, Matrix Analysis, ch. 3).  So char_product_* and
    # subalgebra_three_bases_* pass once the premises hold (`premises`), and each edge check compares the array's gap
    # with that product over the system's own theta, started at one() so that at d = 0 it is a field element
    def edge(star):
        g_d, g_0 = edge_values(array())[2 * star:][:2]  # the extraction error before the premises
        premises(sys, star)
        theta = sys.theta_star if star else sys.theta
        return [(prod((theta[0] - t for t in theta[1:]), start=f.one()) == g_0, None),
                (prod((theta[d] - t for t in theta[:d]), start=f.one()) == g_d, None)]

    decided = lambda star: premises(sys, star) or [(True, None)]
    for names, check in ((("edge_idempotent_E0", "edge_idempotent_Ed"), edge), (("char_product_A",), decided),
                         (("subalgebra_three_bases_A",), decided)):
        for star in (False, True):
            _add_factored(report, [name + "star" * star for name in names], lambda: check(star))

    # trace scalars, nu and the sandwich identities: a rank-one E has E X E = tr(E X) E, so nu E_0 E*_0 E_0 = E_0
    # reads nu tr(E_0 E*_0) = 1; traces() is tr E_0 E*_0, E_0 E*_d, E_d E*_0 and E_d E*_d
    one = f.one()
    traces = lambda: sized() or sys.cached("traces", lambda: trace_products(sys, 0)[:2] + trace_products(sys, d)[:2])
    def sandwich(star):
        sys.eigenbasis(star)  # E_0 (resp. E*_0) = w u^T, else DegenerateSplit
        return [(nu_scalars(array())[0] * traces()[0] == one, None)]

    for name, star in (("nu_sandwich_E0", False), ("nu_sandwich_E0star", True)):
        _add_factored(report, [name], lambda: sandwich(star))

    def closed_forms():
        pa, direct_edges = array(), traces()
        first = next(({"r": r} for r in range(d + 1)
                      if (direct := trace_products(sys, r)) != trace_products_closed_form(pa, r) or not all(direct)),
                     None)
        values = nu_scalars(pa)
        ok = all(t * v == one for t, v in zip(direct_edges, values))
        scalars = dict(zip(("nu", "nu_down", "nu_ddown", "nu_down_ddown"), map(f.encode_scalar, values)))
        return [(first is None, first), (ok, None if ok else {"scalars": scalars})]

    _add_factored(report, ["trace_products_closed_form", "nu_closed_forms_match_traces"], closed_forms)

    # split projectors: the closed form F_i = p_i q_i^T (`split_factors`) against the intersection construction.
    # F_i F_j = (q_i^T p_j) p_i q_j^T and sum F_i = P Q, so the F_i resolve the identity exactly when Q P = I.
    # Once `certified` holds, c = U w*_0 has no zero entry, so U P = [diag(tau_i(theta)) c] is lower and
    # U* P = [tau_i(B*) e_0] upper triangular, both with nonzero diagonals: p_i spans the split line U_i, P is
    # invertible, and the intersection route's projector P e_i e_i^T P^-1 is F_i exactly when Q P = I.  Else the
    # intersection route decides.
    def split():
        array()  # raises the extraction error before split_factors would extract again
        sized()
        P, Q = split_factors(sys)
        resolves = not _off_diagonal(Q * P, [one] * (d + 1))
        if certified(sys):
            return [(resolves, None)] * 2
        return [(split_projectors(sys) == split_projectors_by_intersection(sys), None), (resolves, None)]

    _add_factored(report, ["split_projectors_match_intersection", "split_projectors_resolution"], split)

    # pairing of the split polynomials against E*_0 ... E_0: with E*_0 =
    # w*_0 u*_0^T and E_0 = w_0 u_0^T both sides are multiples of w*_0 u_0^T,
    # so E*_0 tau_i(A) tau*_j(A*) E_0 = delta_ij c_i E*_0 E_0 reads S = diag(c)
    # (u*_0^T w_0) for S_ij = (u*_0^T tau_i(A)) (tau*_j(A*) w_0)
    def pairing():
        w0, us0 = sys.eigenbasis()[0].column(0), sys.eigenbasis(star=True)[1].row(0)
        left = Matrix.from_columns(f, sys.root_family("tau", False, us0, covector=True)).transpose()
        right = Matrix.from_columns(f, sys.root_family("tau", True, w0))
        scale = us0.dot(w0)
        witness = _off_diagonal(left * right, [c * scale for c in array().split_products[0]])
        return [(witness is None, witness)]

    _add_factored(report, ["split_pairing_delta"], pairing)

    # the bilinear form and its antiautomorphism: theorems of solve_gram's premises (a failed one fails all seven), and
    # dagger_fixes_idempotents also of the premises of the F[M] checks on A*, whose first failed one is its witness;
    # solving for the weights checks those premises, and no G is formed
    def gram():
        _gram_weights(sys)
        return [(True, None)] * 5 + _outcomes(1, lambda: decided(True)) + [(True, None)]

    _add_factored(report, ["gram_symmetric", "gram_intertwines_A", "gram_intertwines_Astar", "dagger_fixes_A",
                           "dagger_fixes_Astar", "dagger_fixes_idempotents", "dagger_involution"], gram)
    return report
