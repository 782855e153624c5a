"""Leonard systems as exact data.

A system is built from a parameter array (theta; theta*; varphi; phi) with
the ambient basis declared to be a split basis, so the defining matrices are
bidiagonal verbatim: A has diagonal theta_0..theta_d and subdiagonal 1,
A* has diagonal theta*_0..theta*_d and superdiagonal varphi_1..varphi_d.
Certification is explicit: ``build_system`` never rejects, ``verify_axioms``
reports, ``certify`` raises NotALeonardPair on any failure.
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
    bidiagonal,
    bidiagonal_idempotents,
    flag_decomposition,
    flat_rank,
    is_irreducible_tridiagonal,
    lagrange_idempotent,
    outer,
    rank_one_factors,
    root_product_family,
    trace_of_product,
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
    def gaps(self) -> tuple:
        """(g, g*), built on first use: g_r = prod_{h != r} (theta_r - theta_h), which is
        tau_r(theta_r) eta_{d-r}(theta_r), and g*_r the same over theta*."""
        one = self.field.one()
        return tuple(tuple(prod((x - y for h, y in enumerate(t) if h != r), start=one) for r, x in enumerate(t))
                     for t in (self.theta, self.theta_star))

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
        field = Field.from_json(obj["field"])
        dec = field.decode_scalar
        return cls(
            field=field,
            d=obj["d"],
            theta=tuple(dec(x) for x in obj["theta"]),
            theta_star=tuple(dec(x) for x in obj["theta_star"]),
            varphi=tuple(dec(x) for x in obj["varphi"]),
            phi=tuple(dec(x) for x in obj["phi"]),
        )


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

    Derived data (the Gram matrix, the tau/eta families, flags and
    decompositions) is built on first use and memoised on the instance.
    """

    __slots__ = ("pa", "A", "Astar", "E", "Estar", "theta", "theta_star", "_memo")

    def __init__(self, A, Astar, E, Estar, theta, theta_star, pa=None):
        self.A = A
        self.Astar = Astar
        self.E = tuple(E)
        self.Estar = tuple(Estar)
        self.theta = tuple(theta)
        self.theta_star = tuple(theta_star)
        self.pa = pa
        self._memo = {}

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
    def from_parameter_array(cls, pa: ParameterArray) -> "LeonardSystem":
        """The system in a split basis: A and A* bidiagonal, and both
        idempotent families from their triangular eigenvectors
        (`bidiagonal_idempotents`, O(d^3) in all) rather than Lagrange products."""
        f = pa.field
        A, Astar = bidiagonal(f, pa.theta), bidiagonal(f, pa.theta_star, pa.varphi)
        E, Estar = bidiagonal_idempotents(f, pa.theta), bidiagonal_idempotents(f, pa.theta_star, pa.varphi)
        return cls(A, Astar, E, Estar, pa.theta, pa.theta_star, pa)

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

    @property
    def gram(self) -> Matrix:
        return self.cached("gram", lambda: solve_gram(self))[0]

    @property
    def gram_inverse(self) -> Matrix:
        return self.cached("gram", lambda: solve_gram(self))[1]

    def root_family(self, kind: str, star: bool = False, start=None, covector: bool = False) -> tuple:
        """The tau or eta family (kind) p_0..p_d at M = A (resp. A*), memoised: tau_i has roots
        theta_0..theta_{i-1}, eta_i has theta_d..theta_{d-i+1}.  The matrices p_i(M) when start
        is None, else the vectors p_i(M) v for v = start, or with covector the covectors
        u^T p_i(M) for u = start, built as p_i(M^T) u (`root_product_family`)."""
        M, theta = (self.Astar, self.theta_star) if star else (self.A, self.theta)
        roots = theta[:-1] if kind == "tau" else theta[:0:-1]
        return self.cached(("root_family", kind, star, start, covector),
                           lambda: tuple(root_product_family(M.transpose() if covector else M, roots, start)))

    def dagger(self, X: Matrix) -> Matrix:
        """The antiautomorphism fixing A and A*: X -> G^-1 X^T G."""
        return self.gram_inverse * X.transpose() * self.gram

    def pair(self, u: Vector, v: Vector):
        """The bilinear form <u, v> = u^T G v."""
        return u.dot(self.gram * v)

    def eigenbasis(self, star: bool = False) -> tuple:
        """(W, U) with E_i == w_i u_i^T (resp. E*_i) for w_i column i of W and u_i^T row i of U
        (`rank_one_factors`, memoised); DegenerateSplit naming the first E_i not of rank one."""
        mats = self.Estar if star else self.E
        found = self.cached(("eigenbasis", star), lambda: rank_one_factors(mats))
        if found is None:
            i = next(i for i, M in enumerate(mats) if M.rank() != 1)
            raise DegenerateSplit(f"idempotent {'E*' if star else 'E'}_{i} is not of rank one")
        return found

    def eigencolumn(self, i: int, star: bool = False) -> Vector:
        """w_i: the first nonzero column of E_i (resp. E*_i), a theta_i-eigenvector."""
        return self.eigenbasis(star)[0].column(i)


def build_system(pa: ParameterArray) -> LeonardSystem:
    return LeonardSystem.from_parameter_array(pa)


def _orthogonality_witness(sys: LeonardSystem, star: bool = False):
    """The first (i, j) where U W != I for (W, U) = sys.eigenbasis(star), else None, memoised."""
    W, U = sys.eigenbasis(star)
    return sys.cached(("UW_witness", star), lambda: _off_diagonal(U * W, [sys.field.one()] * W.ncols))


def _eigenbasis_inverse(sys: LeonardSystem, star: bool = False) -> Matrix:
    """W^-1 for (W, U) = sys.eigenbasis(star), memoised: U once U W = I, else Gauss-Jordan on W
    (SingularMatrix when W is singular)."""
    W, U = sys.eigenbasis(star)
    return sys.cached(("eigenbasis_inverse", star), lambda: W.inverse() if _orthogonality_witness(sys, star) else U)


def change_of_basis(sys: LeonardSystem, a: bool, X: str | None, b: bool) -> Matrix:
    """W_a^-1 X W_b, memoised, for the eigenbases W_a and W_b of E (False) or E* (True) and X one of
    None (I), "A" or "Astar"; W_a^-1 W_a is I.  SingularMatrix when W_a is singular."""
    def build():
        inverse, W = _eigenbasis_inverse(sys, a), sys.eigenbasis(b)[0]
        if X is None:
            return Matrix.identity(sys.field, sys.d + 1) if a == b else inverse * W
        return inverse * getattr(sys, X) * W
    return sys.cached(("change_of_basis", a, X, b), build)


def _outcomes(n: int, check, errors=(DegenerateSplit, SingularMatrix)) -> list:
    """check(), a list of n (passed, witness); n failures with the error as witness when it raises
    one of errors: a family that does not factor, a singular W or an array that cannot be extracted."""
    try:
        return check()
    except errors as exc:
        return [(False, {"error": str(exc)})] * n


def _add_factored(report, names, check, errors=(DegenerateSplit, SingularMatrix)) -> None:
    """Add the checks names in order, one outcome of check() each (`_outcomes`)."""
    for name, (passed, witness) in zip(names, _outcomes(len(names), check, errors), strict=True):
        report.add(name, passed, witness)


def _off_diagonal(M: Matrix, diag):
    """{"i", "j"} of the first entry (row-major) where M differs from the diagonal matrix diag, else None;
    an off-diagonal entry is 0 exactly when its integer is, so only the diagonal becomes field elements."""
    f, den = M.field, M.den
    return next(({"i": i, "j": j} for i, row in enumerate(M.nums) for j, a in enumerate(row)
                 if (f.fraction(a, den) != diag[i] if i == j else a)), None)


def _idempotent_checks(report, sys: LeonardSystem, star: bool):
    """With E_i = w_i u_i^T, E_i E_j = (u_i^T w_j) w_i u_j^T: the family is orthogonal exactly when U W = I, and the
    first (i, j) with (U W)_ij != delta_ij is the first failing product.  Then, with d+1 of each, W U = I, so sum E_i
    is I and sum theta_i E_i = W diag(theta) U is M exactly when each M w_i = theta_i w_i; else the sums are dense."""
    label, mats, M, theta = ("Estar", sys.Estar, sys.Astar, sys.theta_star) if star else ("E", sys.E, sys.A, sys.theta)
    field, n = M.field, M.nrows
    _add_factored(report, [f"idempotents_{label}_orthogonal"],
                  lambda: [((witness := _orthogonality_witness(sys, star)) is None, witness)])
    decided = report[f"idempotents_{label}_orthogonal"].passed and len(mats) == len(theta) == n
    W, zero = (sys.eigenbasis(star)[0] if decided else None), Matrix.zeros(field, n)
    report.add(f"idempotents_{label}_sum", decided or sum(mats, zero) == Matrix.identity(field, n))
    report.add(f"idempotents_{label}_spectral", all(M * w == w.scale(th) for th, w in zip(theta, W.columns()))
               if decided else sum((Ei.scale(th) for th, Ei in zip(theta, mats)), zero) == M)

    try:
        factored = bool(sys.eigenbasis(star))
    except DegenerateSplit:
        factored = False
    report.add(f"idempotents_{label}_rank_one", factored, None if factored else {"ranks": [Ei.rank() for Ei in mats]})


def verify_axioms(sys: LeonardSystem) -> VerificationReport:
    """Check the defining axioms; failures are report entries, never exceptions."""
    report = VerificationReport()

    for name, star, X in (
        ("tridiagonal_Astar_in_A_eigenbasis", False, "Astar"),
        ("tridiagonal_A_in_Astar_eigenbasis", True, "A"),
    ):
        _add_factored(report, [name], lambda: [(is_irreducible_tridiagonal(change_of_basis(sys, star, X, star)), None)])

    report.add(
        "standard_orderings",
        report["tridiagonal_Astar_in_A_eigenbasis"].passed
        and report["tridiagonal_A_in_Astar_eigenbasis"].passed,
    )

    _idempotent_checks(report, sys, star=False)
    _idempotent_checks(report, sys, star=True)
    return report


def certify(pa: ParameterArray) -> LeonardSystem:
    """Build and certify; raises NotALeonardPair when the array is not realizable.

    Certification is the axiom report plus the extraction round trip (the
    round trip is what ties the stored second split sequence to the system).
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
    """The superdiagonal of A* in the split basis tau_i(A) w*_0 (resp. eta_i(A) w*_0) for kind."""
    cols = sys.root_family(kind, False, sys.eigencolumn(0, star=True))
    if any(u.is_zero() for u in cols):
        raise DegenerateSplit("split basis vector vanished")
    U = Matrix.from_columns(sys.field, cols)
    try:
        rep = U.solve(sys.Astar * U)
    except SingularMatrix as exc:
        raise DegenerateSplit("split vectors are linearly dependent") from exc
    return tuple(rep.row(i - 1)[i] for i in range(1, sys.d + 1))


def extract_parameter_array(sys: LeonardSystem) -> ParameterArray:
    """Recover (theta; theta*; varphi; phi) from the matrices alone.

    theta_i is read off as tr(A E_i) (the idempotents have trace 1), varphi
    from the representation of A* in a split basis, and phi from the split
    basis of the relative with the eigenvalue ordering reversed.  Raises
    DegenerateSplit when what is read back is not a parameter array.
    """
    theta = tuple(trace_of_product(sys.A, Ei) for Ei in sys.E)
    theta_star = tuple(trace_of_product(sys.Astar, Ei) for Ei in sys.Estar)
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
    """(nu, nu_down, nu_ddown, nu_down_ddown) by their closed forms."""
    tau_d, eta_d, taus_d, etas_d = edge_values(pa)
    vp, ph = pa.split_products[0][pa.d], pa.split_products[2][pa.d]
    nu = eta_d * etas_d / ph
    nu_down = eta_d * taus_d / vp
    nu_ddown = tau_d * etas_d / vp
    nu_dd = tau_d * taus_d / ph
    return nu, nu_down, nu_ddown, nu_dd


def trace_products(sys: LeonardSystem, r: int):
    """Direct traces (tr E_r E*_0, tr E_r E*_d, tr E*_r E_0, tr E*_r E_d)."""
    if not 0 <= r <= sys.d:
        raise IndexError(f"r = {r} outside 0..{sys.d}")
    d, E, Es = sys.d, sys.E, sys.Estar
    return tuple(trace_of_product(X, Y) for X, Y in ((E[r], Es[0]), (E[r], Es[d]), (Es[r], E[0]), (Es[r], E[d])))


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


def split_projectors(sys: LeonardSystem) -> list:
    """F_i = nu tau_i(A) E*_0 E_0 tau*_i(A*) / c_i, c_i = varphi_1 ... varphi_i,
    built as p_i q_i^T: with E*_0 = w*_0 u*_0^T and E_0 = w_0 u_0^T,
    p_i = tau_i(A) w*_0 and q_i^T = nu (u*_0^T w_0) u_0^T tau*_i(A*) / c_i."""
    pa = sys.parameter_array
    (W, U), (Ws, Us) = sys.eigenbasis(), sys.eigenbasis(star=True)
    scale = nu_scalars(pa)[0] * Us.row(0).dot(W.column(0))
    ps, qs = sys.root_family("tau", False, Ws.column(0)), sys.root_family("tau", True, U.row(0), covector=True)
    return [outer(p, q.scale(scale / c)) for p, q, c in zip(ps, qs, pa.split_products[0])]


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
    """(G, G^-1) for the symmetric invertible G with A^T G = G A and A*^T G = G A*, read off in the eigenbasis
    (W, U) of A.  Its premises, in order, each a DegenerateSplit naming it: every E_i of rank one
    (`LeonardSystem.eigenbasis`), d+1 distinct theta and d+1 idempotents, U W = I, U A W = diag(theta) and
    B = U A* W irreducible tridiagonal.  Then W U = I, A = W diag(theta) U and A* = W B U, so A^T G = G A forces
    G = U^T diag(m) U, and A*^T G = G A* holds exactly when m_i B_ij = m_j B_ji: m_0 = 1 and
    m_{i+1} = m_i B_{i,i+1} / B_{i+1,i}, all nonzero (Terwilliger, LAA 330 (2001)).  G is divided by pivot, its
    first nonzero entry of row 0, and G^-1 = W diag(pivot/m) W^T, as G G^-1 = U^T W^T = I.  So G is symmetric and
    intertwines A and A*, and X -> G^-1 X^T G fixes A and A*, is an involution and fixes each E_i = w_i u_i^T, as
    G w_i = (m_i/pivot) u_i and G^-1 u_i = (pivot/m_i) w_i.  Once E* is orthogonal and spectral, A* is
    W* diag(theta*) U*, diagonalizable and, like B (irreducible tridiagonal), with only lines for eigenspaces:
    theta* is distinct, and each E*_i, a Lagrange polynomial in A*, is fixed too."""
    f, d, theta = sys.field, sys.d, sys.theta
    W, U = sys.eigenbasis()
    at = next(((i, j) for j in range(len(theta)) for i in range(j) if theta[i] == theta[j]), None)
    if at or not len(theta) == W.ncols == d + 1:
        raise DegenerateSplit(f"theta is not distinct at (i, j) = {at}" if at else
                              f"{len(theta)} eigenvalues and {W.ncols} idempotents, not d + 1 = {d + 1}")
    if at := _orthogonality_witness(sys):
        raise DegenerateSplit(f"U W is not I at (i, j) = ({at['i']}, {at['j']})")
    if at := _off_diagonal(change_of_basis(sys, False, "A", False), theta):
        raise DegenerateSplit(f"U A W is not diag(theta) at (i, j) = ({at['i']}, {at['j']})")
    B = change_of_basis(sys, False, "Astar", False)  # U A* W, as W^-1 = U
    if not is_irreducible_tridiagonal(B):
        raise DegenerateSplit("U A* W is not irreducible tridiagonal")
    m = list(accumulate((f.fraction(B.nums[i][i + 1], B.nums[i + 1][i]) for i in range(d)), mul, initial=f.one()))
    scale_rows = lambda c, M: Matrix.from_columns(f, [M.row(i).scale(x) for i, x in enumerate(c)]).transpose()
    G = U.transpose() * scale_rows(m, U)
    pivot = next(x for x in G.row(0) if x)
    return G.scale(f.invert(pivot)), W * scale_rows([pivot / x for x in m], W.transpose())


# --- the aggregated Sections 3..6 identity suite ---


def standard_identity_suite(sys: LeonardSystem) -> VerificationReport:
    """Axioms plus every general-system identity used by the acceptance gate, the same checks in the
    same order on every system.  When the array cannot be extracted, the round trip fails with that
    error, and the other checks read the stored array; without one, each check that reads the array
    fails with the error as witness."""
    report = verify_axioms(sys)
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

    # edge idempotents, char products and bases of F[M], M = A (A*): orthogonal and spectral E_i commute with M,
    # and if the Krylov vectors M^i v of v = e_0 (e_d) have rank d+1, v is cyclic, so the E_i lie in F[M] and
    # X -> X v is one-to-one on F[M] (Horn & Johnson, Matrix Analysis, ch. 3): X is read as X v, else densely.
    edges, chars, bases = [], [], []  # (name, (passed, witness)) for A, then for A*
    for s, M, theta, j, k in (("", sys.A, sys.theta, 0, 0), ("star", sys.Astar, sys.theta_star, d, 2)):
        v = Matrix.identity(f, d + 1).column(j)
        powers = root_product_family(M, [f.zero()] * d, v)
        if not (report[f"idempotents_E{s}_orthogonal"].passed and report[f"idempotents_E{s}_spectral"].passed
                and Matrix.from_columns(f, powers).rank() == d + 1):
            v, powers = None, root_product_family(M, [f.zero()] * d)
        E = [X if v is None else X.column(j) for X in (sys.Estar if s else sys.E)]  # E_i e_j
        taus, etas = (sys.root_family(kind, bool(s), v) for kind in ("tau", "eta"))

        def edge():
            g_d, g_0 = edge_values(array())[k:k + 2]
            return [(etas[d].scale(f.invert(g_0)) == E[0], None), (taus[d].scale(f.invert(g_d)) == E[d], None)]

        edges += zip((f"edge_idempotent_E0{s}", f"edge_idempotent_Ed{s}"), _outcomes(2, edge))
        chars.append((f"char_product_A{s}", (root_product_family(M, theta[d:], taus[d])[-1].is_zero(), None)))
        rank = flat_rank if v is None else lambda fam: Matrix.from_columns(f, fam).rank()
        ranks = [rank(fam) for fam in (E, taus, etas, powers)]
        union = flat_rank([*E, *taus, *etas, *powers]) if v is None else d + 1  # on v, the powers span V
        bases.append((f"subalgebra_three_bases_A{s}", ({*ranks, union} == {d + 1}, {"ranks": ranks, "union": union})))
    for name, (passed, witness) in edges + chars + bases:
        report.add(name, passed, witness)

    # trace scalars, nu and the sandwich identities: a rank-one E has
    # E X E = tr(E X) E, so nu E_0 E*_0 E_0 = E_0 reads nu tr(E_0 E*_0) = 1
    one = f.one()
    traces = trace_products(sys, 0)[:2] + trace_products(sys, d)[:2]  # tr E_0 E*_0, E_0 E*_d, E_d E*_0, E_d E*_d
    def sandwich(star):
        sys.eigenbasis(star)  # E_0 (resp. E*_0) = w u^T, else DegenerateSplit
        return [(nu_scalars(array())[0] * traces[0] == one, None)]

    for name, star in (("nu_sandwich_E0", False), ("nu_sandwich_E0star", True)):
        _add_factored(report, [name], lambda: sandwich(star))

    def closed_forms():
        pa = array()
        first = next(({"r": r} for r in range(d + 1)
                      if (direct := trace_products(sys, r)) != trace_products_closed_form(pa, r) or not all(direct)),
                     None)
        values = nu_scalars(pa)
        ok = all(t * v == one for t, v in zip(traces, values))
        scalars = dict(zip(("nu", "nu_down", "nu_ddown", "nu_down_ddown"), map(f.encode_scalar, values)))
        return [(first is None, first), (ok, None if ok else {"scalars": scalars})]

    _add_factored(report, ["trace_products_closed_form", "nu_closed_forms_match_traces"], closed_forms)

    # split projectors: the closed form against the intersection construction.
    # With F_i = p_i q_i^T, F_i F_j = (q_i^T p_j) p_i q_j^T and sum F_i = P Q,
    # so the F_i resolve the identity exactly when Q P = I.
    def split():
        array()  # raises the extraction error before split_projectors would extract again
        F = split_projectors(sys)
        match, PQ = F == split_projectors_by_intersection(sys), rank_one_factors(F)
        return [(match, None), (PQ is not None and not _off_diagonal(PQ[1] * PQ[0], [one] * (d + 1)), None)]

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
    # of E* orthogonal and spectral for dagger_fixes_idempotents, else (w u^T)^dagger = (G^-1 u)(G w)^T on E*'s factors
    theorem = len(sys.Estar) == d + 1 and all(report[f"idempotents_Estar_{c}"].passed
                                              for c in ("orthogonal", "spectral"))

    def gram():
        G, Ginv = sys.gram, sys.gram_inverse
        fixed = lambda W, U: all(outer(Ginv * U.row(i), G * W.column(i)) == sys.Estar[i] for i in range(d + 1))
        idempotents = lambda: [(theorem or fixed(*sys.eigenbasis(star=True)), None)]
        return [(True, None)] * 5 + _outcomes(1, idempotents) + [(True, None)]

    _add_factored(report, ["gram_symmetric", "gram_intertwines_A", "gram_intertwines_Astar", "dagger_fixes_A",
                           "dagger_fixes_Astar", "dagger_fixes_idempotents", "dagger_involution"],
                  gram, DegenerateSplit)
    return report
