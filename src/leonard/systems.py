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

from .errors import (
    DegenerateSplit,
    NonUniqueForm,
    NotALeonardPair,
    SingularMatrix,
)
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

    def eigenbasis(self, star: bool = False):
        """(W, U) with E_i == w_i u_i^T (resp. E*_i) for w_i column i of W and
        u_i^T row i of U (`rank_one_factors`); None when some E_i does not factor."""
        return self.cached(("eigenbasis", star), lambda: rank_one_factors(self.Estar if star else self.E))

    def eigencolumn(self, i: int, star: bool = False) -> Vector:
        """w_i: the first nonzero column of E_i (resp. E*_i), a theta_i-eigenvector."""
        return _factors(self, star)[0].column(i)


def build_system(pa: ParameterArray) -> LeonardSystem:
    return LeonardSystem.from_parameter_array(pa)


def _factors(sys: LeonardSystem, star: bool = False) -> tuple:
    """sys.eigenbasis(star), or DegenerateSplit naming the first E_i (resp. E*_i) not of rank one."""
    if sys.eigenbasis(star) is None:
        i = next(i for i, M in enumerate(sys.Estar if star else sys.E) if M.rank() != 1)
        raise DegenerateSplit(f"idempotent {'E*' if star else 'E'}_{i} is not of rank one")
    return sys.eigenbasis(star)


def _add_factored(report, name: str, check) -> None:
    """Add check() = (passed, witness); a family that does not factor fails it."""
    try:
        passed, witness = check()
    except DegenerateSplit as exc:
        passed, witness = False, {"error": str(exc)}
    report.add(name, passed, witness)


def _off_diagonal(M: Matrix, diag):
    """{"i", "j"} of the first entry (row-major) where M differs from the diagonal matrix diag, else None;
    an off-diagonal entry is 0 exactly when its integer is, so only the diagonal becomes field elements."""
    f, den = M.field, M.den
    return next(({"i": i, "j": j} for i, row in enumerate(M.nums) for j, a in enumerate(row)
                 if (f.fraction(a, den) != diag[i] if i == j else a)), None)


def _idempotent_checks(report, sys: LeonardSystem, star: bool):
    """With E_i = w_i u_i^T, E_i E_j = (u_i^T w_j) w_i u_j^T, so the family is
    orthogonal exactly when U W = I, and the first (i, j) with (U W)_ij !=
    delta_ij is the first failing product."""
    label, mats, M, theta = ("Estar", sys.Estar, sys.Astar, sys.theta_star) if star else ("E", sys.E, sys.A, sys.theta)
    field, n = M.field, M.nrows

    def orthogonal():
        W, U = _factors(sys, star)
        witness = _off_diagonal(U * W, [field.one()] * n)
        return witness is None, witness

    _add_factored(report, f"idempotents_{label}_orthogonal", orthogonal)
    zero = Matrix.zeros(field, n)
    report.add(f"idempotents_{label}_sum", sum(mats, zero) == Matrix.identity(field, n))
    report.add(f"idempotents_{label}_spectral", sum((Ei.scale(th) for th, Ei in zip(theta, mats)), zero) == M)

    factored = sys.eigenbasis(star) is not None
    report.add(
        f"idempotents_{label}_rank_one",
        factored,
        None if factored else {"ranks": [Ei.rank() for Ei in mats]},
    )


def verify_axioms(sys: LeonardSystem) -> VerificationReport:
    """Check the defining axioms; failures are report entries, never exceptions."""
    report = VerificationReport()

    for name, star, target in (
        ("tridiagonal_Astar_in_A_eigenbasis", False, sys.Astar),
        ("tridiagonal_A_in_Astar_eigenbasis", True, sys.A),
    ):
        try:
            W, U = _factors(sys, star)
            Winv = U if _off_diagonal(U * W, [sys.field.one()] * W.ncols) is None else W.inverse()
            report.add(name, is_irreducible_tridiagonal(Winv * target * W), None)
        except (SingularMatrix, DegenerateSplit) as exc:
            report.add(name, False, {"error": str(exc)})

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


def complete_parameter_array(field: Field, theta, theta_star, varphi) -> ParameterArray:
    """The unique parameter array with first split sequence varphi, by PA1-PA5.

    Terwilliger's closed-form classification (LAA 330, 2001; any field), in
    O(d) scalar steps and independent of the matrix route in ``certify``:
    PA4 fixes phi, then PA2, PA3 and PA5 are checked.  Raises NotALeonardPair
    naming the failed condition and index; `check_pa1` checks PA1 first.
    """
    th, ths, varphi = tuple(theta), tuple(theta_star), tuple(varphi)
    d = len(th) - 1
    check_pa1(field, d, th, ths, varphi, varphi)  # phi is not known yet; varphi stands in
    s = [field.zero()]  # s_i = sum_{h<i} (theta_h - theta_{d-h}) / (theta_0 - theta_d)
    for h in range(d):
        s.append(s[-1] + (th[h] - th[d - h]) / (th[0] - th[d]))
    phi = tuple(varphi[0] * s[i] + (ths[i] - ths[0]) * (th[d - i + 1] - th[0]) for i in range(1, d + 1))
    for i in range(1, d + 1):
        if not phi[i - 1]:
            raise NotALeonardPair(f"PA2 fails at i={i}: phi_{i} = 0")
    for i in range(1, d + 1):
        if varphi[i - 1] != phi[0] * s[i] + (ths[i] - ths[0]) * (th[i - 1] - th[d]):
            raise NotALeonardPair(f"PA3 fails at i={i}: varphi_{i} disagrees with phi_1")
    i = pa5_failure(th, ths)
    if i is not None:
        raise NotALeonardPair(f"PA5 fails at i={i}: the theta, theta* recurrences differ")
    return ParameterArray(field, d, th, ths, varphi, phi)


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
    (W, U), (Ws, Us) = _factors(sys), _factors(sys, star=True)
    scale = nu_scalars(pa)[0] * Us.row(0).dot(W.column(0))
    ps, qs = sys.root_family("tau", False, Ws.column(0)), sys.root_family("tau", True, U.row(0), covector=True)
    return [outer(p, q.scale(scale / c)) for p, q, c in zip(ps, qs, pa.split_products[0])]


def split_projectors_by_intersection(sys: LeonardSystem) -> list:
    """Independent construction of the split projectors from the split lines
    U_i = (E*_0 V + ... + E*_i V) ∩ (E_i V + ... + E_d V): the decomposition of
    the flags with ordered bases W* and W reversed (`flag_decomposition`)."""
    W, Ws = _factors(sys)[0], _factors(sys, star=True)[0]
    lines = flag_decomposition(Ws.inverse(), W.submatrix(cols=slice(None, None, -1)))
    if lines is None:
        raise DegenerateSplit("split component is not one-dimensional")
    C = Matrix.from_columns(sys.field, lines)
    Cinv = C.inverse()
    # C e_i e_i^T C^-1: column i of C times row i of C^-1
    return [outer(C.column(i), Cinv.row(i)) for i in range(sys.d + 1)]


# --- the bilinear form ---


def solve_gram(sys: LeonardSystem) -> tuple:
    """(G, G^-1) for the symmetric invertible G with A^T G = G A and A*^T G = G A*.

    The solution space must be 1-dimensional (NonUniqueForm otherwise); G is
    normalized so the first nonzero entry of row 0 equals 1.  Solved in the
    eigenbasis of A (`_gram_in_eigenbasis`), or where that does not apply as
    the null space of the n^2-unknown intertwining constraints.
    """
    closed = _gram_in_eigenbasis(sys)
    return closed if closed is not None else _gram_by_nullspace(sys.A, sys.Astar)


def _gram_in_eigenbasis(sys: LeonardSystem):
    """solve_gram in the eigenbasis (W, U) of A; None unless theta is distinct,
    U W = I and U A W = diag(theta).  Then A^T G = G A forces G = U^T diag(m) U,
    and A*^T G = G A* holds exactly when m_i B_ij = m_j B_ji (i < j) for
    B = U A* W: an n(n-1)/2 x n null space.  G^-1 = W diag(m)^-1 W^T.  Raises
    NonUniqueForm and SingularMatrix as `_gram_by_nullspace` does."""
    f, n, theta = sys.field, sys.d + 1, sys.theta
    basis = sys.eigenbasis()
    if basis is None or not len(theta) == len(set(theta)) == n:
        return None
    W, U = basis
    scale_rows = lambda c, M: Matrix.from_columns(f, [M.row(i).scale(x) for i, x in enumerate(c)]).transpose()
    if _off_diagonal(U * W, [f.one()] * n) or _off_diagonal(U * sys.A * W, theta):
        return None
    B = (U * sys.Astar * W).nums  # B.den B: scaling every row leaves the null space unchanged
    rows = [[B[i][j] if k == i else -B[j][i] if k == j else 0 for k in range(n)]
            for i in range(n) for j in range(i + 1, n)]
    ms = Matrix.from_ints(f, rows or [[0] * n]).nullspace()
    G, pivot = _one_form(f, [U.transpose() * scale_rows(m, U) for m in ms])
    m = ms[0].entries
    if not all(m):
        raise SingularMatrix("matrix has zero determinant")
    return G, W * scale_rows([pivot / x for x in m], W.transpose())


def _one_form(f: Field, forms) -> tuple:
    """(G, pivot): the only matrix in forms divided by the first nonzero entry
    of its row 0; NonUniqueForm when there is not exactly one or row 0 is zero."""
    if len(forms) != 1:
        raise NonUniqueForm(f"intertwiner space has dimension {len(forms)}")
    pivot = next((x for x in forms[0].row(0) if x), None)
    if pivot is None:
        raise NonUniqueForm("gram candidate has a zero first row")
    return forms[0].scale(f.invert(pivot)), pivot


def _gram_by_nullspace(A: Matrix, Astar: Matrix) -> tuple:
    """(G, G^-1) with G spanning the null space of the stacked constraints.

    The rows for P are built from P.nums = P.den P, since scaling a block of
    rows leaves the null space unchanged; G is read off the integer form of a
    null vector, as `_one_form` normalizes away any scalar factor."""
    f = A.field
    n = A.nrows
    rows = []
    for P in (A, Astar):
        for i in range(n):
            for j in range(n):
                # coefficient of g_{ab} in (P^T G - G P)_{ij}
                row = [0] * (n * n)
                for k in range(n):
                    row[k * n + j] += P.nums[k][i]
                    row[i * n + k] -= P.nums[k][j]
                rows.append(row)
    basis = Matrix.from_ints(f, rows).nullspace()
    G, _ = _one_form(f, [Matrix.from_ints(f, (v.nums[0][i * n:(i + 1) * n] for i in range(n))) for v in basis])
    return G, G.inverse()  # raises SingularMatrix if degenerate


# --- the aggregated Sections 3..6 identity suite ---


def standard_identity_suite(sys: LeonardSystem) -> VerificationReport:
    """Axioms plus every general-system identity used by the acceptance gate."""
    report = verify_axioms(sys)
    f, d = sys.field, sys.d
    try:
        extracted = extract_parameter_array(sys)
    except (DegenerateSplit, SingularMatrix) as exc:
        report.add("round_trip_parameter_array", False, {"error": str(exc)})
        return report
    pa = sys.parameter_array
    report.add("round_trip_parameter_array", extracted == pa)

    # edge idempotents as normalized tau/eta evaluations
    taus, etas, taus_s, etas_s = (sys.root_family(kind, star) for star in (False, True) for kind in ("tau", "eta"))
    tau_d, eta_d, taus_d, etas_d = edge_values(pa)
    report.add("edge_idempotent_E0", etas[d].scale(f.invert(eta_d)) == sys.E[0])
    report.add("edge_idempotent_Ed", taus[d].scale(f.invert(tau_d)) == sys.E[d])
    report.add("edge_idempotent_E0star", etas_s[d].scale(f.invert(etas_d)) == sys.Estar[0])
    report.add("edge_idempotent_Edstar", taus_s[d].scale(f.invert(taus_d)) == sys.Estar[d])

    # vanishing characteristic products: (A - theta_d I) tau_d(A), (A* - theta*_d I) tau*_d(A*)
    report.add("char_product_A", root_product_family(sys.A, sys.theta[d:], taus[d])[-1].is_zero())
    report.add("char_product_Astar", root_product_family(sys.Astar, sys.theta_star[d:], taus_s[d])[-1].is_zero())

    # three bases of <A> and <A*>
    powers, powers_s = (root_product_family(M, [f.zero()] * d) for M in (sys.A, sys.Astar))
    for label, fams in (
        ("subalgebra_three_bases_A", (sys.E, taus, etas, powers)),
        ("subalgebra_three_bases_Astar", (sys.Estar, taus_s, etas_s, powers_s)),
    ):
        ranks = [flat_rank(fam) for fam in fams]
        union_rank = flat_rank([M for fam in fams for M in fam])
        ok = all(r == d + 1 for r in ranks) and union_rank == d + 1
        report.add(label, ok, None if ok else {"ranks": ranks, "union": union_rank})

    # trace scalars, nu and the sandwich identities: a rank-one E has
    # E X E = tr(E X) E, so nu E_0 E*_0 E_0 = E_0 reads nu tr(E_0 E*_0) = 1
    one = f.one()
    nu, nu_down, nu_ddown, nu_dd = nu_scalars(pa)
    traces = trace_products(sys, 0)[:2] + trace_products(sys, d)[:2]  # tr E_0 E*_0, E_0 E*_d, E_d E*_0, E_d E*_d
    def sandwich(star):
        _factors(sys, star)  # E_0 (resp. E*_0) = w u^T, else DegenerateSplit
        return nu * traces[0] == one, None

    for name, star in (("nu_sandwich_E0", False), ("nu_sandwich_E0star", True)):
        _add_factored(report, name, lambda: sandwich(star))

    report.add_first_failure("trace_products_closed_form", (
        {"r": r} for r in range(d + 1)
        if (direct := trace_products(sys, r)) != trace_products_closed_form(pa, r) or not all(direct)))

    names = ("nu", "nu_down", "nu_ddown", "nu_down_ddown")
    values = (nu, nu_down, nu_ddown, nu_dd)
    ok = all(t * v == one for t, v in zip(traces, values))
    report.add("nu_closed_forms_match_traces", ok,
               None if ok else {"scalars": dict(zip(names, map(f.encode_scalar, values)))})

    # split projectors: the closed form against the intersection construction.
    # With F_i = p_i q_i^T, F_i F_j = (q_i^T p_j) p_i q_j^T and sum F_i = P Q,
    # so the F_i resolve the identity exactly when Q P = I.
    try:
        F = split_projectors(sys)
        report.add("split_projectors_match_intersection", F == split_projectors_by_intersection(sys))
        PQ = rank_one_factors(F)
        report.add("split_projectors_resolution", PQ is not None and not _off_diagonal(PQ[1] * PQ[0], [one] * (d + 1)))
    except (DegenerateSplit, SingularMatrix) as exc:
        report.add("split_projectors_match_intersection", False, {"error": str(exc)})
        report.add("split_projectors_resolution", False, {"error": str(exc)})

    # pairing of the split polynomials against E*_0 ... E_0: with E*_0 =
    # w*_0 u*_0^T and E_0 = w_0 u_0^T both sides are multiples of w*_0 u_0^T,
    # so E*_0 tau_i(A) tau*_j(A*) E_0 = delta_ij c_i E*_0 E_0 reads S = diag(c)
    # (u*_0^T w_0) for S_ij = (u*_0^T tau_i(A)) (tau*_j(A*) w_0)
    def pairing():
        w0, us0 = _factors(sys)[0].column(0), _factors(sys, star=True)[1].row(0)
        left = Matrix.from_columns(f, sys.root_family("tau", False, us0, covector=True)).transpose()
        right = Matrix.from_columns(f, sys.root_family("tau", True, w0))
        scale = us0.dot(w0)
        witness = _off_diagonal(left * right, [c * scale for c in pa.split_products[0]])
        return witness is None, witness

    _add_factored(report, "split_pairing_delta", pairing)

    # the bilinear form and the antiautomorphism it carries
    try:
        G = sys.gram
        report.add("gram_symmetric", G == G.transpose())
        report.add("gram_intertwines_A", sys.A.transpose() * G == G * sys.A)
        report.add("gram_intertwines_Astar", sys.Astar.transpose() * G == G * sys.Astar)
        report.add("dagger_fixes_A", sys.dagger(sys.A) == sys.A)
        report.add("dagger_fixes_Astar", sys.dagger(sys.Astar) == sys.Astar)
        # (w u^T)^dagger = G^-1 u w^T G = (G^-1 u)(G^T w)^T
        Ginv, Gt = sys.gram_inverse, G.transpose()
        _add_factored(report, "dagger_fixes_idempotents", lambda: (all(
            outer(Ginv * U.row(i), Gt * W.column(i)) == mats[i]
            for mats, (W, U) in ((sys.E, _factors(sys)), (sys.Estar, _factors(sys, star=True)))
            for i in range(d + 1)
        ), None))
        probe = sys.A * sys.Astar + sys.Estar[0].scale(f.from_int(3))
        report.add("dagger_involution", sys.dagger(sys.dagger(probe)) == probe)
    except (NonUniqueForm, SingularMatrix) as exc:
        for name in ("gram_symmetric", "gram_intertwines_A", "gram_intertwines_Astar", "dagger_fixes_A",
                     "dagger_fixes_Astar", "dagger_fixes_idempotents", "dagger_involution"):
            report.add(name, False, {"error": str(exc)})

    return report
