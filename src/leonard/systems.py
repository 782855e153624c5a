"""Leonard systems as exact data.

A system is built from a parameter array (theta; theta*; varphi; phi) with
the ambient basis declared to be a split basis, so the defining matrices are
bidiagonal verbatim: A has diagonal theta_0..theta_d and subdiagonal 1,
A* has diagonal theta*_0..theta*_d and superdiagonal varphi_1..varphi_d.
Certification is explicit: ``build_system`` never rejects, ``verify_axioms``
reports, ``certify`` raises NotALeonardPair on any failure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate
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
    eval_root_product,
    intersect_column_spaces,
    is_irreducible_tridiagonal,
    lagrange_idempotent,
    outer,
    rank_one_factors,
    root_product_family,
    trace_of_product,
)
from .report import VerificationReport


def product(field: Field, scalars):
    out = field.one()
    for x in scalars:
        out = out * x
    return out


def poly_at(field: Field, roots, x):
    """Evaluate prod (x - r) over the root list; empty product is 1."""
    out = field.one()
    for r in roots:
        out = out * (x - r)
    return out


def tau_roots(theta, i: int):
    """Roots of tau_i: theta_0, ..., theta_{i-1}."""
    return theta[:i]


def eta_roots(theta, i: int):
    """Roots of eta_i: theta_d, theta_{d-1}, ..., theta_{d-i+1}."""
    return theta[len(theta) - i:]


def edge_values(pa: ParameterArray):
    """(tau_d(theta_d), eta_d(theta_0), tau*_d(theta*_d), eta*_d(theta*_0))."""
    f, d, th, ths = pa.field, pa.d, pa.theta, pa.theta_star
    return (
        poly_at(f, tau_roots(th, d), th[d]),
        poly_at(f, eta_roots(th, d), th[0]),
        poly_at(f, tau_roots(ths, d), ths[d]),
        poly_at(f, eta_roots(ths, d), ths[0]),
    )


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
        object.__setattr__(self, "theta", tuple(self.theta))
        object.__setattr__(self, "theta_star", tuple(self.theta_star))
        object.__setattr__(self, "varphi", tuple(self.varphi))
        object.__setattr__(self, "phi", tuple(self.phi))
        if self.d < 0:
            raise ValueError("diameter must be >= 0")
        if len(self.theta) != self.d + 1 or len(self.theta_star) != self.d + 1:
            raise ValueError("eigenvalue sequences must have length d+1")
        if len(self.varphi) != self.d or len(self.phi) != self.d:
            raise ValueError("split sequences must have length d")
        for name, seq in (("theta", self.theta), ("theta_star", self.theta_star)):
            if len(set(seq)) != len(seq):
                raise ValueError(f"{name} entries must be mutually distinct")
        for name, seq in (("varphi", self.varphi), ("phi", self.phi)):
            if not all(seq):
                raise ValueError(f"{name} entries must be nonzero")
        for seq in (self.theta, self.theta_star, self.varphi, self.phi):
            for x in seq:
                if not self.field.contains(x):
                    raise ValueError("entry does not lie in the stated field")

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

    def tau(self, star: bool = False) -> tuple:
        """(tau_0, ..., tau_d) at A (resp. tau*_i at A*); tau_i has roots theta_0..theta_{i-1}."""
        return self._root_family("tau", star)

    def eta(self, star: bool = False) -> tuple:
        """(eta_0, ..., eta_d) at A (resp. eta*_i at A*); eta_i has roots theta_d..theta_{d-i+1}."""
        return self._root_family("eta", star)

    def _root_family(self, kind: str, star: bool) -> tuple:
        M, theta = (self.Astar, self.theta_star) if star else (self.A, self.theta)
        roots = theta[:-1] if kind == "tau" else theta[:0:-1]
        return self.cached((kind, star), lambda: tuple(root_product_family(M, roots)))

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
    """{"i", "j"} of the first entry (row-major) where M differs from the diagonal matrix diag, else None."""
    zero = M.field.zero()
    return next(({"i": i, "j": j} for i, row in enumerate(M.rows) for j, x in enumerate(row)
                 if x != (diag[i] if i == j else zero)), None)


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


def complete_parameter_array(field: Field, theta, theta_star, varphi) -> ParameterArray:
    """The unique parameter array with first split sequence varphi, by PA1-PA5.

    Terwilliger's closed-form classification (LAA 330, 2001; any field), in
    O(d) scalar steps and independent of the matrix route in ``certify``:
    PA4 fixes phi, then PA2, PA3 and PA5 are checked.  Raises NotALeonardPair
    naming the failed condition and index; ParameterArray checks PA1.
    """
    pa = ParameterArray(field, len(theta) - 1, theta, theta_star, varphi, varphi)  # phi: placeholder
    d, th, ths = pa.d, pa.theta, pa.theta_star
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
    ratio = lambda t, i: (t[i - 2] - t[i + 1]) / (t[i - 1] - t[i])
    for i in range(2, d):
        if not ratio(th, i) == ratio(ths, i) == ratio(th, 2):
            raise NotALeonardPair(f"PA5 fails at i={i}: the theta, theta* recurrences differ")
    return replace(pa, phi=phi)


def _split_basis_columns(sys: LeonardSystem, theta_order) -> Matrix:
    v = sys.eigencolumn(0, star=True)
    u, cols = v, [v]
    for th in theta_order[:-1]:
        u = sys.A * u - u.scale(th)
        if u.is_zero():
            raise DegenerateSplit("split basis vector vanished")
        cols.append(u)
    return Matrix.from_columns(sys.field, cols)


def _superdiagonal_in_split_basis(sys: LeonardSystem, theta_order):
    U = _split_basis_columns(sys, theta_order)
    try:
        rep = U.inverse() * sys.Astar * U
    except SingularMatrix as exc:
        raise DegenerateSplit("split vectors are linearly dependent") from exc
    return tuple(rep[i - 1][i] for i in range(1, sys.d + 1))


def extract_parameter_array(sys: LeonardSystem) -> ParameterArray:
    """Recover (theta; theta*; varphi; phi) from the matrices alone.

    theta_i is read off as tr(A E_i) (the idempotents have trace 1), varphi
    from the representation of A* in a split basis, and phi from the split
    basis of the relative with the eigenvalue ordering reversed.  Raises
    DegenerateSplit when what is read back is not a parameter array.
    """
    theta = tuple(trace_of_product(sys.A, Ei) for Ei in sys.E)
    theta_star = tuple(trace_of_product(sys.Astar, Ei) for Ei in sys.Estar)
    varphi = _superdiagonal_in_split_basis(sys, theta)
    phi = _superdiagonal_in_split_basis(sys, tuple(reversed(theta)))
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
    f = pa.field
    tau_d, eta_d, taus_d, etas_d = edge_values(pa)
    vp = product(f, pa.varphi)
    ph = product(f, pa.phi)
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
    """The four trace scalars as ratios of split-sequence products."""
    if not 0 <= r <= pa.d:
        raise IndexError(f"r = {r} outside 0..{pa.d}")
    f, d = pa.field, pa.d
    th, ths, vp, ph = pa.theta, pa.theta_star, pa.varphi, pa.phi
    tau_r = poly_at(f, tau_roots(th, r), th[r])
    eta_dr = poly_at(f, th[r + 1:], th[r])  # eta_{d-r} at theta_r
    taus_r = poly_at(f, tau_roots(ths, r), ths[r])
    etas_dr = poly_at(f, ths[r + 1:], ths[r])
    tau_d, eta_d, taus_d, etas_d = edge_values(pa)
    return (
        product(f, vp[:r]) * product(f, ph[: d - r]) / (etas_d * tau_r * eta_dr),
        product(f, ph[d - r:]) * product(f, vp[r:]) / (taus_d * tau_r * eta_dr),
        product(f, vp[:r]) * product(f, ph[r:]) / (eta_d * taus_r * etas_dr),
        product(f, ph[:r]) * product(f, vp[r:]) / (tau_d * taus_r * etas_dr),
    )


# --- split decomposition projectors ---


def split_projectors(sys: LeonardSystem) -> list:
    """F_i = nu tau_i(A) E*_0 E_0 tau*_i(A*) / c_i, c_i = varphi_1 ... varphi_i,
    built as p_i q_i^T: with E*_0 = w*_0 u*_0^T and E_0 = w_0 u_0^T,
    p_i = tau_i(A) w*_0 and q_i^T = nu (u*_0^T w_0) u_0^T tau*_i(A*) / c_i."""
    f, pa = sys.field, sys.parameter_array
    (W, U), (Ws, Us) = _factors(sys), _factors(sys, star=True)
    scale, u0 = nu_scalars(pa)[0] * Vector(f, Us[0]).dot(W.column(0)), Matrix(f, U.rows[:1])
    return [outer(t * Ws.column(0), Vector(f, (u0 * ts)[0]).scale(scale / c))
            for t, ts, c in zip(sys.tau(), sys.tau(star=True), accumulate(pa.varphi, mul, initial=f.one()))]


def eigenspace_span(sys: LeonardSystem, indices, star: bool = False) -> Matrix:
    """Matrix whose columns span the sum of the listed eigenspaces: columns of eigenbasis(star)[0]."""
    return Matrix.from_columns(sys.field, [sys.eigencolumn(i, star=star) for i in indices])


def split_subspace(sys: LeonardSystem, i: int) -> Matrix:
    """U_i = (E*_0 V + ... + E*_i V) ∩ (E_i V + ... + E_d V), as columns."""
    lower = eigenspace_span(sys, range(i + 1), star=True)
    upper = eigenspace_span(sys, range(i, sys.d + 1), star=False)
    return intersect_column_spaces(lower, upper)


def split_projectors_by_intersection(sys: LeonardSystem) -> list:
    """Independent construction of the split projectors from the subspaces."""
    f = sys.field
    spans = [split_subspace(sys, i) for i in range(sys.d + 1)]
    if any(S.ncols != 1 for S in spans):
        raise DegenerateSplit("split component is not one-dimensional")
    C = Matrix.from_columns(f, [S.column(0) for S in spans])
    Cinv = C.inverse()
    # C e_i e_i^T C^-1: column i of C times row i of C^-1
    return [outer(C.column(i), Vector(f, Cinv[i])) for i in range(sys.d + 1)]


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
    scale_rows = lambda c, M: Matrix(f, ((x * y for y in row) for x, row in zip(c, M.rows)))
    if _off_diagonal(U * W, [f.one()] * n) or _off_diagonal(U * sys.A * W, theta):
        return None
    B, zero = U * sys.Astar * W, f.zero()
    rows = [[B[i][j] if k == i else -B[j][i] if k == j else zero for k in range(n)]
            for i in range(n) for j in range(i + 1, n)]
    ms = Matrix(f, rows or [[zero] * n]).nullspace()
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
    pivot = next((x for x in forms[0][0] if x), None)
    if pivot is None:
        raise NonUniqueForm("gram candidate has a zero first row")
    return forms[0].scale(f.invert(pivot)), pivot


def _gram_by_nullspace(A: Matrix, Astar: Matrix) -> tuple:
    """(G, G^-1) with G spanning the null space of the stacked constraints."""
    f = A.field
    n = A.nrows
    rows = []
    for P in (A, Astar):
        for i in range(n):
            for j in range(n):
                # coefficient of g_{ab} in (P^T G - G P)_{ij}
                row = [f.zero()] * (n * n)
                for k in range(n):
                    row[k * n + j] = row[k * n + j] + P[k][i]
                    row[i * n + k] = row[i * n + k] - P[k][j]
                rows.append(row)
    basis = Matrix(f, rows).nullspace()
    G, _ = _one_form(f, [Matrix(f, (v.entries[i * n:(i + 1) * n] for i in range(n))) for v in basis])
    return G, G.inverse()  # raises SingularMatrix if degenerate


# --- the aggregated Sections 3..6 identity suite ---


def _matrix_family_rank(field: Field, mats) -> int:
    return Matrix(field, (tuple(x for row in M.rows for x in row) for M in mats)).rank()


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
    taus, etas, taus_s, etas_s = sys.tau(), sys.eta(), sys.tau(star=True), sys.eta(star=True)
    tau_d, eta_d, taus_d, etas_d = edge_values(pa)
    report.add("edge_idempotent_E0", etas[d].scale(f.invert(eta_d)) == sys.E[0])
    report.add("edge_idempotent_Ed", taus[d].scale(f.invert(tau_d)) == sys.E[d])
    report.add("edge_idempotent_E0star", etas_s[d].scale(f.invert(etas_d)) == sys.Estar[0])
    report.add("edge_idempotent_Edstar", taus_s[d].scale(f.invert(taus_d)) == sys.Estar[d])

    # vanishing characteristic products
    report.add("char_product_A", eval_root_product(pa.theta, sys.A).is_zero())
    report.add("char_product_Astar", eval_root_product(pa.theta_star, sys.Astar).is_zero())

    # three bases of <A> and <A*>
    powers, powers_s = (root_product_family(M, [f.zero()] * d) for M in (sys.A, sys.Astar))
    for label, fams in (
        ("subalgebra_three_bases_A", (sys.E, taus, etas, powers)),
        ("subalgebra_three_bases_Astar", (sys.Estar, taus_s, etas_s, powers_s)),
    ):
        ranks = [_matrix_family_rank(f, fam) for fam in fams]
        union_rank = _matrix_family_rank(f, [M for fam in fams for M in fam])
        ok = all(r == d + 1 for r in ranks) and union_rank == d + 1
        report.add(label, ok, None if ok else {"ranks": ranks, "union": union_rank})

    # trace scalars, nu and the sandwich identities: a rank-one E has
    # E X E = tr(E X) E, so nu E_0 E*_0 E_0 = E_0 reads nu tr(E_0 E*_0) = 1
    one = f.one()
    nu, nu_down, nu_ddown, nu_dd = nu_scalars(pa)
    traces = trace_products(sys, 0)[:2] + trace_products(sys, d)[:2]  # tr E_0 E*_0, E_0 E*_d, E_d E*_0, E_d E*_d
    for name, star in (("nu_sandwich_E0", False), ("nu_sandwich_E0star", True)):  # needs E_0 (E*_0) = w u^T
        _add_factored(report, name, lambda: (_factors(sys, star) is not None and nu * traces[0] == one, None))

    ok, witness = True, None
    for r in range(d + 1):
        direct = trace_products(sys, r)
        if direct != trace_products_closed_form(pa, r) or not all(direct):
            ok, witness = False, {"r": r}
            break
    report.add("trace_products_closed_form", ok, witness)

    names = ("nu", "nu_down", "nu_ddown", "nu_down_ddown")
    values = (nu, nu_down, nu_ddown, nu_dd)
    ok = all(t * v == one for t, v in zip(traces, values))
    report.add(
        "nu_closed_forms_match_traces",
        ok,
        None if ok else {"scalars": dict(zip(names, map(str, values)))},
    )

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
        (W, U), (_, Us) = _factors(sys), _factors(sys, star=True)
        us0, w0 = Matrix(f, Us.rows[:1]), W.column(0)
        left = Matrix(f, ((us0 * t)[0] for t in taus))
        right = Matrix.from_columns(f, (t * w0 for t in taus_s))
        scale = Vector(f, Us[0]).dot(w0)
        witness = _off_diagonal(left * right, [c * scale for c in accumulate(pa.varphi, mul, initial=f.one())])
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
            outer(Ginv * Vector(f, U[i]), Gt * W.column(i)) == mats[i]
            for mats, (W, U) in ((sys.E, _factors(sys)), (sys.Estar, _factors(sys, star=True)))
            for i in range(d + 1)
        ), None))
        probe = sys.A * sys.Astar + sys.Estar[0].scale(f.from_int(3))
        report.add("dagger_involution", sys.dagger(sys.dagger(probe)) == probe)
    except (NonUniqueForm, SingularMatrix) as exc:
        for name in (
            "gram_symmetric",
            "gram_intertwines_A",
            "gram_intertwines_Astar",
            "dagger_fixes_A",
            "dagger_fixes_Astar",
            "dagger_fixes_idempotents",
            "dagger_involution",
        ):
            report.add(name, False, {"error": str(exc)})

    return report
