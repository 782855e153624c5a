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
    root_product_family,
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

    def eigencolumn(self, i: int, star: bool = False) -> Vector:
        """First nonzero column of E_i (resp. E*_i), a theta_i-eigenvector."""
        M = (self.Estar if star else self.E)[i]
        for j in range(M.ncols):
            col = M.column(j)
            if not col.is_zero():
                return col
        raise DegenerateSplit(f"idempotent {i} is zero")


def build_system(pa: ParameterArray) -> LeonardSystem:
    return LeonardSystem.from_parameter_array(pa)


def _idempotent_checks(report, label, mats, M, theta):
    field = M.field
    d = M.nrows - 1
    ok = True
    witness = None
    for i in range(d + 1):
        for j in range(d + 1):
            expected = mats[i] if i == j else Matrix.zeros(field, d + 1)
            if mats[i] * mats[j] != expected:
                ok, witness = False, {"i": i, "j": j}
                break
        if not ok:
            break
    report.add(f"idempotents_{label}_orthogonal", ok, witness)

    total = Matrix.zeros(field, d + 1)
    for Ei in mats:
        total = total + Ei
    report.add(f"idempotents_{label}_sum", total == Matrix.identity(field, d + 1))

    spectral = Matrix.zeros(field, d + 1)
    for th, Ei in zip(theta, mats):
        spectral = spectral + Ei.scale(th)
    report.add(f"idempotents_{label}_spectral", spectral == M)

    ranks = [Ei.rank() for Ei in mats]
    report.add(
        f"idempotents_{label}_rank_one",
        all(r == 1 for r in ranks),
        None if all(r == 1 for r in ranks) else {"ranks": ranks},
    )


def verify_axioms(sys: LeonardSystem) -> VerificationReport:
    """Check the defining axioms; failures are report entries, never exceptions."""
    report = VerificationReport()

    for name, star, target in (
        ("tridiagonal_Astar_in_A_eigenbasis", False, sys.Astar),
        ("tridiagonal_A_in_Astar_eigenbasis", True, sys.A),
    ):
        try:
            W = eigenspace_span(sys, range(sys.d + 1), star=star)
            rep = W.inverse() * target * W
            report.add(name, is_irreducible_tridiagonal(rep), None)
        except (SingularMatrix, DegenerateSplit) as exc:
            report.add(name, False, {"error": str(exc)})

    report.add(
        "standard_orderings",
        report["tridiagonal_Astar_in_A_eigenbasis"].passed
        and report["tridiagonal_A_in_Astar_eigenbasis"].passed,
    )

    _idempotent_checks(report, "E", sys.E, sys.A, sys.theta)
    _idempotent_checks(report, "Estar", sys.Estar, sys.Astar, sys.theta_star)
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
    basis of the relative with the eigenvalue ordering reversed.
    """
    theta = tuple((sys.A * Ei).trace() for Ei in sys.E)
    theta_star = tuple((sys.Astar * Ei).trace() for Ei in sys.Estar)
    varphi = _superdiagonal_in_split_basis(sys, theta)
    phi = _superdiagonal_in_split_basis(sys, tuple(reversed(theta)))
    return ParameterArray(sys.field, sys.d, theta, theta_star, varphi, phi)


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
    d = sys.d
    return (
        (sys.E[r] * sys.Estar[0]).trace(),
        (sys.E[r] * sys.Estar[d]).trace(),
        (sys.Estar[r] * sys.E[0]).trace(),
        (sys.Estar[r] * sys.E[d]).trace(),
    )


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
    """F_i = nu tau_i(A) E*_0 E_0 tau*_i(A*) / (varphi_1 ... varphi_i)."""
    pa = sys.parameter_array
    nu = nu_scalars(pa)[0]
    middle = sys.Estar[0] * sys.E[0]
    out = []
    denom = sys.field.one()
    for i, (left, right) in enumerate(zip(sys.tau(), sys.tau(star=True))):
        if i > 0:
            denom = denom * pa.varphi[i - 1]
        out.append((left * middle * right).scale(nu / denom))
    return out


def eigenspace_span(sys: LeonardSystem, indices, star: bool = False) -> Matrix:
    """Matrix whose columns span the sum of the listed eigenspaces."""
    return Matrix.from_columns(
        sys.field, [sys.eigencolumn(i, star=star) for i in indices]
    )


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
    out = []
    zero, one = f.zero(), f.one()
    for i in range(sys.d + 1):
        D = Matrix(f, ((one if (r == c == i) else zero for c in range(sys.d + 1)) for r in range(sys.d + 1)))
        out.append(C * D * Cinv)
    return out


# --- the bilinear form ---


def solve_gram(sys: LeonardSystem) -> tuple:
    """(G, G^-1) for the symmetric invertible G with A^T G = G A and A*^T G = G A*.

    The solution space must be 1-dimensional (NonUniqueForm otherwise); G is
    normalized so the first nonzero entry of row 0 equals 1.  Closed form: read
    E_i = w_i u_i^T off the idempotents (W of columns w_i, U of rows u_i^T);
    then G = U^T diag(m) U and G^-1 = W diag(m)^-1 W^T with m_0 = 1 and
    m_{i+1} = m_i B[i][i+1] / B[i+1][i] for B = U A* W.  It applies when theta
    is distinct, U W = I, U A W = diag(theta) and B is irreducible tridiagonal,
    which prove the solution space 1-dimensional; otherwise G spans the null
    space of the stacked intertwining constraints.
    """
    closed = _gram_in_eigenbasis(sys)
    return closed if closed is not None else _gram_by_nullspace(sys.A, sys.Astar)


def _gram_in_eigenbasis(sys: LeonardSystem):
    """The closed form of solve_gram, or None when one of its checks fails."""
    f, n, theta = sys.field, sys.d + 1, sys.theta
    if not len(sys.E) == len(theta) == len(set(theta)) == n:
        return None
    scale_rows = lambda c, M: Matrix(f, ((x * y for y in row) for x, row in zip(c, M.rows)))
    cols, rows = [], []
    for E in sys.E:  # w_i: the first nonzero column; u_i^T: a row through it, scaled
        k, j = next(((k, j) for k, row in enumerate(E.rows) for j, x in enumerate(row) if x), (0, 0))
        if not E[k][j]:
            return None
        cols.append(E.column(j))
        rows.append(tuple(x / E[k][j] for x in E[k]))
    W, U, ident = Matrix.from_columns(f, cols), Matrix(f, rows), Matrix.identity(f, n)
    B = U * sys.Astar * W
    if U * W != ident or U * sys.A * W != scale_rows(theta, ident) or not is_irreducible_tridiagonal(B):
        return None
    m = [f.one()]
    for i in range(n - 1):
        m.append(m[i] * B[i][i + 1] / B[i + 1][i])
    G = U.transpose() * scale_rows(m, U)
    pivot = next(x for x in G[0] if x)
    return G.scale(f.invert(pivot)), W * scale_rows([pivot / x for x in m], W.transpose())


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
    if len(basis) != 1:
        raise NonUniqueForm(f"intertwiner space has dimension {len(basis)}")
    entries = basis[0].entries
    G = Matrix(f, (entries[i * n:(i + 1) * n] for i in range(n)))
    pivot = next((x for x in G[0] if x), None)
    if pivot is None:
        raise NonUniqueForm("gram candidate has a zero first row")
    G = G.scale(f.invert(pivot))
    return G, G.inverse()  # raises SingularMatrix if degenerate


# --- the aggregated Sections 3..6 identity suite ---


def _matrix_family_rank(field: Field, mats) -> int:
    return Matrix(field, (tuple(x for row in M.rows for x in row) for M in mats)).rank()


def standard_identity_suite(sys: LeonardSystem) -> VerificationReport:
    """Axioms plus every general-system identity used by the acceptance gate."""
    report = verify_axioms(sys)
    f, d = sys.field, sys.d
    ident = Matrix.identity(f, d + 1)
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
    powers = [ident]
    powers_s = [ident]
    for _ in range(d):
        powers.append(powers[-1] * sys.A)
        powers_s.append(powers_s[-1] * sys.Astar)
    for label, fams in (
        ("subalgebra_three_bases_A", (sys.E, taus, etas, powers)),
        ("subalgebra_three_bases_Astar", (sys.Estar, taus_s, etas_s, powers_s)),
    ):
        ranks = [_matrix_family_rank(f, fam) for fam in fams]
        union_rank = _matrix_family_rank(f, [M for fam in fams for M in fam])
        ok = all(r == d + 1 for r in ranks) and union_rank == d + 1
        report.add(label, ok, None if ok else {"ranks": ranks, "union": union_rank})

    # trace scalars, nu and the sandwich identities
    nu, nu_down, nu_ddown, nu_dd = nu_scalars(pa)
    report.add("nu_sandwich_E0", (sys.E[0] * sys.Estar[0] * sys.E[0]).scale(nu) == sys.E[0])
    report.add("nu_sandwich_E0star", (sys.Estar[0] * sys.E[0] * sys.Estar[0]).scale(nu) == sys.Estar[0])

    ok, witness = True, None
    for r in range(d + 1):
        direct = trace_products(sys, r)
        if direct != trace_products_closed_form(pa, r) or not all(direct):
            ok, witness = False, {"r": r}
            break
    report.add("trace_products_closed_form", ok, witness)

    one = f.one()
    traces = (
        (sys.E[0] * sys.Estar[0]).trace(),
        (sys.E[0] * sys.Estar[d]).trace(),
        (sys.E[d] * sys.Estar[0]).trace(),
        (sys.E[d] * sys.Estar[d]).trace(),
    )
    names = ("nu", "nu_down", "nu_ddown", "nu_down_ddown")
    values = (nu, nu_down, nu_ddown, nu_dd)
    ok = all(t * v == one for t, v in zip(traces, values))
    report.add(
        "nu_closed_forms_match_traces",
        ok,
        None if ok else {"scalars": dict(zip(names, map(str, values)))},
    )

    # split projectors: the closed form against the intersection construction
    try:
        F = split_projectors(sys)
        F_oracle = split_projectors_by_intersection(sys)
        report.add("split_projectors_match_intersection", F == F_oracle)
        total = Matrix.zeros(f, d + 1)
        ok = True
        for i in range(d + 1):
            total = total + F[i]
            for j in range(d + 1):
                expected = F[i] if i == j else Matrix.zeros(f, d + 1)
                if F[i] * F[j] != expected:
                    ok = False
        report.add("split_projectors_resolution", ok and total == ident)
    except (DegenerateSplit, SingularMatrix) as exc:
        report.add("split_projectors_match_intersection", False, {"error": str(exc)})
        report.add("split_projectors_resolution", False, {"error": str(exc)})

    # pairing of the split polynomials against E*_0 ... E_0
    Es0, E0 = sys.Estar[0], sys.E[0]
    ok, witness = True, None
    prefix = f.one()
    coeffs = []
    for i in range(d + 1):
        coeffs.append(prefix)
        if i < d:
            prefix = prefix * pa.varphi[i]
    for i in range(d + 1):
        for j in range(d + 1):
            lhs = Es0 * taus[i] * taus_s[j] * E0
            rhs = (Es0 * E0).scale(coeffs[i]) if i == j else Matrix.zeros(f, d + 1)
            if lhs != rhs:
                ok, witness = False, {"i": i, "j": j}
                break
        if not ok:
            break
    report.add("split_pairing_delta", ok, witness)

    # the bilinear form and the antiautomorphism it carries
    try:
        G = sys.gram
        report.add("gram_symmetric", G == G.transpose())
        report.add("gram_intertwines_A", sys.A.transpose() * G == G * sys.A)
        report.add("gram_intertwines_Astar", sys.Astar.transpose() * G == G * sys.Astar)
        report.add("dagger_fixes_A", sys.dagger(sys.A) == sys.A)
        report.add("dagger_fixes_Astar", sys.dagger(sys.Astar) == sys.Astar)
        ok = all(sys.dagger(Ei) == Ei for Ei in sys.E) and all(
            sys.dagger(Ei) == Ei for Ei in sys.Estar
        )
        report.add("dagger_fixes_idempotents", ok)
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
