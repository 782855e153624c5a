"""The self-dual machinery: the operator T and everything it acts on.

T is defined for any Leonard system by the idempotent-weighted sum
T = sum_i eta_{d-i}(A) E*_0 E_d tau*_i(A*).  When theta = theta* the system
is self-dual and conjugation by T swaps the starred and unstarred halves;
the suites below machine-check every identity involved, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DegenerateSplit,
    InconsistentArray,
    SingularBasis,
    SingularMatrix,
    UnknownBasis,
    ZeroInnerProduct,
)
from .linalg import (
    Matrix,
    Vector,
    bidiagonal,
    flag_decomposition,
    outer,
    rank_one_factors,
)
from .report import VerificationReport
from .systems import (
    LeonardSystem,
    ParameterArray,
    _factors,
    edge_values,
    nu_scalars,
)


def is_self_dual(pa: ParameterArray) -> bool:
    """theta_i = theta*_i for all i; when true the second split sequence
    must be palindromic (InconsistentArray otherwise)."""
    if pa.theta != pa.theta_star:
        return False
    if pa.phi != tuple(reversed(pa.phi)):
        raise InconsistentArray(
            "theta = theta* but the second split sequence is not palindromic"
        )
    return True


# --- anchor vectors and their eight inner products ---


@dataclass(frozen=True)
class AnchorVectors:
    """Deterministic eigenvector anchors and their pairwise inner products.

    vv0 = <v0,v0>, vvd = <vd,vd>, ss0 = <v*0,v*0>, ssd = <v*d,v*d>,
    x00 = <v0,v*0>, x0d = <v0,v*d>, xd0 = <vd,v*0>, xdd = <vd,v*d>.
    """

    v0: Vector
    vd: Vector
    v0s: Vector
    vds: Vector
    vv0: object
    vvd: object
    ss0: object
    ssd: object
    x00: object
    x0d: object
    xd0: object
    xdd: object

    def scalars(self) -> dict:
        return {
            "v0.v0": self.vv0,
            "vd.vd": self.vvd,
            "v0s.v0s": self.ss0,
            "vds.vds": self.ssd,
            "v0.v0s": self.x00,
            "v0.vds": self.x0d,
            "vd.v0s": self.xd0,
            "vd.vds": self.xdd,
        }


def anchors_from_vectors(sys: LeonardSystem, v0, vd, v0s, vds) -> AnchorVectors:
    pair = sys.pair
    values = dict(
        vv0=pair(v0, v0),
        vvd=pair(vd, vd),
        ss0=pair(v0s, v0s),
        ssd=pair(vds, vds),
        x00=pair(v0, v0s),
        x0d=pair(v0, vds),
        xd0=pair(vd, v0s),
        xdd=pair(vd, vds),
    )
    for key, value in values.items():
        if not value:
            raise ZeroInnerProduct(f"anchor inner product {key} vanished")
    return AnchorVectors(v0, vd, v0s, vds, **values)


def choose_anchor_vectors(sys: LeonardSystem) -> AnchorVectors:
    """Anchors from the idempotent columns, first nonzero coordinate = 1."""
    v0 = sys.eigencolumn(0).normalized()
    vd = sys.eigencolumn(sys.d).normalized()
    v0s = sys.eigencolumn(0, star=True).normalized()
    vds = sys.eigencolumn(sys.d, star=True).normalized()
    return anchors_from_vectors(sys, v0, vd, v0s, vds)


# --- the operator T and its bundle ---


@dataclass(frozen=True)
class DualityBundle:
    """T together with lambda (T^2 = lambda I) and the four anchor scalars."""

    t: Matrix
    lam: object
    alpha: object
    beta: object
    alpha_star: object
    beta_star: object

    def to_json(self, field) -> dict:
        enc = field.encode_scalar
        return {
            "T": self.t.to_json(),
            "lambda": enc(self.lam),
            "alpha": enc(self.alpha),
            "beta": enc(self.beta),
            "alpha_star": enc(self.alpha_star),
            "beta_star": enc(self.beta_star),
        }


def _through(sys: LeonardSystem, x: tuple, y: tuple) -> tuple:
    """(w, c, u) with E_x E_y = c w u^T, for x and y each (star, i) naming E_i or E*_i:
    with E_x = w u_x^T and E_y = w_y u^T, c = u_x^T w_y.  ValueError when c = 0 (E_x E_y is not of rank one),
    DegenerateSplit when a family does not factor."""
    (W, U), (Wy, Uy) = _factors(sys, x[0]), _factors(sys, y[0])
    if not (c := U.row(x[1]).dot(Wy.column(y[1]))):
        raise ValueError("the middle factor is not of rank one")
    return W.column(x[1]), c, Uy.row(y[1])


def _outer_sum(c, cols, rows) -> Matrix:
    """c sum_i cols[i] rows[i]^T as one product: a sum sum_i L_i w u^T R_i is that of the
    columns L_i w and the rows u^T R_i, built by `LeonardSystem.root_family` on w and u."""
    f = cols[0].field
    return (Matrix.from_columns(f, cols) * Matrix.from_columns(f, rows).transpose()).scale(c)


def duality_operator(sys: LeonardSystem) -> Matrix:
    """T = sum_i eta_{d-i}(A) E*_0 E_d tau*_i(A*)."""
    w, c, u = _through(sys, (True, 0), (False, sys.d))
    return _outer_sum(c, sys.root_family("eta", False, w)[::-1], sys.root_family("tau", True, u, covector=True))


def duality_operator_polynomial_form(sys: LeonardSystem) -> Matrix:
    """T as a polynomial in A and A*: the edge idempotents E*_0 E_d expanded into the
    dense core eta*_d(A*) tau_d(A), which is factored as w u^T (`rank_one_factors`)."""
    tau_d, _, _, etas_d = edge_values(sys.parameter_array)
    found = rank_one_factors([sys.root_family("eta", True)[sys.d] * sys.root_family("tau")[sys.d]])
    if found is None:
        raise ValueError("the middle factor is not of rank one")
    return _outer_sum(sys.field.invert(tau_d * etas_d), sys.root_family("eta", False, found[0].column(0))[::-1],
                      sys.root_family("tau", True, found[1].row(0), covector=True))


def dual_duality_operator(sys: LeonardSystem) -> Matrix:
    """T* = sum_i eta*_{d-i}(A*) E_0 E*_d tau_i(A)."""
    w, c, u = _through(sys, (False, 0), (True, sys.d))
    return _outer_sum(c, sys.root_family("eta", True, w)[::-1], sys.root_family("tau", False, u, covector=True))


def build_duality_bundle(sys: LeonardSystem, anchors: AnchorVectors | None = None) -> DualityBundle:
    """T with lambda = (nu_ddown)^-2 phi_1...phi_d and the anchor scalars.

    T itself exists for every Leonard system; the bundle invariants
    (T^2 = lambda I and the anchor equations) hold in the self-dual case.
    """
    pa = sys.parameter_array
    f = sys.field
    if anchors is None:
        anchors = choose_anchor_vectors(sys)
    t = duality_operator(sys)
    nu_ddown = nu_scalars(pa)[2]
    inv_nu_ddown = f.invert(nu_ddown)
    vp, ph = pa.split_products[0][pa.d], pa.split_products[2][pa.d]
    lam = inv_nu_ddown * inv_nu_ddown * ph
    tau_d, eta_d, _, _ = edge_values(pa)
    alpha = vp / tau_d * anchors.x00 / anchors.ss0
    beta = vp / eta_d * anchors.xdd / anchors.ssd
    alpha_star = vp / tau_d * anchors.x00 / anchors.vv0
    beta_star = vp / eta_d * anchors.xdd / anchors.vvd
    return DualityBundle(t, lam, alpha, beta, alpha_star, beta_star)


def verify_duality_suite(sys: LeonardSystem, bundle: DualityBundle) -> VerificationReport:
    """Every stated identity for T; the self-dual-only ones fail honestly
    when theta differs from theta* (that failure is the negative control)."""
    report = VerificationReport()
    f, d = sys.field, sys.d
    pa = sys.parameter_array
    t = bundle.t
    t_star = dual_duality_operator(sys)
    t_dag = sys.dagger(t)
    t_star_dag = sys.dagger(t_star)

    report.add("T_polynomial_form", t == duality_operator_polynomial_form(sys))

    # displayed adjoint sums: sum_i tau*_i(A*) E_d E*_0 eta_{d-i}(A), and its dual with the stars swapped
    for name, lhs, s in (("T_dagger_displayed_sum", t_dag, True), ("T_star_dagger_displayed_sum", t_star_dag, False)):
        w, c, u = _through(sys, (not s, d), (s, 0))
        report.add(name, lhs == _outer_sum(c, sys.root_family("tau", s, w),
                                           sys.root_family("eta", not s, u, covector=True)[::-1]))

    report.add("T_equals_T_star", t == t_star)
    report.add("T_equals_T_dagger", t == t_dag)
    report.add("T_equals_T_star_dagger", t == t_star_dag)

    t_squared = t * t
    report.add("T_squared_equals_lambda_identity", t_squared == Matrix.identity(f, d + 1).scale(bundle.lam))
    report.add("A_T_equals_T_Astar", sys.A * t == t * sys.Astar)
    report.add("Astar_T_equals_T_A", sys.Astar * t == t * sys.A)

    # with E_i = w_i u_i^T: E_i T = w_i (T^T u_i)^T and T E*_i = (T w*_i) u*_i^T
    factors, t_tr = (sys.eigenbasis(), sys.eigenbasis(star=True)), t.transpose()
    for name, star in (("Ei_T_equals_T_Estar_i", False), ("Estar_i_T_equals_T_Ei", True)):
        (W, U), (Wr, Ur) = factors[star], factors[not star]
        report.add_first_failure(name, ({"i": i} for i in range(d + 1)
                                        if outer(W.column(i), t_tr * U.row(i)) != outer(t * Wr.column(i), Ur.row(i))))

    # the eight product formulas with their displayed coefficients
    vp_head, _, ph_head, ph_tail = pa.split_products
    vp, ph = vp_head[d], ph_head[d]
    tau_d, eta_d, taus_d, etas_d = edge_values(pa)
    E0, Es0 = sys.E[0], sys.Estar[0]
    c1 = eta_d * vp / (tau_d * etas_d)
    c2 = etas_d * vp / (taus_d * eta_d)
    report.add("product_T_E0star", t * Es0 == (E0 * Es0).scale(c1))
    report.add("product_Tstar_E0", t_star * E0 == (Es0 * E0).scale(c2))
    report.add("product_E0star_Tdagger", Es0 * t_dag == (Es0 * E0).scale(c1))
    report.add("product_E0_Tstardagger", E0 * t_star_dag == (E0 * Es0).scale(c2))
    report.add("product_T_E0", t * E0 == (Es0 * E0).scale(vp / tau_d))
    report.add("product_Tstar_E0star", t_star * Es0 == (E0 * Es0).scale(vp / taus_d))
    report.add("product_E0_Tdagger", E0 * t_dag == (E0 * Es0).scale(vp / tau_d))
    report.add("product_E0star_Tstardagger", Es0 * t_star_dag == (Es0 * E0).scale(vp / taus_d))

    # T^2 expanded: (phi_1...phi_d / nu_ddown) sum_j eta_j(A) E*_0 E_d tau*_j(A*) / (phi_d...phi_{d-j+1})
    w, c, u = _through(sys, (True, 0), (False, d))
    weighted = [r.scale(f.invert(ph_tail[j])) for j, r in enumerate(sys.root_family("tau", True, u, covector=True))]
    acc = _outer_sum(c * f.invert(nu_scalars(pa)[2]) * ph, sys.root_family("eta", False, w), weighted)
    report.add("T_squared_expansion", t_squared == acc)
    return report


# --- flags and decompositions ---

OMEGA = ("0", "D", "0*", "D*")


@dataclass(frozen=True)
class Flag:
    """Nested subspaces of dimensions 1..d+1 as one ordered basis: component
    i is spanned by the first i+1 columns of basis."""

    label: str
    basis: Matrix

    @cached_property
    def inverse(self) -> Matrix | None:
        """basis^-1, computed on first use; None when basis is singular."""
        try:
            return self.basis.inverse()
        except SingularMatrix:
            return None

    @property
    def components(self) -> tuple:
        return tuple(self.basis.submatrix(cols=slice(0, i)) for i in range(1, self.basis.nrows + 1))

    def to_json(self) -> dict:
        rows = self.basis.to_json()  # component i is the first i+1 entries of every row
        return {"label": self.label, "components": [[row[:i] for row in rows] for i in range(1, len(rows) + 1)]}


def build_flag(sys: LeonardSystem, z: str) -> Flag:
    """The flag [z], memoised on the system."""
    if z not in OMEGA:
        raise ValueError(f"flag symbol must be one of {OMEGA}")
    return sys.cached(("flag", z), lambda: _flag(sys, z))


def _flag(sys: LeonardSystem, z: str) -> Flag:
    star = z.endswith("*")
    order = range(sys.d, -1, -1) if z.startswith("D") else range(sys.d + 1)
    return Flag(z, Matrix.from_columns(sys.field, [sys.eigencolumn(i, star=star) for i in order]))


def _coordinates(inverse: Matrix | None, X: Matrix) -> Matrix:
    """inverse * X, X in the basis with that inverse; SingularMatrix when it is None."""
    if inverse is None:
        raise SingularMatrix("matrix has zero determinant")
    return inverse * X


def spans_components(F: Flag, X: Matrix) -> list:
    """For each i, whether the first i+1 columns of X span component i of F.

    In F's coordinates Y = F^-1 X: the first i+1 columns of Y vanish below
    row i and have rank i+1, the number of pivot columns <= i of Y."""
    Y = _coordinates(F.inverse, X)
    pivots, n = Y.rref()[1], Y.nrows
    return [not any(Y.nums[r][c] for r in range(i + 1, n) for c in range(i + 1))
            and sum(p <= i for p in pivots) == i + 1 for i in range(n)]


@dataclass(frozen=True)
class Decomposition:
    """d+1 one-dimensional components, one normalized spanning vector each."""

    z: str
    w: str
    vectors: tuple

    @property
    def label(self) -> str:
        return f"[{self.z}{self.w}]"

    def inversion_vectors(self):
        return tuple(reversed(self.vectors))

    def to_json(self) -> dict:
        return {"label": self.label, "vectors": [v.to_json() for v in self.vectors]}


def build_decomposition(sys: LeonardSystem, z: str, w: str) -> Decomposition:
    """The decomposition induced by the ordered flag pair ([z], [w]), memoised on the system."""
    if z == w:
        raise ValueError("decomposition symbols must differ")
    return sys.cached(("decomposition", z, w), lambda: _decomposition(sys, z, w))


def _decomposition(sys: LeonardSystem, z: str, w: str) -> Decomposition:
    F = build_flag(sys, z)
    vectors = None if F.inverse is None else flag_decomposition(F.inverse, build_flag(sys, w).basis)
    if vectors is None:
        raise DegenerateSplit(f"the flags [{z}] and [{w}] of [{z}{w}] are not opposite")
    return Decomposition(z, w, tuple(v.normalized() for v in vectors))


DECOMPOSITION_PAIRS = tuple((z, w) for z in OMEGA for w in OMEGA if z != w)

T_FLAG_IMAGE = {"0": "0*", "0*": "0", "D": "D*", "D*": "D"}

# T maps [zw] to [T(z) T(w)]; T_on_decompositions sweeps the six displayed pairs, then their swaps.
_T_DISPLAYED = (("0*", "D"), ("D*", "D"), ("0*", "0"), ("D*", "0"), ("0", "D"), ("0*", "D*"))
T_DECOMPOSITION_ORDER = _T_DISPLAYED + tuple((w, z) for z, w in _T_DISPLAYED)


def _colinear(u: Vector, v: Vector) -> bool:
    if u.is_zero() or v.is_zero():
        return False
    return u.normalized() == v.normalized()


def verify_geometry_suite(
    sys: LeonardSystem, bundle: DualityBundle | None = None
) -> VerificationReport:
    """Flag/decomposition structure plus, when a bundle is given, T's action."""
    report = VerificationReport()
    f, d = sys.field, sys.d
    flags = {z: build_flag(sys, z) for z in OMEGA}

    # a dependent prefix of the basis makes every longer one dependent: the last failure is at i = d
    report.add_last_failure("flag_component_dimensions", (
        {"flag": z, "i": d} for z, F in flags.items() if F.inverse is None))

    # DECOMPOSITION_PAIRS is every ordered pair of distinct flags; each builds iff the two are opposite
    decomps, witness = {}, None
    for z, w in DECOMPOSITION_PAIRS:
        try:
            decomps[(z, w)] = build_decomposition(sys, z, w)
        except DegenerateSplit as exc:
            witness = {"pair": f"[{z}{w}]", "error": str(exc)}
    report.add("flags_mutually_opposite", witness is None)
    report.add("decomposition_components_one_dimensional", witness is None, witness)
    if witness is not None:
        return report

    report.add_last_failure("decomposition_inversion_pairs", (
        {"pair": f"[{z}{w}]"} for (z, w), dec in decomps.items()
        if decomps[(w, z)].vectors != dec.inversion_vectors()))

    spans = {(z, w): {u: spans_components(flags[u], Matrix.from_columns(f, vectors))
                      for u, vectors in ((z, dec.vectors), (w, dec.inversion_vectors()))}
             for (z, w), dec in decomps.items()}
    report.add_last_failure("decompositions_induce_flags", (
        {"pair": f"[{z}{w}]", "flag": u, "i": i}
        for (z, w), by_flag in spans.items() for i in range(d + 1) for u in (z, w) if not by_flag[u][i]))

    # rows 0, 1 and split: component i of [0D], [0*D*] and [0*D] spans E_iV, E*_iV and the split
    # line U_i, which is tau_i(A) E*_0 V (Terwilliger, LAA 330, 2001)
    splits = sys.root_family("tau", False, sys.eigencolumn(0, star=True))
    report.add_last_failure("decomposition_table_rows", (
        {"i": i, "row": row} for i in range(d + 1) for row, ok in (
            (0, _colinear(decomps[("0", "D")].vectors[i], sys.eigencolumn(i))),
            (1, _colinear(decomps[("0*", "D*")].vectors[i], sys.eigencolumn(i, star=True))),
            ("split", _colinear(decomps[("0*", "D")].vectors[i], splits[i])),
        ) if not ok))

    if bundle is None:
        return report
    t = bundle.t

    report.add_last_failure("T_maps_eigenspaces", (
        {"i": i, "side": side} for i in range(d + 1) for side, star in (("E", False), ("Estar", True))
        if not _colinear(t * sys.eigencolumn(i, star), sys.eigencolumn(i, not star))))
    report.add_last_failure("T_on_flags", (
        {"flag": z, "i": i} for z, image in T_FLAG_IMAGE.items()
        for i, spans in enumerate(spans_components(flags[image], t * flags[z].basis)) if not spans))
    report.add_last_failure("T_on_decompositions", (
        {"pair": f"[{z}{w}]", "i": i} for z, w in T_DECOMPOSITION_ORDER for i in range(d + 1)
        if not _colinear(t * decomps[(z, w)].vectors[i], decomps[(T_FLAG_IMAGE[z], T_FLAG_IMAGE[w])].vectors[i])))
    return report


# --- the 24 bases ---

BASIS_IDS = (
    "tau-vstar0", "tau-vstard", "eta-vstar0", "eta-vstard",
    "taustar-rev-v0", "taustar-rev-vd", "etastar-rev-v0", "etastar-rev-vd",
    "taustar-v0", "taustar-vd", "etastar-v0", "etastar-vd",
    "tau-rev-vstar0", "tau-rev-vstard", "eta-rev-vstar0", "eta-rev-vstard",
    "e-vstar0", "e-vstard", "e-rev-vstar0", "e-rev-vstard",
    "estar-v0", "estar-vd", "estar-rev-v0", "estar-rev-vd",
)

FOUR_BASES = ("etastar-v0", "eta-vstar0", "taustar-vd", "tau-vstard")

_ANCHOR_ATTR = {"v0": "v0", "vd": "vd", "vstar0": "v0s", "vstard": "vds"}


def _parse_basis_id(basis_id: str):
    parts = basis_id.split("-")
    if len(parts) == 3 and parts[1] == "rev":
        gen, rev, anchor = parts[0], True, parts[2]
    elif len(parts) == 2:
        gen, rev, anchor = parts[0], False, parts[1]
    else:
        raise UnknownBasis(basis_id)
    if gen not in ("tau", "eta", "taustar", "etastar", "e", "estar") or anchor not in _ANCHOR_ATTR:
        raise UnknownBasis(basis_id)
    return gen, rev, anchor


def _forward_basis(sys: LeonardSystem, anchors: AnchorVectors, basis_id: str):
    """The memoised (vectors, Flag) of the forward sequence behind basis_id,
    and whether basis_id is its reversal."""
    gen, rev, anchor_key = _parse_basis_id(basis_id)
    v = getattr(anchors, _ANCHOR_ATTR[anchor_key])
    return sys.cached(("basis", gen, v), lambda: _basis_sequence(sys, gen, v)), rev


def build_basis(sys: LeonardSystem, anchors: AnchorVectors, basis_id: str):
    """One of the 24 sequences, as a tuple of d+1 vectors.  Each forward
    sequence is built once per system and memoised; a -rev- id is its reversal."""
    (seq, _), rev = _forward_basis(sys, anchors, basis_id)
    return seq[::-1] if rev else seq


def basis_inverse(sys: LeonardSystem, anchors: AnchorVectors, basis_id: str):
    """The inverse of the matrix with columns build_basis(...), None when singular:
    each forward matrix is inverted once (`Flag.inverse`), and a -rev- matrix has
    its columns reversed, so its inverse has the forward inverse's rows reversed."""
    (_, flag), rev = _forward_basis(sys, anchors, basis_id)
    inv = flag.inverse
    return inv.submatrix(slice(None, None, -1)) if rev and inv is not None else inv


def _basis_sequence(sys: LeonardSystem, gen: str, v: Vector) -> tuple:
    """(vectors, the Flag of their matrix): E_i v or E*_i v, else the tau/eta
    family gen on v (`LeonardSystem.root_family`)."""
    star = gen.endswith("star")
    if gen in ("e", "estar"):
        seq = tuple(E * v for E in (sys.Estar if star else sys.E))
    else:
        seq = sys.root_family(gen.removesuffix("star"), star, v)
    return seq, Flag(gen, Matrix.from_columns(sys.field, seq))


def build_24_bases(sys: LeonardSystem, anchors: AnchorVectors) -> dict:
    """All 24 sequences keyed by identifier, each certified invertible."""
    for basis_id in BASIS_IDS:
        if basis_inverse(sys, anchors, basis_id) is None:
            raise SingularBasis(f"{basis_id} is not a basis")
    return {basis_id: build_basis(sys, anchors, basis_id) for basis_id in BASIS_IDS}

# Each decomposition with the two basis families spanning its components.
BASIS_MEMBERSHIP = {
    ("0*", "D"): ("tau-vstar0", "etastar-rev-vd"),
    ("D*", "D"): ("tau-vstard", "taustar-rev-vd"),
    ("0*", "0"): ("eta-vstar0", "etastar-rev-v0"),
    ("D*", "0"): ("eta-vstard", "taustar-rev-v0"),
    ("D", "0*"): ("etastar-vd", "tau-rev-vstar0"),
    ("D", "D*"): ("taustar-vd", "tau-rev-vstard"),
    ("0", "0*"): ("etastar-v0", "eta-rev-vstar0"),
    ("0", "D*"): ("taustar-v0", "eta-rev-vstard"),
    ("0", "D"): ("e-vstar0", "e-vstard"),
    ("0*", "D*"): ("estar-v0", "estar-vd"),
    ("D", "0"): ("e-rev-vstar0", "e-rev-vstard"),
    ("D*", "0*"): ("estar-rev-v0", "estar-rev-vd"),
}


def verify_basis_family(sys: LeonardSystem, anchors: AnchorVectors) -> VerificationReport:
    """Invertibility, component membership and the inversion pairing of the 24 bases."""
    report = VerificationReport()
    d = sys.d
    family = {basis_id: build_basis(sys, anchors, basis_id) for basis_id in BASIS_IDS}

    report.add_last_failure("bases_invertible", (
        {"basis": basis_id} for basis_id in BASIS_IDS if basis_inverse(sys, anchors, basis_id) is None))

    decomps = {(z, w): build_decomposition(sys, z, w) for z, w in BASIS_MEMBERSHIP}
    report.add_last_failure("bases_span_decomposition_components", (
        {"pair": f"[{z}{w}]", "basis": basis_id, "i": i} for (z, w), ids in BASIS_MEMBERSHIP.items()
        for basis_id in ids for i in range(d + 1) if not _colinear(family[basis_id][i], decomps[(z, w)].vectors[i])))

    partner = lambda gen, rev, anchor: f"{gen}-{anchor}" if rev else f"{gen}-rev-{anchor}"
    report.add_last_failure("bases_inversion_pairing", (
        {"basis": basis_id} for basis_id, seq in family.items()
        if seq[::-1] != family[partner(*_parse_basis_id(basis_id))]))
    return report


# --- anchor relations (projections and ratio identities) ---


def verify_anchor_relations(sys: LeonardSystem, anchors: AnchorVectors) -> VerificationReport:
    report = VerificationReport()
    d = sys.d
    pa = sys.parameter_array
    a = anchors
    E0, Ed, Es0, Esd = sys.E[0], sys.E[d], sys.Estar[0], sys.Estar[d]

    projections = (
        (E0 * a.v0s, a.v0.scale(a.x00 / a.vv0)),
        (Ed * a.v0s, a.vd.scale(a.xd0 / a.vvd)),
        (E0 * a.vds, a.v0.scale(a.x0d / a.vv0)),
        (Ed * a.vds, a.vd.scale(a.xdd / a.vvd)),
        (Es0 * a.v0, a.v0s.scale(a.x00 / a.ss0)),
        (Esd * a.v0, a.vds.scale(a.x0d / a.ssd)),
        (Es0 * a.vd, a.v0s.scale(a.xd0 / a.ss0)),
        (Esd * a.vd, a.vds.scale(a.xdd / a.ssd)),
    )
    report.add_first_failure("anchor_projections", (
        {"projection": k} for k, (lhs, rhs) in enumerate(projections) if lhs != rhs))

    vp, ph = pa.split_products[0][d], pa.split_products[2][d]
    report.add(
        "anchor_ratio_product",
        a.x0d * a.xd0 / (a.x00 * a.xdd) == vp / ph,
    )

    tau_d, eta_d, taus_d, etas_d = edge_values(pa)
    squares = (
        (a.vv0 * a.ss0 / (a.x00 * a.x00), eta_d * etas_d / ph),
        (a.vv0 * a.ssd / (a.x0d * a.x0d), eta_d * taus_d / vp),
        (a.vvd * a.ss0 / (a.xd0 * a.xd0), tau_d * etas_d / vp),
        (a.vvd * a.ssd / (a.xdd * a.xdd), tau_d * taus_d / ph),
    )
    enc = sys.field.encode_scalar
    report.add_first_failure("anchor_ratio_squares", (
        {"identity": k, "lhs": enc(lhs), "rhs": enc(rhs)} for k, (lhs, rhs) in enumerate(squares) if lhs != rhs))
    return report


# --- transition relations among the 24 bases ---


def verify_transition_relations(sys: LeonardSystem, anchors: AnchorVectors) -> VerificationReport:
    """The twelve displayed change-of-family equations, swept over all i.

    These hold for every Leonard system; self-duality is not assumed.
    """
    report = VerificationReport()
    d = sys.d
    pa = sys.parameter_array
    a = anchors
    family = {basis_id: build_basis(sys, anchors, basis_id) for basis_id in BASIS_IDS}
    vp_head, vp_tail, ph_head, ph_tail = pa.split_products
    tau_d, eta_d, taus_d, etas_d = edge_values(pa)

    relations = (
        ("taustar_rev_v0_vs_eta_vstard", "taustar-rev-v0", "eta-vstard",
         lambda i: taus_d / vp_tail[i] * (a.x0d / a.ssd)),
        ("etastar_rev_v0_vs_eta_vstar0", "etastar-rev-v0", "eta-vstar0",
         lambda i: etas_d / ph_head[i] * (a.x00 / a.ss0)),
        ("taustar_rev_vd_vs_tau_vstard", "taustar-rev-vd", "tau-vstard",
         lambda i: taus_d / ph_tail[i] * (a.xdd / a.ssd)),
        ("etastar_rev_vd_vs_tau_vstar0", "etastar-rev-vd", "tau-vstar0",
         lambda i: etas_d / vp_head[i] * (a.xd0 / a.ss0)),
        ("tau_rev_vstar0_vs_etastar_vd", "tau-rev-vstar0", "etastar-vd",
         lambda i: tau_d / vp_tail[i] * (a.xd0 / a.vvd)),
        ("eta_rev_vstar0_vs_etastar_v0", "eta-rev-vstar0", "etastar-v0",
         lambda i: eta_d / ph_tail[i] * (a.x00 / a.vv0)),
        ("tau_rev_vstard_vs_taustar_vd", "tau-rev-vstard", "taustar-vd",
         lambda i: tau_d / ph_head[i] * (a.xdd / a.vvd)),
        ("eta_rev_vstard_vs_taustar_v0", "eta-rev-vstard", "taustar-v0",
         lambda i: eta_d / vp_head[i] * (a.x0d / a.vv0)),
        ("estar_vd_vs_estar_v0", "estar-vd", "estar-v0",
         lambda i: ph_head[i] / vp_head[i] * (a.xd0 / a.x00)),
        ("estar_rev_vd_vs_estar_rev_v0", "estar-rev-vd", "estar-rev-v0",
         lambda i: vp_tail[i] / ph_tail[i] * (a.xdd / a.x0d)),
        ("e_vstard_vs_e_vstar0", "e-vstard", "e-vstar0",
         lambda i: ph_tail[i] / vp_head[i] * (a.x0d / a.x00)),
        ("e_rev_vstard_vs_e_rev_vstar0", "e-rev-vstard", "e-rev-vstar0",
         lambda i: vp_tail[i] / ph_head[i] * (a.xdd / a.xd0)),
    )
    for name, lhs_id, rhs_id, coeff in relations:
        report.add_first_failure(name, (
            {"i": i} for i in range(d + 1) if family[lhs_id][i] != family[rhs_id][i].scale(coeff(i))))
    return report


# --- the action of T on the 24 bases and its matrix ---

# (source family, image family, bundle scalar attribute)
T_BASIS_ACTION = (
    ("estar-v0", "e-vstar0", "alpha"),
    ("taustar-v0", "tau-vstar0", "alpha"),
    ("etastar-v0", "eta-vstar0", "alpha"),
    ("estar-vd", "e-vstard", "beta"),
    ("taustar-vd", "tau-vstard", "beta"),
    ("etastar-vd", "eta-vstard", "beta"),
    ("e-vstar0", "estar-v0", "alpha_star"),
    ("tau-vstar0", "taustar-v0", "alpha_star"),
    ("eta-vstar0", "etastar-v0", "alpha_star"),
    ("e-vstard", "estar-vd", "beta_star"),
    ("tau-vstard", "taustar-vd", "beta_star"),
    ("eta-vstard", "etastar-vd", "beta_star"),
)


def verify_T_on_bases(
    sys: LeonardSystem, bundle: DualityBundle, anchors: AnchorVectors
) -> VerificationReport:
    """T on the anchors (with alpha..beta*) and on all twelve basis families."""
    report = VerificationReport()
    t = bundle.t
    a = anchors
    anchor_eqs = (
        (t * a.v0, a.v0s.scale(bundle.alpha)),
        (t * a.vd, a.vds.scale(bundle.beta)),
        (t * a.v0s, a.v0.scale(bundle.alpha_star)),
        (t * a.vds, a.vd.scale(bundle.beta_star)),
    )
    report.add_first_failure("T_on_anchor_vectors", (
        {"equation": k} for k, (lhs, rhs) in enumerate(anchor_eqs) if lhs != rhs))

    family = {basis_id: build_basis(sys, anchors, basis_id) for basis_id in BASIS_IDS}
    for src, dst, scalar_name in T_BASIS_ACTION:
        c = getattr(bundle, scalar_name)
        report.add_first_failure(f"T_on_family_{src.replace('-', '_')}", (
            {"i": i} for i in range(sys.d + 1) if t * family[src][i] != family[dst][i].scale(c)))

    report.add(
        "T_squared_on_v0",
        t * (t * a.v0) == a.v0.scale(bundle.lam)
        and bundle.alpha * bundle.alpha_star == bundle.lam,
    )
    return report


def expected_matrix_of_T(pa: ParameterArray) -> Matrix:
    """The antidiagonal closed form: entry (d-i, i) is phi_1...phi_i times
    varphi_1...varphi_d / (tau_d(theta_d) eta_d(theta_0))."""
    f, d = pa.field, pa.d
    tau_d, eta_d, _, _ = edge_values(pa)
    vp_head, _, ph_head, _ = pa.split_products
    c = vp_head[d] / (tau_d * eta_d)
    return Matrix(f, [[c * ph_head[j] if i + j == d else f.zero() for j in range(d + 1)] for i in range(d + 1)])


def basis_representations(sys: LeonardSystem, bundle: DualityBundle, basis_id: str,
                          anchors: AnchorVectors) -> tuple:
    """The matrices B^-1 T B, B^-1 A B and B^-1 A* B of T, A and A* in the
    basis basis_id (columns of B), with the memoised B^-1 (`basis_inverse`)."""
    B = Matrix.from_columns(sys.field, build_basis(sys, anchors, basis_id))
    inv = basis_inverse(sys, anchors, basis_id)
    return tuple(_coordinates(inv, M * B) for M in (bundle.t, sys.A, sys.Astar))


def matrix_of_T(sys: LeonardSystem, bundle: DualityBundle, basis_id: str,
                anchors: AnchorVectors | None = None) -> Matrix:
    """The matrix representing T with respect to one of the four bases."""
    if basis_id not in FOUR_BASES:
        raise UnknownBasis(f"{basis_id!r} is not one of {FOUR_BASES}")
    if anchors is None:
        anchors = choose_anchor_vectors(sys)
    return basis_representations(sys, bundle, basis_id, anchors)[0]


def expected_pair_shapes(pa: ParameterArray, basis_id: str):
    """The displayed bidiagonal shapes of A and A* in the four bases."""
    f = pa.field
    th, ths, ph = pa.theta, pa.theta_star, pa.phi
    th_rev, ths_rev, ph_rev = th[::-1], ths[::-1], ph[::-1]
    if basis_id == "etastar-v0":
        return bidiagonal(f, th, ph_rev), bidiagonal(f, ths_rev)
    if basis_id == "eta-vstar0":
        return bidiagonal(f, th_rev), bidiagonal(f, ths, ph)
    if basis_id == "taustar-vd":
        return bidiagonal(f, th_rev, ph), bidiagonal(f, ths)
    if basis_id == "tau-vstard":
        return bidiagonal(f, th), bidiagonal(f, ths_rev, ph_rev)
    raise UnknownBasis(basis_id)


def verify_matrix_of_T(
    sys: LeonardSystem, bundle: DualityBundle, anchors: AnchorVectors | None = None
) -> VerificationReport:
    """The closed antidiagonal form, its basis independence and the A/A* shapes."""
    report = VerificationReport()
    pa = sys.parameter_array
    if anchors is None:
        anchors = choose_anchor_vectors(sys)
    reps = {basis_id: basis_representations(sys, bundle, basis_id, anchors) for basis_id in FOUR_BASES}
    wanted = {basis_id: (expected_matrix_of_T(pa),) + expected_pair_shapes(pa, basis_id) for basis_id in FOUR_BASES}

    def add(name, k):  # k: 0 for T, 1 for A, 2 for A*; the witness is the last failing basis
        report.add_last_failure(name, ({"basis": b} for b in FOUR_BASES if reps[b][k] != wanted[b][k]))

    add("matrix_of_T_closed_form", 0)
    first = reps[FOUR_BASES[0]][0]
    report.add(
        "matrix_of_T_basis_independent",
        all(rep[0] == first for rep in reps.values()),
    )
    add("A_representations_in_four_bases", 1)
    add("Astar_representations_in_four_bases", 2)
    return report
