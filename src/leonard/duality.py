"""The self-dual machinery: the operator T and everything it acts on.

T is defined for any Leonard system by the idempotent-weighted sum
T = sum_i eta_{d-i}(A) E*_0 E_d tau*_i(A*).  When theta = theta* the system
is self-dual and conjugation by T swaps the starred and unstarred halves;
the suites below machine-check every identity involved, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegenerateSplit,
    InconsistentArray,
    NotSelfDual,
    SingularBasis,
    SingularMatrix,
    UnknownBasis,
    ZeroInnerProduct,
)
from .linalg import (
    Matrix,
    Vector,
    bidiagonal,
    outer,
    rank_one_sum,
)
from .report import VerificationReport
from .systems import (
    LeonardSystem,
    ParameterArray,
    edge_values,
    nu_scalars,
    product,
    split_subspace,
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


def duality_operator(sys: LeonardSystem) -> Matrix:
    """T = sum_i eta_{d-i}(A) E*_0 E_d tau*_i(A*)."""
    return rank_one_sum(sys.eta()[::-1], sys.Estar[0] * sys.E[sys.d], sys.tau(star=True))


def duality_operator_polynomial_form(sys: LeonardSystem) -> Matrix:
    """T as a polynomial in A and A* (the edge idempotents expanded)."""
    d, f = sys.d, sys.field
    etaA, tausAs = sys.eta(), sys.tau(star=True)
    tau_d, _, _, etas_d = edge_values(sys.parameter_array)
    core = sys.eta(star=True)[d] * sys.tau()[d]
    return rank_one_sum(etaA[::-1], core, tausAs).scale(f.invert(tau_d * etas_d))


def dual_duality_operator(sys: LeonardSystem) -> Matrix:
    """T* = sum_i eta*_{d-i}(A*) E_0 E*_d tau_i(A)."""
    return rank_one_sum(sys.eta(star=True)[::-1], sys.E[0] * sys.Estar[sys.d], sys.tau())


def build_duality_bundle(
    sys: LeonardSystem, anchors: AnchorVectors | None = None, require_self_dual: bool = True
) -> DualityBundle:
    """T with lambda = (nu_ddown)^-2 phi_1...phi_d and the anchor scalars.

    T itself exists for every Leonard system; the bundle invariants
    (T^2 = lambda I and the anchor equations) hold in the self-dual case.
    """
    pa = sys.parameter_array
    if require_self_dual and not is_self_dual(pa):
        raise NotSelfDual("theta differs from theta*")
    f = sys.field
    if anchors is None:
        anchors = choose_anchor_vectors(sys)
    t = duality_operator(sys)
    nu_ddown = nu_scalars(pa)[2]
    inv_nu_ddown = f.invert(nu_ddown)
    lam = inv_nu_ddown * inv_nu_ddown * product(f, pa.phi)
    vp = product(f, pa.varphi)
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
    ident = Matrix.identity(f, d + 1)
    t = bundle.t
    t_star = dual_duality_operator(sys)
    t_dag = sys.dagger(t)
    t_star_dag = sys.dagger(t_star)

    report.add("T_polynomial_form", t == duality_operator_polynomial_form(sys))

    # displayed adjoint sums
    etaA, tauA = sys.eta(), sys.tau()
    tausAs, etasAs = sys.tau(star=True), sys.eta(star=True)
    report.add("T_dagger_displayed_sum", t_dag == rank_one_sum(tausAs, sys.E[d] * sys.Estar[0], etaA[::-1]))
    report.add("T_star_dagger_displayed_sum", t_star_dag == rank_one_sum(tauA, sys.Estar[d] * sys.E[0], etasAs[::-1]))

    report.add("T_equals_T_star", t == t_star)
    report.add("T_equals_T_dagger", t == t_dag)
    report.add("T_equals_T_star_dagger", t == t_star_dag)

    report.add("T_squared_equals_lambda_identity", t * t == ident.scale(bundle.lam))
    report.add("A_T_equals_T_Astar", sys.A * t == t * sys.Astar)
    report.add("Astar_T_equals_T_A", sys.Astar * t == t * sys.A)

    # with E_i = w_i u_i^T: E_i T = w_i (T^T u_i)^T and T E*_i = (T w*_i) u*_i^T
    factors, t_tr = (sys.eigenbasis(), sys.eigenbasis(star=True)), t.transpose()
    for name, star in (("Ei_T_equals_T_Estar_i", False), ("Estar_i_T_equals_T_Ei", True)):
        (W, U), (Wr, Ur) = factors[star], factors[not star]
        i = next((i for i in range(d + 1) if outer(W.column(i), t_tr * Vector(f, U[i]))
                  != outer(t * Wr.column(i), Vector(f, Ur[i]))), None)
        report.add(name, i is None, None if i is None else {"i": i})

    # the eight product formulas with their displayed coefficients
    vp = product(f, pa.varphi)
    ph = product(f, pa.phi)
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

    # the general expansion of T^2
    nu_ddown = nu_scalars(pa)[2]
    weighted = [t_j.scale(f.invert(product(f, pa.phi[d - j:]))) for j, t_j in enumerate(tausAs)]
    acc = rank_one_sum(etaA, sys.Estar[0] * sys.E[d], weighted).scale(f.invert(nu_ddown) * ph)
    report.add("T_squared_expansion", t * t == acc)
    return report


# --- flags and decompositions ---

OMEGA = ("0", "D", "0*", "D*")


@dataclass(frozen=True)
class Flag:
    """Nested subspaces of dimensions 1..d+1 as one ordered basis: component
    i is spanned by the first i+1 columns of basis."""

    label: str
    basis: Matrix

    @property
    def components(self) -> tuple:
        f, rows = self.basis.field, self.basis.rows
        return tuple(Matrix(f, (row[:i] for row in rows)) for i in range(1, len(rows) + 1))

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "components": [M.to_json() for M in self.components],
        }


def build_flag(sys: LeonardSystem, z: str) -> Flag:
    """The flag [z], memoised on the system."""
    if z not in OMEGA:
        raise ValueError(f"flag symbol must be one of {OMEGA}")
    return sys.cached(("flag", z), lambda: _flag(sys, z))


def _flag(sys: LeonardSystem, z: str) -> Flag:
    star = z.endswith("*")
    order = range(sys.d, -1, -1) if z.startswith("D") else range(sys.d + 1)
    return Flag(z, Matrix.from_columns(sys.field, [sys.eigencolumn(i, star=star) for i in order]))


def opposite_vectors(F: Flag, G: Flag):
    """x_0..x_d with x_i spanning F_i ∩ G_{d-i} when F and G are opposite, else None.

    They are opposite exactly when C' (C = F^-1 G with its rows reversed) has
    an LU factorisation without pivoting.  The column operations C' V = L (V unit
    upper triangular), done on the columns of G as well, leave x_i = G V[:, d-i]."""
    try:
        C = F.basis.solve(G.basis)
    except SingularMatrix:
        return None
    n = C.nrows
    cols = [Vector(C.field, C.column(j).entries[::-1] + G.basis.column(j).entries) for j in range(n)]
    for k in range(n):
        if not cols[k][k]:
            return None
        for j in range(k + 1, n):
            if cols[j][k]:
                cols[j] = cols[j] - cols[k].scale(cols[j][k] / cols[k][k])
    return tuple(Vector(C.field, cols[n - 1 - i].entries[n:]) for i in range(n))


def flags_opposite(F: Flag, G: Flag) -> bool:
    """F_i ∩ G_{d-i} one-dimensional for all i with direct sum the whole space."""
    return opposite_vectors(F, G) is not None


def spans_components(F: Flag, X: Matrix) -> list:
    """For each i, whether the first i+1 columns of X span component i of F.

    In F's coordinates Y = F^-1 X: the first i+1 columns of Y vanish below
    row i and have rank i+1, the number of pivot columns <= i of Y."""
    Y = F.basis.solve(X)
    pivots, n = Y.rref()[1], Y.nrows
    return [not any(Y[r][c] for r in range(i + 1, n) for c in range(i + 1))
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
    vectors = opposite_vectors(build_flag(sys, z), build_flag(sys, w))
    if vectors is None:
        raise DegenerateSplit(f"the flags [{z}] and [{w}] of [{z}{w}] are not opposite")
    return Decomposition(z, w, tuple(v.normalized() for v in vectors))


DECOMPOSITION_PAIRS = tuple((z, w) for z in OMEGA for w in OMEGA if z != w)

# Images under T: the six displayed rows and the six forced by inversion.
T_DECOMPOSITION_IMAGE = {
    ("0*", "D"): ("0", "D*"),
    ("D*", "D"): ("D", "D*"),
    ("0*", "0"): ("0", "0*"),
    ("D*", "0"): ("D", "0*"),
    ("0", "D"): ("0*", "D*"),
    ("0*", "D*"): ("0", "D"),
    ("D", "0*"): ("D*", "0"),
    ("D", "D*"): ("D*", "D"),
    ("0", "0*"): ("0*", "0"),
    ("0", "D*"): ("0*", "D"),
    ("D", "0"): ("D*", "0*"),
    ("D*", "0*"): ("D", "0"),
}

T_FLAG_IMAGE = {"0": "0*", "0*": "0", "D": "D*", "D*": "D"}


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
    ok, witness = True, None
    for z, F in flags.items():
        if F.basis.rank() != d + 1:
            ok, witness = False, {"flag": z, "i": d}
    report.add("flag_component_dimensions", ok, witness)

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

    ok, witness = True, None
    for (z, w), dec in decomps.items():
        if decomps[(w, z)].vectors != dec.inversion_vectors():
            ok, witness = False, {"pair": f"[{z}{w}]"}
    report.add("decomposition_inversion_pairs", ok, witness)

    ok, witness = True, None
    for (z, w), dec in decomps.items():
        spans = {u: spans_components(flags[u], Matrix.from_columns(f, vectors))
                 for u, vectors in ((z, dec.vectors), (w, dec.inversion_vectors()))}
        for i in range(d + 1):
            for u in (z, w):
                if not spans[u][i]:
                    ok, witness = False, {"pair": f"[{z}{w}]", "flag": u, "i": i}
    report.add("decompositions_induce_flags", ok, witness)

    ok, witness = True, None
    for i in range(d + 1):
        rows = (
            (decomps[("0", "D")].vectors[i], sys.eigencolumn(i)),
            (decomps[("0*", "D*")].vectors[i], sys.eigencolumn(i, star=True)),
            (decomps[("0*", "D")].vectors[i], None),
        )
        for k, (vec, expected) in enumerate(rows):
            if expected is not None:
                if not _colinear(vec, expected):
                    ok, witness = False, {"i": i, "row": k}
            else:
                U = split_subspace(sys, i)
                if U.ncols != 1 or not _colinear(vec, U.column(0)):
                    ok, witness = False, {"i": i, "row": "split"}
    report.add("decomposition_table_rows", ok, witness)

    if bundle is None:
        return report
    t = bundle.t

    ok, witness = True, None
    for i in range(d + 1):
        if not _colinear(t * sys.eigencolumn(i), sys.eigencolumn(i, star=True)):
            ok, witness = False, {"i": i, "side": "E"}
        if not _colinear(t * sys.eigencolumn(i, star=True), sys.eigencolumn(i)):
            ok, witness = False, {"i": i, "side": "Estar"}
    report.add("T_maps_eigenspaces", ok, witness)

    ok, witness = True, None
    for z, image in T_FLAG_IMAGE.items():
        for i, spans in enumerate(spans_components(flags[image], t * flags[z].basis)):
            if not spans:
                ok, witness = False, {"flag": z, "i": i}
    report.add("T_on_flags", ok, witness)

    ok, witness = True, None
    for pair, image in T_DECOMPOSITION_IMAGE.items():
        source, target = decomps[pair], decomps[image]
        for i in range(d + 1):
            if not _colinear(t * source.vectors[i], target.vectors[i]):
                ok, witness = False, {"pair": f"[{pair[0]}{pair[1]}]", "i": i}
    report.add("T_on_decompositions", ok, witness)
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


def build_basis(sys: LeonardSystem, anchors: AnchorVectors, basis_id: str):
    """One of the 24 sequences, as a tuple of d+1 vectors."""
    gen, rev, anchor_key = _parse_basis_id(basis_id)
    v = getattr(anchors, _ANCHOR_ATTR[anchor_key])
    d = sys.d
    if gen in ("e", "estar"):
        mats = sys.E if gen == "e" else sys.Estar
        seq = [mats[i] * v for i in range(d + 1)]
    else:
        M = sys.A if gen in ("tau", "eta") else sys.Astar
        theta = sys.theta if gen in ("tau", "eta") else sys.theta_star
        roots = theta[:d] if gen in ("tau", "taustar") else tuple(reversed(theta))[:d]
        seq = [v]
        for r in roots:
            seq.append(M * seq[-1] - seq[-1].scale(r))
    if rev:
        seq.reverse()
    return tuple(seq)


def build_24_bases(sys: LeonardSystem, anchors: AnchorVectors) -> dict:
    """All 24 sequences keyed by identifier, each certified invertible."""
    family = {}
    for basis_id in BASIS_IDS:
        seq = build_basis(sys, anchors, basis_id)
        try:
            Matrix.from_columns(sys.field, seq).inverse()
        except SingularMatrix as exc:
            raise SingularBasis(f"{basis_id} is not a basis") from exc
        family[basis_id] = seq
    return family

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


def verify_basis_family(sys: LeonardSystem, anchors: AnchorVectors, family: dict) -> VerificationReport:
    """Invertibility, component membership and the inversion pairing."""
    report = VerificationReport()
    f, d = sys.field, sys.d

    ok, witness = True, None
    for basis_id, seq in family.items():
        if Matrix.from_columns(f, seq).rank() != d + 1:
            ok, witness = False, {"basis": basis_id}
    report.add("bases_invertible", ok, witness)

    ok, witness = True, None
    for (z, w), ids in BASIS_MEMBERSHIP.items():
        dec = build_decomposition(sys, z, w)
        for basis_id in ids:
            for i in range(d + 1):
                if not _colinear(family[basis_id][i], dec.vectors[i]):
                    ok, witness = False, {"pair": f"[{z}{w}]", "basis": basis_id, "i": i}
    report.add("bases_span_decomposition_components", ok, witness)

    ok, witness = True, None
    for basis_id, seq in family.items():
        gen, rev, anchor = _parse_basis_id(basis_id)
        partner = f"{gen}-{anchor}" if rev else f"{gen}-rev-{anchor}"
        if tuple(reversed(seq)) != family[partner]:
            ok, witness = False, {"basis": basis_id}
    report.add("bases_inversion_pairing", ok, witness)
    return report


# --- anchor relations (projections and ratio identities) ---


def verify_anchor_relations(sys: LeonardSystem, anchors: AnchorVectors) -> VerificationReport:
    report = VerificationReport()
    f, d = sys.field, sys.d
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
    ok, witness = True, None
    for k, (lhs, rhs) in enumerate(projections):
        if lhs != rhs:
            ok, witness = False, {"projection": k}
            break
    report.add("anchor_projections", ok, witness)

    vp = product(f, pa.varphi)
    ph = product(f, pa.phi)
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
    ok, witness = True, None
    for k, (lhs, rhs) in enumerate(squares):
        if lhs != rhs:
            ok, witness = False, {"identity": k, "lhs": str(lhs), "rhs": str(rhs)}
            break
    report.add("anchor_ratio_squares", ok, witness)
    return report


# --- transition relations among the 24 bases ---


def verify_transition_relations(sys: LeonardSystem, anchors: AnchorVectors) -> VerificationReport:
    """The twelve displayed change-of-family equations, swept over all i.

    These hold for every Leonard system; self-duality is not assumed.
    """
    report = VerificationReport()
    f, d = sys.field, sys.d
    pa = sys.parameter_array
    a = anchors
    family = {basis_id: build_basis(sys, anchors, basis_id) for basis_id in BASIS_IDS}
    vp, ph = pa.varphi, pa.phi
    tau_d, eta_d, taus_d, etas_d = edge_values(pa)

    def vp_head(i):  # varphi_1 ... varphi_i
        return product(f, vp[:i])

    def vp_tail(i):  # varphi_d ... varphi_{d-i+1}
        return product(f, vp[d - i:])

    def ph_head(i):
        return product(f, ph[:i])

    def ph_tail(i):
        return product(f, ph[d - i:])

    relations = (
        ("taustar_rev_v0_vs_eta_vstard", "taustar-rev-v0", "eta-vstard",
         lambda i: taus_d / vp_tail(i) * (a.x0d / a.ssd)),
        ("etastar_rev_v0_vs_eta_vstar0", "etastar-rev-v0", "eta-vstar0",
         lambda i: etas_d / ph_head(i) * (a.x00 / a.ss0)),
        ("taustar_rev_vd_vs_tau_vstard", "taustar-rev-vd", "tau-vstard",
         lambda i: taus_d / ph_tail(i) * (a.xdd / a.ssd)),
        ("etastar_rev_vd_vs_tau_vstar0", "etastar-rev-vd", "tau-vstar0",
         lambda i: etas_d / vp_head(i) * (a.xd0 / a.ss0)),
        ("tau_rev_vstar0_vs_etastar_vd", "tau-rev-vstar0", "etastar-vd",
         lambda i: tau_d / vp_tail(i) * (a.xd0 / a.vvd)),
        ("eta_rev_vstar0_vs_etastar_v0", "eta-rev-vstar0", "etastar-v0",
         lambda i: eta_d / ph_tail(i) * (a.x00 / a.vv0)),
        ("tau_rev_vstard_vs_taustar_vd", "tau-rev-vstard", "taustar-vd",
         lambda i: tau_d / ph_head(i) * (a.xdd / a.vvd)),
        ("eta_rev_vstard_vs_taustar_v0", "eta-rev-vstard", "taustar-v0",
         lambda i: eta_d / vp_head(i) * (a.x0d / a.vv0)),
        ("estar_vd_vs_estar_v0", "estar-vd", "estar-v0",
         lambda i: ph_head(i) / vp_head(i) * (a.xd0 / a.x00)),
        ("estar_rev_vd_vs_estar_rev_v0", "estar-rev-vd", "estar-rev-v0",
         lambda i: vp_tail(i) / ph_tail(i) * (a.xdd / a.x0d)),
        ("e_vstard_vs_e_vstar0", "e-vstard", "e-vstar0",
         lambda i: ph_tail(i) / vp_head(i) * (a.x0d / a.x00)),
        ("e_rev_vstard_vs_e_rev_vstar0", "e-rev-vstard", "e-rev-vstar0",
         lambda i: vp_tail(i) / ph_head(i) * (a.xdd / a.xd0)),
    )
    for name, lhs_id, rhs_id, coeff in relations:
        ok, witness = True, None
        for i in range(d + 1):
            if family[lhs_id][i] != family[rhs_id][i].scale(coeff(i)):
                ok, witness = False, {"i": i}
                break
        report.add(name, ok, witness)
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
    ok, witness = True, None
    for k, (lhs, rhs) in enumerate(anchor_eqs):
        if lhs != rhs:
            ok, witness = False, {"equation": k}
            break
    report.add("T_on_anchor_vectors", ok, witness)

    family = {basis_id: build_basis(sys, anchors, basis_id) for basis_id in BASIS_IDS}
    for src, dst, scalar_name in T_BASIS_ACTION:
        c = getattr(bundle, scalar_name)
        ok, witness = True, None
        for i in range(sys.d + 1):
            if t * family[src][i] != family[dst][i].scale(c):
                ok, witness = False, {"i": i}
                break
        report.add(f"T_on_family_{src.replace('-', '_')}", ok, witness)

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
    coeff = product(f, pa.varphi) / (tau_d * eta_d)
    rows = [[f.zero()] * (d + 1) for _ in range(d + 1)]
    run = f.one()
    for i in range(d + 1):
        rows[d - i][i] = coeff * run
        if i < d:
            run = run * pa.phi[i]
    return Matrix(f, rows)


def basis_representations(sys: LeonardSystem, bundle: DualityBundle, basis_id: str,
                          anchors: AnchorVectors) -> tuple:
    """The matrices of T, A and A* in the basis basis_id: one solve of
    B X = [T B | A B | A* B] for the basis matrix B."""
    f = sys.field
    B = Matrix.from_columns(f, build_basis(sys, anchors, basis_id))
    images = [(M * B).rows for M in (bundle.t, sys.A, sys.Astar)]
    X = B.solve(Matrix(f, (rt + ra + ras for rt, ra, ras in zip(*images))))
    n = B.ncols
    return tuple(Matrix(f, (row[k * n:(k + 1) * n] for row in X.rows)) for k in range(3))


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
        bad = [basis_id for basis_id in FOUR_BASES if reps[basis_id][k] != wanted[basis_id][k]]
        report.add(name, not bad, {"basis": bad[-1]} if bad else None)

    add("matrix_of_T_closed_form", 0)
    first = reps[FOUR_BASES[0]][0]
    report.add(
        "matrix_of_T_basis_independent",
        all(rep[0] == first for rep in reps.values()),
    )
    add("A_representations_in_four_bases", 1)
    add("Astar_representations_in_four_bases", 2)
    return report
