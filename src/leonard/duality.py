"""The self-dual machinery: the operator T and everything it acts on.

T is defined for any Leonard system by the idempotent-weighted sum
T = sum_i eta_{d-i}(A) E*_0 E_d tau*_i(A*).  When theta = theta* the system
is self-dual and conjugation by T swaps the starred and unstarred halves;
the suites below machine-check every identity involved, exactly.  Each check
read off a certificate takes ``systems.certified`` as its one premise and fails
with the first failed axiom where it fails; there is no dense fallback.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import truediv

from .errors import DegenerateSplit, InconsistentArray, SingularBasis, UnknownBasis, ZeroInnerProduct
from .linalg import Matrix, Vector, _gauss_jordan, bidiagonal, root_product_family
from .report import VerificationReport
from .systems import (
    LeonardSystem,
    ParameterArray,
    _gram_weights,
    _outcomes,
    _sized,
    certificate_failure,
    certified,
    change_of_basis,
    d4_apply,
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


# attribute of AnchorVectors -> the two anchors of its inner product, in the order of `scalars` and of the zero check
INNER_PRODUCTS = {"vv0": ("v0", "v0"), "vvd": ("vd", "vd"), "ss0": ("v0s", "v0s"), "ssd": ("vds", "vds"),
                  "x00": ("v0", "v0s"), "x0d": ("v0", "vds"), "xd0": ("vd", "v0s"), "xdd": ("vd", "vds")}


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
        """The eight inner products keyed "a.b" by their anchors (INNER_PRODUCTS)."""
        return {f"{a}.{b}": getattr(self, key) for key, (a, b) in INNER_PRODUCTS.items()}


def anchors_from_vectors(sys: LeonardSystem, v0, vd, v0s, vds) -> AnchorVectors:
    """The anchors with their inner products (INNER_PRODUCTS, `LeonardSystem.pair`, which maps each distinct anchor
    by U once); ZeroInnerProduct naming the first that vanishes."""
    vectors = dict(v0=v0, vd=vd, v0s=v0s, vds=vds)
    values = {key: sys.pair(vectors[a], vectors[b]) for key, (a, b) in INNER_PRODUCTS.items()}
    for key, value in values.items():
        if not value:
            raise ZeroInnerProduct(f"anchor inner product {key} vanished")
    return AnchorVectors(**vectors, **values)


def choose_anchor_vectors(sys: LeonardSystem) -> AnchorVectors:
    """Anchors from the idempotent columns, first nonzero coordinate = 1 (`_eigen_anchor`); the DegenerateSplit of
    `systems._sized` when E or E* is not d+1 idempotents."""
    _sized(sys, False), _sized(sys, True)
    return anchors_from_vectors(sys, *(_eigen_anchor(sys, key) for key in _ANCHOR_ATTR))


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
    DegenerateSplit when a family does not factor or is not d+1 idempotents (`systems._sized`)."""
    _sized(sys, x[0]), _sized(sys, y[0])
    (W, U), (Wy, Uy) = sys.eigenbasis(x[0]), sys.eigenbasis(y[0])
    if not (c := U.row(x[1]).dot(Wy.column(y[1]))):
        raise ValueError("the middle factor is not of rank one")
    return W.column(x[1]), c, Uy.row(y[1])


def _outer_sum(c, cols, rows) -> Matrix:
    """c sum_i cols[i] rows[i]^T as one product: a sum sum_i L_i w u^T R_i is that of the
    columns L_i w and the rows u^T R_i, built by `LeonardSystem.root_family` on w and u."""
    f = cols[0].field
    return (Matrix.from_columns(f, cols) * Matrix.from_columns(f, rows).transpose()).scale(c)


def duality_operator(sys: LeonardSystem, star: bool = False) -> Matrix:
    """T = sum_i eta_{d-i}(A) E*_0 E_d tau*_i(A*), or with star its dual
    T* = sum_i eta*_{d-i}(A*) E_0 E*_d tau_i(A)."""
    w, c, u = _through(sys, (not star, 0), (star, sys.d))
    return _outer_sum(c, sys.root_family("eta", star, w)[::-1], sys.root_family("tau", not star, u, covector=True))


def duality_operator_polynomial_form(sys: LeonardSystem) -> Matrix:
    """T as a polynomial in A and A*: the edge idempotents E*_0 E_d expanded into the core eta*_d(A*) tau_d(A) = w u^T.
    Its premise is `certified` (else DegenerateSplit naming the failed axiom, `certificate_failure`): then
    tau_d(A) = tau_d(theta_d) E_d has rank one (Terwilliger, LAA 330 (2001), Thm 1.9), so for q its first nonzero
    column, k the first nonzero entry of q and r^T row k, tau_d(A) = q r^T / q_k and the core is (eta*_d(A*) q)(r^T /
    q_k): three vector families (`root_product_family`, not memoised, so T* shares none of them)."""
    if failed := certificate_failure(sys):
        raise DegenerateSplit(failed)
    f, roots, d = sys.field, sys.theta[:-1], sys.d
    tau_d, _, _, etas_d = edge_values(sys.parameter_array)
    e = Matrix.identity(f, d + 1)
    q = next(v for v in (root_product_family(sys.A, roots, e.column(j))[-1] for j in range(d + 1))
             if v.first_nonzero_index() is not None)
    k = q.first_nonzero_index()
    w = root_product_family(sys.Astar, sys.theta_star[:0:-1], q)[-1]
    u = root_product_family(sys.A.transpose(), roots, e.column(k))[-1].scale(f.invert(q[k]))
    return _outer_sum(f.invert(tau_d * etas_d), sys.root_family("eta", False, w)[::-1],
                      sys.root_family("tau", True, u, covector=True))


def _displayed_dagger(sys: LeonardSystem, star: bool = False) -> Matrix:
    """The displayed T^dagger = sum_i tau*_i(A*) E_d E*_0 eta_{d-i}(A), or with star T*^dagger, the stars swapped."""
    w, c, u = _through(sys, (star, sys.d), (not star, 0))
    return _outer_sum(c, sys.root_family("tau", not star, w), sys.root_family("eta", star, u, covector=True)[::-1])


def _in_eigenbasis(sys: LeonardSystem) -> LeonardSystem:
    """The system U X W, memoised, once U W = I and U A W = diag(theta): A is diag(theta), A* is B = U A* W, and the
    factors of E and E* are (I, I) and (K, K*) for K = U W* and K* = U* W (`change_of_basis`); its idempotents are
    not formed."""
    def build():
        eye, B = Matrix.identity(sys.field, sys.d + 1), change_of_basis(sys, False, "Astar", False)
        K = change_of_basis(sys, False, None, True), change_of_basis(sys, True, None, False)
        return LeonardSystem.from_eigenbases(eye.scale_columns(sys.theta), B, (eye, eye), K, sys.theta, sys.theta_star)
    return sys.cached("in_eigenbasis", build)


def build_duality_bundle(sys: LeonardSystem, anchors: AnchorVectors | None = None) -> DualityBundle:
    """T with lambda = (nu_ddown)^-2 phi_1...phi_d and the anchor scalars.

    T itself exists for every Leonard system; the bundle invariants
    (T^2 = lambda I and the anchor equations) hold in the self-dual case.
    The anchor scalars are inner products (`LeonardSystem.pair`), so without
    anchors this raises the DegenerateSplit of a failed premise of `solve_gram`.
    """
    pa = sys.parameter_array
    if anchors is None:
        anchors = choose_anchor_vectors(sys)
    t = duality_operator(sys)
    vp, ph = pa.split_products[0][pa.d], pa.split_products[2][pa.d]
    lam = ph / nu_scalars(pa)[2] ** 2
    tau_d, eta_d, _, _ = edge_values(pa)
    alpha = vp / tau_d * anchors.x00 / anchors.ss0
    beta = vp / eta_d * anchors.xdd / anchors.ssd
    alpha_star = vp / tau_d * anchors.x00 / anchors.vv0
    beta_star = vp / eta_d * anchors.xdd / anchors.vvd
    return DualityBundle(t, lam, alpha, beta, alpha_star, beta_star)


def verify_duality_suite(sys: LeonardSystem, bundle: DualityBundle) -> VerificationReport:
    """Every stated identity for T; the self-dual-only ones fail honestly when theta differs from theta* (that failure
    is the negative control).  All but T_polynomial_form and the two with A and A* are read on the system U X W
    (`_in_eigenbasis`) off T's eigen-coordinates C = W*^-1 T W and C* = W^-1 T W* (`change_of_basis`).  Their premise
    is `certified`, which gives U W = I = U* W* (Terwilliger, LAA 330 (2001), Thm 1.9), so T W = W* C, T W* = W C*,
    U T W = K C for K = U W*, and U T^2 W = C* C; U T* W is T* of U X W.  When it fails, each of them fails with the
    failed axiom as witness (`certificate_failure`), and the eight that read the weights of `solve_gram` through
    T^dagger or T*^dagger fail first with a failed premise of it, as in `verify`."""
    report = VerificationReport()
    f, d = sys.field, sys.d
    pa = sys.parameter_array
    t = bundle.t
    vp_head, _, ph_head, ph_tail = pa.split_products
    vp, ph = vp_head[d], ph_head[d]
    tau_d, eta_d, taus_d, etas_d = edge_values(pa)
    c1, c2 = eta_d * vp / (tau_d * etas_d), etas_d * vp / (taus_d * eta_d)
    if not (failed := certificate_failure(sys)):  # X = U T W and Xs = U T* W, the very X when the two are equal
        hat, C, Cs = _in_eigenbasis(sys), change_of_basis(sys, True, t, False), change_of_basis(sys, False, t, True)
        (K, Ks), e0 = hat.eigenbasis(star=True), hat.eigencolumn(0)
        k, r, X, Xs = K.column(0), Ks.row(0), K * C, duality_operator(hat, star=True)
        Xs, square = X if Xs == X else Xs, Cs * C
    by_coordinates = lambda name, check: report.add(name, *((False, {"error": failed}) if failed else (check(),)))

    # X^dagger = G^-1 X^T G for G = U^T D U / pivot, D = diag(m) (`solve_gram`): as U W = I, U X^dagger W is D^-1 X^T D
    # for X^ = U X W, so X^dagger = Y exactly when X^T D = D Y^.  In these coordinates E_0 is e_0 e_0^T and E*_0 is
    # k r^T, k != 0: E*_0 X^dagger = c E*_0 E_0 reads D X^ (r/m) = c r_0 e_0, and E_0 X^dagger = c E_0 E*_0 reads
    # row 0 of X^T D = c k_0 m_0 r^T
    def by_weights():
        m = _gram_weights(sys)
        if failed:
            raise DegenerateSplit(failed)
        DT = lambda Y: Y.transpose().scale_columns(m)  # Y^T D, the transpose of D Y
        x = DT(X)
        xs = x if Xs is X else DT(Xs)
        on_e0 = lambda XD, c: XD.row(0) == r.scale(c * k[0] * m[0])
        on_es0 = lambda XD, c: XD.transpose() * Vector(f, map(truediv, r, m)) == e0.scale(c * r[0])
        return [(ok, None) for ok in (
            x == DT(_displayed_dagger(hat)).transpose(), xs == DT(_displayed_dagger(hat, star=True)).transpose(),
            x == x.transpose(), xs == x.transpose(), on_es0(x, c1), on_e0(xs, c2), on_e0(x, vp / tau_d),
            on_es0(xs, vp / taus_d))]

    daggers = iter(_outcomes(8, by_weights))  # in report order
    add_dagger = lambda name: report.add(name, *next(daggers))

    report.add("T_polynomial_form", *_outcomes(1, lambda: [(t == duality_operator_polynomial_form(sys), None)])[0])
    add_dagger("T_dagger_displayed_sum")
    add_dagger("T_star_dagger_displayed_sum")
    by_coordinates("T_equals_T_star", lambda: Xs is X)
    add_dagger("T_equals_T_dagger")
    add_dagger("T_equals_T_star_dagger")

    by_coordinates("T_squared_equals_lambda_identity", lambda: square == Matrix.identity(f, d + 1).scale(bundle.lam))
    report.add("A_T_equals_T_Astar", sys.A * t == t * sys.Astar)
    report.add("Astar_T_equals_T_A", sys.Astar * t == t * sys.A)

    # with E_i = w_i u_i^T, U W = I and U* W* = I, which `certified` gives, U (E_i T - T E*_i) W* is
    # e_i (row i of M) - (column i of M) e_i^T for M = W^-1 T W*: zero when both vanish off (i, i); starred,
    # M = W*^-1 T W.  Else both fail with the failed premise as witness
    for name, star in (("Ei_T_equals_T_Estar_i", False), ("Estar_i_T_equals_T_Ei", True)):
        M = None if failed else change_of_basis(sys, star, t, not star).nums
        report.add_first_failure(name, [{"error": failed}] if failed else (
            {"i": i} for i in range(d + 1) if any(M[i][j] or M[j][i] for j in range(d + 1) if j != i)))

    # the eight product formulas with their displayed coefficients.  With E_0 = w_0 u_0^T and E*_0 = w*_0 u*_0^T,
    # Y E_0 = c E*_0 E_0 reads Y w_0 == c (u*_0 . w_0) w*_0, and Y E*_0 = c E_0 E*_0 reads Y w*_0 == c (u_0 . w*_0) w_0.
    # As U w_0 = e_0, U w*_0 = k, u*_0 . w_0 = r_0 and u_0 . w*_0 = k_0, they read column 0 of U Y W == c r_0 k and
    # (U Y W) k == c k_0 e_0, where (U T W) k = U T W* e_0 is column 0 of C*
    on_e0 = lambda Y, c: Y.column(0) == k.scale(c * r[0])
    on_es0 = lambda Y, c: (Cs.column(0) if Y is X else Y * k) == e0.scale(c * k[0])
    by_coordinates("product_T_E0star", lambda: on_es0(X, c1))
    by_coordinates("product_Tstar_E0", lambda: on_e0(Xs, c2))
    add_dagger("product_E0star_Tdagger")
    add_dagger("product_E0_Tstardagger")
    by_coordinates("product_T_E0", lambda: on_e0(X, vp / tau_d))
    by_coordinates("product_Tstar_E0star", lambda: on_es0(Xs, vp / taus_d))
    add_dagger("product_E0_Tdagger")
    add_dagger("product_E0star_Tstardagger")

    # T^2 expanded: (phi_1...phi_d / nu_ddown) sum_j eta_j(A) E*_0 E_d tau*_j(A*) / (phi_d...phi_{d-j+1}), and
    # T^2 = W (C* C) U, which is C* C when that is a scalar matrix
    def expansion():
        w, c, u = _through(sys, (True, 0), (False, d))
        weighted = [v.scale(f.invert(ph_tail[j])) for j, v in enumerate(sys.root_family("tau", True, u, covector=True))]
        acc = _outer_sum(c * f.invert(nu_scalars(pa)[2]) * ph, sys.root_family("eta", False, w), weighted)
        (W, U), scalar = sys.eigenbasis(), square == Matrix.identity(f, d + 1).scale(square.column(0)[0])
        return acc == (square if scalar else W * square * U)

    by_coordinates("T_squared_expansion", expansion)
    return report


# --- flags and decompositions ---

OMEGA = ("0", "D", "0*", "D*")
_ORDER = {z: slice(None, None, -1 if z.startswith("D") else 1) for z in OMEGA}  # columns of W (W*) in [z]


@dataclass(frozen=True)
class Flag:
    """Nested subspaces of dimensions 1..d+1 as one ordered basis: component
    i is spanned by the first i+1 columns of basis."""

    label: str
    basis: Matrix

    def to_json(self) -> dict:
        rows = self.basis.to_json()  # component i is the first i+1 entries of every row
        return {"label": self.label, "components": [[row[:i] for row in rows] for i in range(1, len(rows) + 1)]}


def build_flag(sys: LeonardSystem, z: str) -> Flag:
    """The flag [z], memoised on the system: [0] and [0*] are W and W*, [D] and [D*] reverse their columns."""
    if z not in OMEGA:
        raise ValueError(f"flag symbol must be one of {OMEGA}")
    return sys.cached(("flag", z), lambda: Flag(z, sys.eigenbasis(z.endswith("*"))[0].submatrix(cols=_ORDER[z])))


def spans_components(Y: Matrix) -> list:
    """For each i, whether the first i+1 columns of X span component i of a flag F, read off Y = F^-1 X: those of Y
    vanish below row i and are independent, that is the pivots of one elimination of Y's rows begin 0..i."""
    n, pivots = Y.nrows, _gauss_jordan(Y.field, [list(row) for row in Y.nums], Y.ncols)
    low = [max((r for r in range(n) if Y.nums[r][c]), default=-1) for c in range(n)]  # last nonzero row
    return [max(low[:i + 1]) <= i and pivots[:i + 1] == list(range(i + 1)) for i in range(n)]


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
    """The first family of the pair in BASIS_MEMBERSHIP, normalized: for [0D] and [0*D*] the eigencolumns.  Its
    premise is `certified` (else DegenerateSplit naming the failed axiom, `certificate_failure`): then each family on
    an eigencolumn is triangular with a nonzero diagonal in both eigenbases, so its vector i spans [z]_i ∩ [w]_{d-i}
    (Terwilliger, LAA 330 (2001), Thm 1.9)."""
    if failed := certificate_failure(sys):
        raise DegenerateSplit(failed)
    gen, rev, anchor_key = _parse_basis_id(BASIS_MEMBERSHIP[(z, w)][0])
    seq = (sys.eigenbasis(gen == "estar")[0].columns() if gen in ("e", "estar")
           else _sequence(sys, gen, _eigen_anchor(sys, anchor_key)))
    return Decomposition(z, w, tuple(v.normalized() for v in (seq[::-1] if rev else seq)))


DECOMPOSITION_PAIRS = tuple((z, w) for z in OMEGA for w in OMEGA if z != w)

T_FLAG_IMAGE = {"0": "0*", "0*": "0", "D": "D*", "D*": "D"}

# T maps [zw] to [T(z) T(w)]; T_on_decompositions sweeps the six displayed pairs, then their swaps.
_T_DISPLAYED = (("0*", "D"), ("D*", "D"), ("0*", "0"), ("D*", "0"), ("0", "D"), ("0*", "D*"))
T_DECOMPOSITION_ORDER = _T_DISPLAYED + tuple((w, z) for z, w in _T_DISPLAYED)


def verify_geometry_suite(
    sys: LeonardSystem, bundle: DualityBundle | None = None
) -> VerificationReport:
    """Flag/decomposition structure plus, when a bundle is given, T's action.

    The flags and decompositions are read off `certified`, their one premise: U W = I = U* W*, so each flag is a basis
    (flag_component_dimensions), and each [zw] is the normalized first family of its pair (`_decomposition`), whose
    vector i lies in [z]_i ∩ [w]_{d-i}, and its vectors are a basis: the flags are mutually opposite, each component
    is one-dimensional, and the first i+1 vectors span [z]_i and the last i+1 span [w]_i
    (decompositions_induce_flags).  When it fails, these four fail with the failed axiom as witness
    (`certificate_failure`) and the suite ends, as no decomposition is built for the checks that read its vectors.

    T_on_flags then holds once T_maps_eigenspaces holds, and T_on_decompositions once T_on_flags and
    decomposition_inversion_pairs hold: T, invertible, then maps component i of [zw], [z]_i ∩ [w]_{d-i}, onto
    component i of [T(z) T(w)].  When one of these fails, each flag component is read off W*^-1 T W or W^-1 T W*, and
    T x is formed for each distinct decomposition vector."""
    report = VerificationReport()
    f, d = sys.field, sys.d
    failed = certificate_failure(sys)
    by_certificate = lambda *names: [report.add(name, not failed, {"error": failed}) for name in names]
    by_certificate("flag_component_dimensions", "flags_mutually_opposite", "decomposition_components_one_dimensional")
    if failed:
        by_certificate("decompositions_induce_flags")
        return report

    decomps = {pair: build_decomposition(sys, *pair) for pair in DECOMPOSITION_PAIRS}
    report.add_last_failure("decomposition_inversion_pairs", (
        {"pair": f"[{z}{w}]"} for (z, w), dec in decomps.items()
        if decomps[(w, z)].vectors != dec.inversion_vectors()))
    by_certificate("decompositions_induce_flags")

    # rows 0, 1 and split: component i of [0D], [0*D*] and [0*D] spans E_iV, E*_iV and the split
    # line U_i, which is tau_i(A) E*_0 V (Terwilliger, LAA 330, 2001)
    splits = sys.root_family("tau", False, sys.eigencolumn(0, star=True))
    report.add_last_failure("decomposition_table_rows", (
        {"i": i, "row": row} for i in range(d + 1) for row, ok in (
            (0, decomps[("0", "D")].vectors[i].is_colinear(sys.eigencolumn(i))),
            (1, decomps[("0*", "D*")].vectors[i].is_colinear(sys.eigencolumn(i, star=True))),
            ("split", decomps[("0*", "D")].vectors[i].is_colinear(splits[i])),
        ) if not ok))

    if bundle is None:
        return report
    t = bundle.t

    # T in the eigenbases, C[False] = W*^-1 T W and C[True] = W^-1 T W*, W and W* invertible as `certified` holds:
    # T w_i is a nonzero multiple of w*_i exactly when column i of C[False] is one of e_i (starred, of C[True]),
    # and C[star of z] in the flags' orders is [T(z)]^-1 T [z]
    C, e = {star: change_of_basis(sys, not star, t, star) for star in (False, True)}, Matrix.identity(f, d + 1)
    report.add_last_failure("T_maps_eigenspaces", (
        {"i": i, "side": side} for i in range(d + 1) for side, star in (("E", False), ("Estar", True))
        if not C[star].column(i).is_colinear(e.column(i))))
    held = lambda *names: all(report[name].passed for name in names)
    report.add_last_failure("T_on_flags", () if held("T_maps_eigenspaces") else (
        {"flag": z, "i": i} for z, image in T_FLAG_IMAGE.items()
        for i, spans in enumerate(spans_components(C["*" in z].submatrix(_ORDER[image], _ORDER[z]))) if not spans))
    # T x once per distinct vector: [wz] is [zw] reversed, and every [zw] starts at the first vector of [z]
    tx = functools.cache(t.__mul__)
    report.add_last_failure("T_on_decompositions", () if held("T_on_flags", "decomposition_inversion_pairs") else (
        {"pair": f"[{z}{w}]", "i": i} for z, w in T_DECOMPOSITION_ORDER for i in range(d + 1)
        if not tx(decomps[(z, w)].vectors[i]).is_colinear(decomps[(T_FLAG_IMAGE[z], T_FLAG_IMAGE[w])].vectors[i])))
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
_BASES = {basis_id: (gen, bool(rev), anchor) for basis_id in BASIS_IDS for gen, *rev, anchor in [basis_id.split("-")]}


def _parse_basis_id(basis_id: str):
    """(gen, whether it is reversed, anchor key) of one of BASIS_IDS (`_BASES`); UnknownBasis for any other id."""
    if basis_id not in _BASES:
        raise UnknownBasis(basis_id)
    return _BASES[basis_id]


def build_basis(sys: LeonardSystem, anchors: AnchorVectors | None, basis_id: str):
    """One of the 24 sequences, as a tuple of d+1 vectors, on an anchor of anchors (`_anchor`).  Each forward
    sequence is built once per system and memoised; a -rev- id is its reversal."""
    gen, rev, anchor_key = _parse_basis_id(basis_id)
    seq = _sequence(sys, gen, _anchor(sys, anchors, anchor_key))
    return seq[::-1] if rev else seq


def _sequence(sys: LeonardSystem, gen: str, v: Vector) -> tuple:
    """The forward sequence gen on v, memoised (`_basis_sequence`)."""
    return sys.cached(("basis", gen, v), lambda: _basis_sequence(sys, gen, v))


def _anchor(sys: LeonardSystem, anchors: AnchorVectors | None, anchor_key: str) -> Vector:
    """The anchor of anchors for anchor_key, or without anchors the one `choose_anchor_vectors` picks."""
    return _eigen_anchor(sys, anchor_key) if anchors is None else getattr(anchors, _ANCHOR_ATTR[anchor_key])


def _eigen_anchor(sys: LeonardSystem, anchor_key: str) -> Vector:
    """The anchor that `choose_anchor_vectors` picks for anchor_key (v0, vd, vstar0 or vstard): the normalized
    eigencolumn it names."""
    return sys.eigencolumn(sys.d if anchor_key.endswith("d") else 0, anchor_key.startswith("vstar")).normalized()


def _basis_sequence(sys: LeonardSystem, gen: str, v: Vector) -> tuple:
    """E_i v or E*_i v, which is (u_i . v) w_i for E_i = w_i u_i^T (`LeonardSystem.coordinates`; the DegenerateSplit
    of `LeonardSystem.eigenbasis` when the family does not factor), else the tau/eta family gen on v
    (`LeonardSystem.root_family`)."""
    star = gen.endswith("star")
    if gen in ("e", "estar"):
        return tuple(w.scale(x) for w, x in zip(sys.eigenbasis(star)[0].columns(), sys.coordinates(v, star)))
    return sys.root_family(gen.removesuffix("star"), star, v)


def _is_basis(sys: LeonardSystem, anchors: AnchorVectors | None, basis_id: str) -> bool:
    """Whether the vectors build_basis(...) are a basis, decided once per forward sequence and memoised, since a
    -rev- id has the same columns reversed: a basis once `certified` holds and the anchor is a multiple of the
    eigencolumn it names, on the side opposite gen; else ranked."""
    gen, _, anchor_key = _parse_basis_id(basis_id)
    v = _anchor(sys, anchors, anchor_key)
    decided = lambda: (anchor_key.startswith("vstar") != gen.endswith("star") and certified(sys)
                       and v.is_colinear(_eigen_anchor(sys, anchor_key)))
    return sys.cached(("is_basis", gen, v), lambda: decided() or Matrix.from_columns(
        sys.field, build_basis(sys, anchors, basis_id)).rank() == sys.d + 1)


def build_24_bases(sys: LeonardSystem, anchors: AnchorVectors) -> dict:
    """All 24 sequences keyed by identifier, each certified invertible."""
    for basis_id in BASIS_IDS:
        if not _is_basis(sys, anchors, basis_id):
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
    """Invertibility, component membership and the inversion pairing of the 24 bases.

    bases_span_decomposition_components holds once its premise holds: `certified`, and each anchor a multiple of the
    eigencolumn it names (`_eigen_anchor`).  Each basis of BASIS_MEMBERSHIP is then a family on an eigencolumn, whose
    vector i spans component i of its decomposition (Terwilliger, LAA 330 (2001), Thm 1.9).  Else the check fails
    with the failed premise as witness: the failed axiom (`certificate_failure`), or the first anchor that is not
    such a multiple."""
    report = VerificationReport()
    family = {basis_id: build_basis(sys, anchors, basis_id) for basis_id in BASIS_IDS}

    report.add_last_failure("bases_invertible", (
        {"basis": basis_id} for basis_id in BASIS_IDS if not _is_basis(sys, anchors, basis_id)))

    failed = certificate_failure(sys) or next((
        f"anchor {key} is not a multiple of the eigencolumn it names" for key in _ANCHOR_ATTR
        if not _anchor(sys, anchors, key).is_colinear(_eigen_anchor(sys, key))), None)
    report.add("bases_span_decomposition_components", not failed, {"error": failed})

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
    E = lambda basis_id, i: build_basis(sys, anchors, basis_id)[i]  # E_i v (E*_i v) for the anchor v of basis_id

    projections = (
        (E("e-vstar0", 0), a.v0.scale(a.x00 / a.vv0)),
        (E("e-vstar0", d), a.vd.scale(a.xd0 / a.vvd)),
        (E("e-vstard", 0), a.v0.scale(a.x0d / a.vv0)),
        (E("e-vstard", d), a.vd.scale(a.xdd / a.vvd)),
        (E("estar-v0", 0), a.v0s.scale(a.x00 / a.ss0)),
        (E("estar-v0", d), a.vds.scale(a.x0d / a.ssd)),
        (E("estar-vd", 0), a.v0s.scale(a.xd0 / a.ss0)),
        (E("estar-vd", d), a.vds.scale(a.xdd / a.ssd)),
    )
    report.add_first_failure("anchor_projections", (
        {"projection": k} for k, (lhs, rhs) in enumerate(projections) if lhs != rhs))

    vp, ph = pa.split_products[0][d], pa.split_products[2][d]
    report.add("anchor_ratio_product", a.x0d * a.xd0 / (a.x00 * a.xdd) == vp / ph)

    # each against nu, nu_down, nu_ddown and nu_down_ddown in turn (`ParameterArray.nu`)
    squares = zip((a.vv0 * a.ss0 / (a.x00 * a.x00), a.vv0 * a.ssd / (a.x0d * a.x0d),
                   a.vvd * a.ss0 / (a.xd0 * a.xd0), a.vvd * a.ssd / (a.xdd * a.xdd)), pa.nu)
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

    # relation i reads coefficient nums[i] / dens[i] times its anchor ratio, which is divided once per relation
    n = d + 1
    relations = (
        ("taustar_rev_v0_vs_eta_vstard", "taustar-rev-v0", "eta-vstard", (taus_d,) * n, vp_tail, a.x0d / a.ssd),
        ("etastar_rev_v0_vs_eta_vstar0", "etastar-rev-v0", "eta-vstar0", (etas_d,) * n, ph_head, a.x00 / a.ss0),
        ("taustar_rev_vd_vs_tau_vstard", "taustar-rev-vd", "tau-vstard", (taus_d,) * n, ph_tail, a.xdd / a.ssd),
        ("etastar_rev_vd_vs_tau_vstar0", "etastar-rev-vd", "tau-vstar0", (etas_d,) * n, vp_head, a.xd0 / a.ss0),
        ("tau_rev_vstar0_vs_etastar_vd", "tau-rev-vstar0", "etastar-vd", (tau_d,) * n, vp_tail, a.xd0 / a.vvd),
        ("eta_rev_vstar0_vs_etastar_v0", "eta-rev-vstar0", "etastar-v0", (eta_d,) * n, ph_tail, a.x00 / a.vv0),
        ("tau_rev_vstard_vs_taustar_vd", "tau-rev-vstard", "taustar-vd", (tau_d,) * n, ph_head, a.xdd / a.vvd),
        ("eta_rev_vstard_vs_taustar_v0", "eta-rev-vstard", "taustar-v0", (eta_d,) * n, vp_head, a.x0d / a.vv0),
        ("estar_vd_vs_estar_v0", "estar-vd", "estar-v0", ph_head, vp_head, a.xd0 / a.x00),
        ("estar_rev_vd_vs_estar_rev_v0", "estar-rev-vd", "estar-rev-v0", vp_tail, ph_tail, a.xdd / a.x0d),
        ("e_vstard_vs_e_vstar0", "e-vstard", "e-vstar0", ph_tail, vp_head, a.x0d / a.x00),
        ("e_rev_vstard_vs_e_rev_vstar0", "e-rev-vstard", "e-rev-vstar0", vp_tail, ph_head, a.xdd / a.xd0),
    )
    for name, lhs_id, rhs_id, nums, dens, ratio in relations:
        report.add_first_failure(name, (
            {"i": i} for i in range(n) if family[lhs_id][i] != family[rhs_id][i].scale(nums[i] / dens[i] * ratio)))
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

    report.add("T_squared_on_v0",
               t * (t * a.v0) == a.v0.scale(bundle.lam) and bundle.alpha * bundle.alpha_star == bundle.lam)
    return report


def expected_matrix_of_T(pa: ParameterArray) -> Matrix:
    """The antidiagonal closed form: entry (d-i, i) is phi_1...phi_i times
    varphi_1...varphi_d / (tau_d(theta_d) eta_d(theta_0))."""
    f, d = pa.field, pa.d
    tau_d, eta_d, _, _ = edge_values(pa)
    vp_head, _, ph_head, _ = pa.split_products
    c = vp_head[d] / (tau_d * eta_d)
    return Matrix(f, [[c * ph_head[j] if i + j == d else f.zero() for j in range(d + 1)] for i in range(d + 1)])


def basis_representations(sys: LeonardSystem, t: Matrix, basis_id: str,
                          anchors: AnchorVectors | None = None) -> tuple:
    """The matrices B^-1 M B of M = T (the matrix t), A and A* in the basis basis_id (columns of B, on an anchor of
    anchors, `_anchor`).  In the four bases each is its displayed X (`expected_representations`) when B is a basis
    (`_is_basis`) and M B == B X, as then B^-1 M B = X; otherwise B^-1 (M B), with B inverted once, SingularMatrix
    when B is singular."""
    B = Matrix.from_columns(sys.field, build_basis(sys, anchors, basis_id))
    shown = basis_id in PAIR_SHAPES and _is_basis(sys, anchors, basis_id)
    shapes = expected_representations(sys, basis_id) if shown else (None,) * 3
    inverse = functools.cache(B.inverse)
    return tuple(X if X is not None and MB == B * X else inverse() * MB
                 for MB, X in zip((M * B for M in (t, sys.A, sys.Astar)), shapes))


def matrix_of_T(sys: LeonardSystem, bundle: DualityBundle, basis_id: str,
                anchors: AnchorVectors | None = None) -> Matrix:
    """The matrix representing T with respect to one of the four bases (`basis_representations`)."""
    if basis_id not in FOUR_BASES:
        raise UnknownBasis(f"{basis_id!r} is not one of {FOUR_BASES}")
    return basis_representations(sys, bundle.t, basis_id, anchors)[0]


# basis id -> (the D4 relative whose split form is the displayed pair, whether A and A* trade places)
PAIR_SHAPES = {"etastar-v0": ("*D", True), "eta-vstar0": ("D", False),
               "taustar-vd": ("*d", True), "tau-vstard": ("d", False)}


def expected_pair_shapes(pa: ParameterArray, basis_id: str):
    """The displayed bidiagonal shapes of A and A* in the four bases: each the split form of a relative."""
    if basis_id not in PAIR_SHAPES:
        raise UnknownBasis(basis_id)
    word, swapped = PAIR_SHAPES[basis_id]
    rel = d4_apply(pa, word)
    pair = bidiagonal(pa.field, rel.theta), bidiagonal(pa.field, rel.theta_star, rel.varphi)
    return pair[::-1] if swapped else pair


def expected_representations(sys: LeonardSystem, basis_id: str) -> tuple:
    """The displayed matrices of T, A and A* in one of the four bases (`expected_matrix_of_T`,
    `expected_pair_shapes`), memoised on the system."""
    pa = sys.parameter_array
    return sys.cached(("expected", basis_id), lambda: (expected_matrix_of_T(pa), *expected_pair_shapes(pa, basis_id)))


def verify_matrix_of_T(
    sys: LeonardSystem, bundle: DualityBundle, anchors: AnchorVectors | None = None
) -> VerificationReport:
    """The closed antidiagonal form, its basis independence and the A/A* shapes."""
    report = VerificationReport()
    reps = {basis_id: basis_representations(sys, bundle.t, basis_id, anchors) for basis_id in FOUR_BASES}
    wanted = {basis_id: expected_representations(sys, basis_id) for basis_id in FOUR_BASES}

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
