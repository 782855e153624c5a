"""Flags as ordered bases: the eliminations that replaced the subspace intersections, and the work they save.

A flag is one ordered basis F (component i: its first i+1 columns).  Two flags F, G are opposite exactly when F^-1 G
with its rows reversed has an LU factorisation without pivoting, which gives every component of the decomposition
they induce; "the first i+1 columns of X span component i of F" is read off F^-1 X.  The package reads the flags and
decompositions off the certificate, and `spans_components` decides T_on_flags where T does not map the eigenspaces;
`tests/reference.py` decides the flag checks by intersections and ranks (`assert_agrees`).  Here: the elimination
(`linalg.flag_decomposition`, which the split lines of `verify` take without the certificate) against the element
loop and the intersections on random bases, the inverses of the flags (W^-1 and W*^-1 by Gauss-Jordan) and bases,
and that no suite intersects subspaces.
"""

from dataclasses import dataclass
from math import prod

from hypothesis import given, settings, strategies as st
import pytest

from leonard import duality as du
from leonard import linalg, systems
from leonard.errors import DegenerateSplit, SingularMatrix
from leonard.fields import Field
from leonard.linalg import Matrix, Vector, flag_decomposition, same_column_space
from leonard.systems import LeonardSystem, ParameterArray, certify

from conftest import FROZEN_ARRAYS, conjugator, krawtchouk_type, leonard_arrays
from reference import (CERTIFICATE_GEOMETRY, DIFFERENTIAL, GEOMETRY_CHECKS, GFP, Q, Reference, agrees_on,
                       assert_agrees, assert_report, check_list, components, drawn, hand_built, meets, opposite_lines,
                       passes, recording, w_inverse_conjugate)


@dataclass(frozen=True)
class Ordered:
    """The ordered basis of a flag with its inverse, None when the basis is singular."""

    basis: Matrix
    inverse: Matrix | None


def flag(basis: Matrix) -> Ordered:
    """A flag on an arbitrary ordered basis, its inverse by Gauss-Jordan."""
    try:
        return Ordered(basis, basis.inverse())
    except SingularMatrix:
        return Ordered(basis, None)


def system_flag(sys, z: str) -> Ordered:
    """The flag [z] of sys (`duality.build_flag`) with its inverse: W^-1 (W*^-1) by Gauss-Jordan (`Matrix.inverse`)
    with its rows in the flag's order, None when W (W*) is singular."""
    try:
        inverse = sys.eigenbasis(z.endswith("*"))[0].inverse().submatrix(rows=du._ORDER[z])
    except SingularMatrix:
        inverse = None
    return Ordered(du.build_flag(sys, z).basis, inverse)


def element_loop_lines(F, G):
    """The element-level loop that `linalg.flag_decomposition` replaced, for the flags F and G (`Ordered`): the columns
    of C' (C = F^-1 G, rows reversed) over those of G, reduced without pivoting; x_i = G V[:, d-i], or None."""
    if F.inverse is None:
        return None
    C = F.inverse * G.basis
    n = C.nrows
    cols = [Vector(C.field, C.column(j).entries[::-1] + G.basis.column(j).entries) for j in range(n)]
    for k in range(n):
        if not cols[k][k]:
            return None
        for j in range(k + 1, n):
            if cols[j][k]:
                cols[j] = cols[j] - cols[k].scale(cols[j][k] / cols[k][k])
    return tuple(Vector(C.field, cols[n - 1 - i].entries[n:]) for i in range(n))


def assert_opposite_vectors_match_loop(F: Ordered, G: Ordered):
    """`linalg.flag_decomposition` of F and G (None when F is singular) has the verdict of the element loop, and its
    vectors up to nonzero scalars."""
    got = None if F.inverse is None else flag_decomposition(F.inverse * G.basis, G.basis)
    want = element_loop_lines(F, G)
    assert (got is None) == (want is None)
    if got is not None:
        assert [v.normalized() for v in got] == [v.normalized() for v in want]
    return got


# --- the differential test on the inputs of the flag route ---


def test_corpus_geometry_matches_reference(corpus):
    """`dualize` in split form."""
    for pa in corpus.arrays:
        [agreed] = agrees_on(pa, ("split",), ("dualize",))
        assert passes(agreed, "dualize") == du.is_self_dual(pa)


def test_corpus_opposite_vectors_match_element_loop(corpus):
    for pa in corpus.arrays:
        s = corpus.system(pa)
        for z, w in du.DECOMPOSITION_PAIRS:
            assert assert_opposite_vectors_match_loop(system_flag(s, z), system_flag(s, w)) is not None


def test_conjugated_corpus_geometry_matches_reference(corpus):
    """`dualize` conjugated to a dense basis."""
    for pa in corpus.arrays:
        agrees_on(pa, ("dense",), ("dualize",))


def test_negative_controls_match_reference_with_witness():
    """Certified Krawtchouk-type arrays with theta* != theta at d = 2..5, where T does not map the flags."""
    for pa in (krawtchouk_type(field, d, 3, 5, 11, 7, 13) for field in (Q, GFP) for d in (2, 3, 4, 5)):
        checks = assert_agrees(certify(pa), ("dualize",))["dualize"]
        assert not checks["T_on_flags"][0] and checks["T_on_flags"][1] is not None
        assert checks["decompositions_induce_flags"][0]


def test_geometry_without_bundle_matches_reference(corpus):
    for pa in corpus.non_self_dual:
        s = certify(pa)
        geometry = Reference(s).dualize(None)
        assert_report(check_list(du.verify_geometry_suite(s)), [n for n in GEOMETRY_CHECKS if n in geometry], geometry)


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
@settings(DIFFERENTIAL, max_examples=20)
@given(data=st.data())
def test_generated_geometry_matches_reference(field, data):
    """`dualize` conjugated to a dense basis."""
    pa = data.draw(drawn(field), label="pa")
    [agreed] = agrees_on(pa, ("dense",), ("dualize",))
    assert passes(agreed, "dualize") or not du.is_self_dual(pa)


def assert_flag_inverses_match_elimination(sys):
    """Each flag's inverse, W^-1 or W*^-1 with its rows in the flag's order (`system_flag`), is Gauss-Jordan's inverse
    of its basis, and None exactly when that is singular."""
    for z in du.OMEGA:
        F = system_flag(sys, z)
        assert F.inverse == flag(F.basis).inverse, z


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_flag_inverses_match_elimination(field, data):
    """U W = I holds on every system below, so each flag's inverse is U or U* with its rows in the flag's order."""
    d = data.draw(st.integers(min_value=0, max_value=8), label="d")
    s = certify(data.draw(leonard_arrays(field, d), label="pa"))
    for sys in (s, s.conjugated(conjugator(field, d + 1)), w_inverse_conjugate(s)):
        assert_flag_inverses_match_elimination(sys)
        assert all(system_flag(sys, z).inverse == sys.eigenbasis(z.endswith("*"))[1].submatrix(rows=du._ORDER[z])
                   for z in du.OMEGA)


def test_basis_representations_match_separate_solves(corpus):
    """The representations in the four bases, which `tests/test_certificate_route.py` holds to B^-1 (M B), are those
    `matrix_of_T` returns."""
    for pa in corpus.self_dual:
        s = corpus.system(pa)
        anchors = du.choose_anchor_vectors(s)
        bundle = du.build_duality_bundle(s, anchors)
        for basis_id in du.FOUR_BASES:
            assert du.matrix_of_T(s, bundle, basis_id, anchors) == du.basis_representations(
                s, bundle.t, basis_id, anchors)[0]


def closed_form_basis_inverse(sys: LeonardSystem, anchors, basis_id: str) -> Matrix:
    """B^-1 for the basis basis_id (columns of B) without elimination, where U W = I: E_i v = (u_i^T v) w_i, so an
    e/estar basis is W diag(c), c_i = u_i^T v, and a tau or eta family on v is W diag(c) L with L_ji = p_i(theta_j),
    whose inverse is the Newton-to-Lagrange matrix of divided differences: for x_k the roots in the family's order
    and theta_j = x_k, (L^-1)_ij = 1 / prod_{l <= i, l != k} (x_k - x_l) when k <= i, else 0.  A -rev- id reverses
    the columns of B, so the rows of B^-1."""
    gen, rev, anchor = du._parse_basis_id(basis_id)
    star, f, n = gen.endswith("star"), sys.field, sys.d + 1
    W, U = sys.eigenbasis(star)
    v = getattr(anchors, du._ANCHOR_ATTR[anchor])
    inv = Matrix(f, [U.row(i).scale(f.invert(U.row(i).dot(v))).entries for i in range(n)])  # diag(c)^-1 U
    if gen not in ("e", "estar"):
        order = range(n) if gen.startswith("tau") else range(n - 1, -1, -1)  # x_k = theta[order[k]]
        x = [(sys.theta_star if star else sys.theta)[j] for j in order]
        L_inv = [[f.zero()] * n for _ in range(n)]
        for i in range(n):
            for k in range(i + 1):
                L_inv[i][order[k]] = f.invert(prod((x[k] - x[l] for l in range(i + 1) if l != k), start=f.one()))
        inv = Matrix(f, L_inv) * inv
    return inv.submatrix(rows=slice(None, None, -1)) if rev else inv


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_basis_inverses_match_closed_form(field, data):
    """The one inverse of `basis_representations` against its closed form, on all 24 bases."""
    d = data.draw(st.integers(min_value=0, max_value=8), label="d")
    s = certify(data.draw(leonard_arrays(field, d), label="pa"))
    anchors = du.choose_anchor_vectors(s)
    bundle = du.build_duality_bundle(s, anchors)
    for basis_id in du.BASIS_IDS:
        B = Matrix.from_columns(field, du.build_basis(s, anchors, basis_id))
        inv = closed_form_basis_inverse(s, anchors, basis_id)
        assert inv == B.inverse(), basis_id
        assert du.basis_representations(s, bundle.t, basis_id, anchors) == tuple(
            inv * (M * B) for M in (bundle.t, s.A, s.Astar))


# --- hand-built systems ---


def test_non_opposite_pair_raises_naming_the_premise():
    # a d = 1 system with E*_i = E_i, so the flags [0] = [0*] and [D] = [D*]: each component of [00*] is
    # one-dimensional, but the two coincide, and the intersection route built a "decomposition" that does not span V.
    # W* = W, so W*^-1 A W* = diag(theta) is not irreducible: the certificate fails on
    # tridiagonal_A_in_Astar_eigenbasis, and every decomposition and the flag checks name that premise
    c = certify(krawtchouk_type(Q, 1, 3, 5, 3, 5, 13))
    s = LeonardSystem(c.A, c.Astar, c.E, c.E, c.theta, c.theta_star, c.pa)
    W, Ws = s.eigenbasis()[0], s.eigenbasis(star=True)[0]
    lines = meets(W, Ws)
    assert all(line.ncols == 1 for line in lines) and lines[0] == lines[1]
    assert opposite_lines(W, Ws) is None
    premise = "tridiagonal_A_in_Astar_eigenbasis fails"
    with pytest.raises(DegenerateSplit, match=f"^{premise}$"):
        du.build_decomposition(s, "0", "0*")
    report = du.verify_geometry_suite(s)
    assert [(c.name, c.passed, c.witness) for c in report.checks] == [
        (name, False, {"error": premise}) for name in CERTIFICATE_GEOMETRY]
    assert_agrees(s)


def test_dependent_flag_basis_matches_reference():
    # E_0 twice: both E-flags are spanned by one line
    # the certificate fails (U A* W, with W singular, is not irreducible tridiagonal), so the flag checks name it
    report = assert_agrees(hand_built(Q, 1)["E_0 twice"])["dualize"]
    assert report["flag_component_dimensions"] == (False, {"error": "tridiagonal_Astar_in_A_eigenbasis fails"})
    assert not report["decomposition_components_one_dimensional"][0]


def test_families_with_UW_not_I_invert_by_elimination():
    """Where U W != I, W^-1 comes from Gauss-Jordan on W, for the flags, both tridiagonal axioms
    and the split lines: E_0 twice (W singular, so the E-flags have no inverse), and the sheared
    E_0 and doubled E*_d of `reference.hand_built` (W, resp. W*, invertible, and its inverse != U)."""
    repeated = hand_built(Q, 1)["E_0 twice"]
    sheared, doubled = (hand_built(Q, 2)[name] for name in ("E_0 sheared", "Estar_d doubled"))
    for sys, star in ((repeated, False), (sheared, False), (doubled, True)):
        W, U = sys.eigenbasis(star)
        assert U * W != Matrix.identity(Q, sys.d + 1)
        with recording((Matrix, "inverse")) as calls:
            systems.standard_identity_suite(sys)
        assert (W,) in calls.of("inverse")
        assert_flag_inverses_match_elimination(sys)
        assert_agrees(sys)
    assert system_flag(repeated, "0").inverse is system_flag(repeated, "D").inverse is None
    for sys, z, star in ((sheared, "0", False), (doubled, "0*", True)):
        W, U = sys.eigenbasis(star)
        assert system_flag(sys, z).inverse == W.inverse() != U


# --- random ordered bases ---


FIELDS = (Field.prime(2), Field.prime(3), Field.prime(7), Q)
ENTRIES = st.sampled_from([0, 0, 1, -1, 2])
UNITS = st.sampled_from([1, -1, 5])  # nonzero in every field of FIELDS


@st.composite
def invertible(draw, field, n):
    """P L U: every invertible matrix has this form, and P makes non-opposite pairs common."""
    perm = draw(st.permutations(range(n)))
    P = Matrix.from_ints(field, [[int(perm[r] == c) for c in range(n)] for r in range(n)])
    L = Matrix.from_ints(field, [[draw(ENTRIES) if c < r else int(c == r) for c in range(n)] for r in range(n)])
    U = Matrix.from_ints(field, [[draw(ENTRIES) if c > r else draw(UNITS) if c == r else 0
                                  for c in range(n)] for r in range(n)])
    return P * L * U


@st.composite
def basis_pairs(draw):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 5))
    F, G = draw(invertible(field, n)), draw(invertible(field, n))
    if draw(st.booleans()):  # F times an upper triangular matrix: X spans many components of F
        X = F * Matrix.from_ints(field, [[draw(ENTRIES) if c >= r else 0 for c in range(n)] for r in range(n)])
    else:
        X = Matrix.from_ints(field, [[draw(ENTRIES) for _ in range(n)] for _ in range(n)])
    return flag(F), flag(G), X


@settings(max_examples=300, deadline=None)
@given(basis_pairs())
def test_random_bases_match_reference(case):
    F, G, X = case
    vectors = assert_opposite_vectors_match_loop(F, G)
    lines = opposite_lines(F.basis, G.basis)
    assert (vectors is not None) == (lines is not None)
    if vectors is not None:
        assert [v.normalized() for v in vectors] == list(lines)
    n = X.ncols
    assert du.spans_components(F.inverse * X) == [same_column_space(X.submatrix(cols=slice(0, i + 1)),
                                                                     components(F.basis)[i]) for i in range(n)]
    assert du.spans_components(F.inverse * G.basis) == [same_column_space(G.basis.submatrix(cols=slice(0, i + 1)),
                                                                          components(F.basis)[i]) for i in range(n)]


def spans_components_by_leading_ranks(F, X: Matrix) -> list:
    """The route that one elimination of `duality.spans_components` replaced, for the flag F (`Ordered`): with
    Y = F^-1 X, the first i+1 columns of Y vanish below row i and their leading (i+1) x (i+1) block has rank i+1,
    one rank each."""
    Y = F.inverse * X
    n = Y.nrows
    return [not any(Y.nums[r][c] for r in range(i + 1, n) for c in range(i + 1))
            and Y.submatrix(slice(0, i + 1), slice(0, i + 1)).rank() == i + 1 for i in range(n)]


def spans_components_by_rref(Y: Matrix) -> list:
    """The same read off the pivot columns of `Matrix.rref`, which also scales the rows and forms the reduced
    matrix: the first i+1 columns of Y vanish below row i and the pivots begin 0..i."""
    n, pivots = Y.nrows, Y.rref()[1]
    return [not any(Y.nums[r][c] for r in range(i + 1, n) for c in range(i + 1))
            and pivots[:i + 1] == list(range(i + 1)) for i in range(n)]


@st.composite
def block_triangular_coordinates(draw):
    """(F, F Y) with Y block upper triangular: at each block end i the first i+1 columns of Y
    vanish below row i, and the leading block is triangular only when every block is."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 6))
    ends = sorted(draw(st.sets(st.integers(0, n - 1))) | {n - 1})
    block = lambda i: next(k for k, end in enumerate(ends) if i <= end)
    Y = Matrix.from_ints(field, [[draw(ENTRIES) if block(r) <= block(c) else 0 for c in range(n)] for r in range(n)])
    F = draw(invertible(field, n))
    return flag(F), F * Y


@settings(max_examples=300, deadline=None)
@given(st.one_of(basis_pairs().map(lambda case: (case[0], case[2])), block_triangular_coordinates()))
def test_spans_components_match_rref(case):
    """The one elimination of `spans_components` against the pivots of rref and a rank of each leading block."""
    F, X = case
    Y = F.inverse * X
    assert du.spans_components(Y) == spans_components_by_rref(Y) == spans_components_by_leading_ranks(F, X)


def test_singular_basis_is_never_opposite():
    field = Field.prime(7)
    F = flag(Matrix.from_ints(field, [[1, 2], [2, 4]]))
    G = flag(Matrix.from_ints(field, [[0, 1], [1, 0]]))
    for pair in ((F, G), (G, F), (F, F)):
        assert assert_opposite_vectors_match_loop(*pair) is None
        assert opposite_lines(pair[0].basis, pair[1].basis) is None


# --- work bound ---


def test_suites_use_no_rank_or_intersection_loops():
    """No suite intersects subspaces or compares column spaces: the split lines too come
    from the flag elimination."""
    s = certify(ParameterArray.from_json(FROZEN_ARRAYS[2]))
    with recording(*((tuple(m for m in (linalg, systems, du) if hasattr(m, name)), name)
                     for name in ("same_column_space", "intersect_column_spaces"))) as calls:
        assert systems.standard_identity_suite(s).all_pass
        anchors = du.choose_anchor_vectors(s)
        bundle = du.build_duality_bundle(s, anchors)
        assert du.verify_geometry_suite(s, bundle).all_pass
        du.build_24_bases(s, anchors)
        assert du.verify_basis_family(s, anchors).all_pass
    assert calls == []
