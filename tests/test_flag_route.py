"""Flags as ordered bases against the subspace intersections they replace.

A flag is one ordered basis F (component i: its first i+1 columns).  Two
flags F, G are opposite exactly when F^-1 G with its rows reversed has an LU
factorisation without pivoting, and that elimination gives every component of
the decomposition they induce.  "The first i+1 columns of X span component i
of F" is read off Y = F^-1 X.  The reference below is the intersection and
rank route those replace, one `intersect_column_spaces` or
`same_column_space` call per component; both must agree verdict for verdict,
witness and vector included.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from leonard import duality as du
from leonard import linalg, systems
from leonard.errors import DegenerateSplit
from leonard.fields import Field
from leonard.linalg import Matrix, intersect_column_spaces, same_column_space
from leonard.systems import LeonardSystem, ParameterArray, certify

from conftest import FROZEN_ARRAYS

Q = Field.rational()
GFP = Field.prime(2**31 - 1)


# --- the intersection reference ---


def ref_meets(F: du.Flag, G: du.Flag):
    """Bases of F_i ∩ G_{d-i}, i = 0..d."""
    d = len(F.components) - 1
    return [intersect_column_spaces(F.components[i], G.components[d - i]) for i in range(d + 1)]


def ref_flags_opposite(F: du.Flag, G: du.Flag) -> bool:
    meets = ref_meets(F, G)
    if any(meet.ncols != 1 for meet in meets):
        return False
    return Matrix.from_columns(F.basis.field, [meet.column(0) for meet in meets]).rank() == len(meets)


def ref_decomposition_vectors(sys, z, w):
    """Normalised spanning vectors; raises when some component is not one-dimensional."""
    vectors = []
    for i, meet in enumerate(ref_meets(du.build_flag(sys, z), du.build_flag(sys, w))):
        if meet.ncols != 1:
            raise DegenerateSplit(f"component {i} of [{z}{w}] is not one-dimensional")
        vectors.append(meet.column(0).normalized())
    return tuple(vectors)


def _prefix(M: Matrix, k: int) -> Matrix:
    return Matrix(M.field, (row[:k] for row in M.rows))


def reference_geometry(sys, bundle=None):
    """(checks, decomposition vectors) of the flag checks, by intersections and ranks."""
    f, d = sys.field, sys.d
    flags = {z: du.build_flag(sys, z) for z in du.OMEGA}
    checks = {}

    ok, witness = True, None
    for z, F in flags.items():
        for i, comp in enumerate(F.components):
            if comp.rank() != i + 1:
                ok, witness = False, {"flag": z, "i": i}
    checks["flag_component_dimensions"] = (ok, witness)
    checks["flags_mutually_opposite"] = (
        all(ref_flags_opposite(F, G) for F in flags.values() for G in flags.values() if F.label != G.label), None)

    decomps = {}
    ok, witness = True, None
    for z, w in du.DECOMPOSITION_PAIRS:
        try:
            decomps[(z, w)] = ref_decomposition_vectors(sys, z, w)
        except DegenerateSplit as exc:
            ok, witness = False, {"pair": f"[{z}{w}]", "error": str(exc)}
    checks["decomposition_components_one_dimensional"] = (ok, witness)
    if not ok:
        return checks, decomps

    ok, witness = True, None
    for (z, w), vectors in decomps.items():
        for i in range(d + 1):
            if not same_column_space(Matrix.from_columns(f, vectors[: i + 1]), flags[z].components[i]):
                ok, witness = False, {"pair": f"[{z}{w}]", "flag": z, "i": i}
            if not same_column_space(Matrix.from_columns(f, vectors[::-1][: i + 1]), flags[w].components[i]):
                ok, witness = False, {"pair": f"[{z}{w}]", "flag": w, "i": i}
    checks["decompositions_induce_flags"] = (ok, witness)

    if bundle is not None:
        ok, witness = True, None
        for z, image in du.T_FLAG_IMAGE.items():
            for i in range(d + 1):
                if not same_column_space(bundle.t * flags[z].components[i], flags[image].components[i]):
                    ok, witness = False, {"flag": z, "i": i}
        checks["T_on_flags"] = (ok, witness)
    return checks, decomps


def assert_geometry_matches_reference(sys, bundle=None):
    report = du.verify_geometry_suite(sys, bundle)
    checks, decomps = reference_geometry(sys, bundle)
    got = {name: (report[name].passed, report[name].witness) for name in checks}
    assert got == checks
    assert set(checks) <= {c.name for c in report.checks}
    for (z, w), vectors in decomps.items():
        assert du.build_decomposition(sys, z, w).vectors == vectors
    return report


# --- inputs ---


def _conjugator(field, n):
    """Upper unitriangular ones times its transpose: dense, determinant 1."""
    upper = Matrix(field, ((field.one() if c >= r else field.zero() for c in range(n)) for r in range(n)))
    return upper * upper.transpose()


def krawtchouk_type(field, d, theta0, s, theta_star0, s_star, r):
    """theta_i = theta0 + s i, theta*_i = theta*0 + s* i, varphi_i = i(i-d-1) r,
    phi_i = i(i-d-1)(r - s s*)."""
    n = field.from_int
    return ParameterArray(
        field, d,
        [n(theta0 + s * i) for i in range(d + 1)],
        [n(theta_star0 + s_star * i) for i in range(d + 1)],
        [n(i * (i - d - 1) * r) for i in range(1, d + 1)],
        [n(i * (i - d - 1) * (r - s * s_star)) for i in range(1, d + 1)],
    )


def negative_controls():
    """Certified systems with theta* != theta, where T does not map the flags."""
    return [certify(krawtchouk_type(field, d, 3, 5, 11, 7, 13)) for field in (Q, GFP) for d in (2, 3, 4, 5)]


def with_bundle(sys):
    return du.build_duality_bundle(sys, require_self_dual=False)


# --- route == reference on certified systems ---


def test_corpus_geometry_matches_reference(corpus):
    for pa in corpus.arrays:
        s = corpus.system(pa)
        report = assert_geometry_matches_reference(s, with_bundle(s))
        assert report.all_pass == du.is_self_dual(pa)


def test_conjugated_corpus_geometry_matches_reference(corpus):
    for pa in corpus.arrays:
        s = corpus.system(pa)
        conj = s.conjugated(_conjugator(pa.field, s.d + 1))
        assert_geometry_matches_reference(conj, with_bundle(conj))


def test_negative_controls_match_reference_with_witness():
    for s in negative_controls():
        report = assert_geometry_matches_reference(s, with_bundle(s))
        assert not report["T_on_flags"].passed and report["T_on_flags"].witness is not None
        assert report["decompositions_induce_flags"].passed


def test_geometry_without_bundle_matches_reference(corpus):
    for pa in corpus.non_self_dual:
        assert_geometry_matches_reference(certify(pa))


def test_basis_representations_match_separate_solves(corpus):
    for pa in corpus.self_dual:
        s = corpus.system(pa)
        anchors = du.choose_anchor_vectors(s)
        bundle = du.build_duality_bundle(s, anchors)
        for basis_id in du.FOUR_BASES:
            B = Matrix.from_columns(pa.field, du.build_basis(s, anchors, basis_id))
            want = tuple(B.solve(M * B) for M in (bundle.t, s.A, s.Astar))
            assert du.basis_representations(s, bundle, basis_id, anchors) == want
            assert du.matrix_of_T(s, bundle, basis_id, anchors) == want[0]


# --- hand-built systems ---


def _same_eigenbases():
    """A d = 1 system with E*_i = E_i, so the flags [0] = [0*] and [D] = [D*]."""
    s = certify(krawtchouk_type(Q, 1, 3, 5, 3, 5, 13))
    return LeonardSystem(s.A, s.Astar, s.E, s.E, s.theta, s.theta_star, s.pa)


def test_non_opposite_pair_raises_naming_the_pair():
    # each component of [00*] is one-dimensional, but the two coincide: the
    # intersection route built a "decomposition" that does not span V
    s = _same_eigenbases()
    ref = ref_decomposition_vectors(s, "0", "0*")
    assert ref[0] == ref[1]
    assert not ref_flags_opposite(du.build_flag(s, "0"), du.build_flag(s, "0*"))
    with pytest.raises(DegenerateSplit, match=r"\[00\*\]"):
        du.build_decomposition(s, "0", "0*")
    report = du.verify_geometry_suite(s)
    assert report["flag_component_dimensions"].passed
    assert not report["flags_mutually_opposite"].passed
    assert report["decomposition_components_one_dimensional"].witness["pair"] == "[D*D]"
    assert "decompositions_induce_flags" not in report


def test_dependent_flag_basis_matches_reference():
    # E_0 twice: both E-flags are spanned by one line
    s = certify(krawtchouk_type(Q, 1, 3, 5, 3, 5, 13))
    broken = LeonardSystem(s.A, s.Astar, (s.E[0], s.E[0]), s.Estar, s.theta, s.theta_star, s.pa)
    report = du.verify_geometry_suite(broken)
    checks, _ = reference_geometry(broken)
    for name in ("flag_component_dimensions", "flags_mutually_opposite"):
        assert (report[name].passed, report[name].witness) == checks[name]
    assert report["flag_component_dimensions"].witness == {"flag": "D", "i": 1}
    assert not report["decomposition_components_one_dimensional"].passed


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
    return du.Flag("F", F), du.Flag("G", G), X


@settings(max_examples=300, deadline=None)
@given(basis_pairs())
def test_random_bases_match_reference(case):
    F, G, X = case
    vectors = du.opposite_vectors(F, G)
    assert du.flags_opposite(F, G) == (vectors is not None) == ref_flags_opposite(F, G)
    if vectors is not None:
        assert [v.normalized() for v in vectors] == [m.column(0).normalized() for m in ref_meets(F, G)]
    n = X.ncols
    assert du.spans_components(F, X) == [same_column_space(_prefix(X, i + 1), F.components[i]) for i in range(n)]
    assert du.spans_components(F, G.basis) == [same_column_space(_prefix(G.basis, i + 1), F.components[i])
                                               for i in range(n)]


def test_singular_basis_is_never_opposite():
    field = Field.prime(7)
    F = du.Flag("F", Matrix.from_ints(field, [[1, 2], [2, 4]]))
    G = du.Flag("G", Matrix.from_ints(field, [[0, 1], [1, 0]]))
    for pair in ((F, G), (G, F), (F, F)):
        assert du.opposite_vectors(*pair) is None
        assert not ref_flags_opposite(*pair)


# --- work bound ---


def test_suites_use_no_rank_or_intersection_loops(monkeypatch):
    """Only split_subspace intersects subspaces (d+1 calls); nothing compares column spaces."""
    s = certify(ParameterArray.from_json(FROZEN_ARRAYS[2]))
    calls = {"same_column_space": 0, "intersect_column_spaces": 0}

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        wrapper = counted(name, getattr(linalg, name))
        for module in (linalg, systems, du):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    anchors = du.choose_anchor_vectors(s)
    bundle = du.build_duality_bundle(s, anchors)
    assert du.verify_geometry_suite(s, bundle).all_pass
    assert du.verify_basis_family(s, anchors, du.build_24_bases(s, anchors)).all_pass
    assert calls == {"same_column_space": 0, "intersect_column_spaces": s.d + 1}
