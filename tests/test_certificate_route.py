"""The certificate routes against the eliminations they replace.

`standard_identity_suite` reads the two split checks off Q P = I for the closed-form factors (P, Q) of
`split_factors` once E and E* are orthogonal, E spectral, B* = U* A W* irreducible tridiagonal, theta distinct
and U w*_0 without a zero entry.  `duality._decomposition` takes the first family of each pair in
`BASIS_MEMBERSHIP`, and `duality._is_basis` accepts each of the 12 forward sequences, once `duality._certified`
holds: every axiom of the memoised `verify_axioms` report, and anchor coordinates without a zero entry.  The routes
they replace stay as the fallbacks and serve here as references: `split_projectors_by_intersection`,
`flag_decomposition` and `Matrix.rank`.  On Leonard systems, in split form and conjugated to a dense basis, the
certificates hold and no fallback runs; verdicts and normalized vectors match the references.  On systems that
fail a premise (the not-Leonard Krawtchouk arrays, and one hand-made system per premise), the fallback runs and
every report equals the one with the certificates switched off.
"""

from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leonard import duality as du
from leonard import systems
from leonard.errors import DegenerateSplit, SingularMatrix
from leonard.fields import Field
from leonard.linalg import Matrix, flag_decomposition, rank_one_factors
from leonard.systems import build_system, certify, split_projectors, split_projectors_by_intersection

from conftest import conjugator, krawtchouk, leonard_arrays
from test_cyclic_route import hand_built
from test_factor_route import perturbed_arrays

Q, GFP = Field.rational(), Field.prime(2**31 - 1)
SPLIT = ("split_projectors_match_intersection", "split_projectors_resolution")


# --- the references: today's fallbacks, run on their own ---


def split_reference(sys) -> list:
    """(passed, witness) of the two split checks by the intersection route: the closed-form projectors against
    those of the split lines, and Q P = I on the rank-one factors of the closed form; both fail with the error
    the route raises."""
    try:
        F = split_projectors(sys)
        match, PQ = F == split_projectors_by_intersection(sys), rank_one_factors(F)
    except (DegenerateSplit, SingularMatrix) as exc:
        return [(False, {"error": str(exc)})] * 2
    return [(match, None), (PQ is not None and PQ[1] * PQ[0] == Matrix.identity(sys.field, sys.d + 1), None)]


def decomposition_reference(sys, z, w):
    """The normalized vectors of [zw] by elimination on the flags (`flag_decomposition`), None when not opposite."""
    F, G = du.build_flag(sys, z), du.build_flag(sys, w)
    vectors = None if F.inverse is None else flag_decomposition(F.inverse * G.basis, G.basis)
    return None if vectors is None else tuple(v.normalized() for v in vectors)


def rank_reference(sys, anchors, basis_id) -> bool:
    return Matrix.from_columns(sys.field, du.build_basis(sys, anchors, basis_id)).rank() == sys.d + 1


@contextmanager
def fallbacks():
    """The names of the fallbacks called inside the block, one entry per call."""
    calls, patch = [], pytest.MonkeyPatch()
    for owner, name, label in ((systems, "split_projectors_by_intersection", "split"),
                               (du, "flag_decomposition", "decomposition"), (Matrix, "rank", "rank")):
        original = getattr(owner, name)
        patch.setattr(owner, name, lambda *a, _original=original, _label=label: calls.append(_label) or _original(*a))
    try:
        yield calls
    finally:
        patch.undo()


def reports(sys, anchors) -> dict:
    """name -> (passed, witness) over `verify`'s suite, the geometry suite and the basis family, which raises the
    DegenerateSplit of the first pair that does not decompose."""
    out = {c.name: (c.passed, c.witness) for report in (systems.standard_identity_suite(sys),
                                                        du.verify_geometry_suite(sys)) for c in report.checks}
    try:
        out.update((c.name, (c.passed, c.witness)) for c in du.verify_basis_family(sys, anchors).checks)
    except DegenerateSplit as exc:
        out["basis family"] = (False, str(exc))
    return out


def eigen_anchors(sys) -> du.AnchorVectors:
    """The anchors `choose_anchor_vectors` picks, with every inner product 1, as G may not exist."""
    one = sys.field.one()
    return du.AnchorVectors(*(sys.eigencolumn(j, star).normalized() for star in (False, True) for j in (0, sys.d)),
                            *[one] * 8)


# --- Leonard systems: the certificates hold and agree with the references ---


def assert_certified_routes_match(sys):
    anchors = du.choose_anchor_vectors(sys)
    with fallbacks() as calls:
        report = systems.standard_identity_suite(sys)
        decomps = {pair: du.build_decomposition(sys, *pair).vectors for pair in du.DECOMPOSITION_PAIRS}
        verdicts = {basis_id: du._is_basis(sys, anchors, basis_id) for basis_id in du.BASIS_IDS}
    assert calls == []
    assert [(report[name].passed, report[name].witness) for name in SPLIT] == split_reference(sys) == [(True, None)] * 2
    assert decomps == {pair: decomposition_reference(sys, *pair) for pair in du.DECOMPOSITION_PAIRS}
    assert verdicts == {basis_id: rank_reference(sys, anchors, basis_id) for basis_id in du.BASIS_IDS}
    assert all(verdicts.values())


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_generated_arrays_take_the_certificates(field, data):
    """Hypothesis `leonard_arrays` at d = 1..6, in split form and conjugated to a dense basis."""
    pa = data.draw(st.integers(1, 6).flatmap(lambda d: leonard_arrays(field, d)))
    s = certify(pa)
    for sys in (s, s.conjugated(conjugator(field, pa.d + 1))):
        assert_certified_routes_match(sys)


def test_corpus_takes_the_certificates(corpus):
    for pa in corpus.arrays:
        assert_certified_routes_match(corpus.system(pa))


# --- systems that fail a premise: the fallback runs and decides as without the certificates ---


def assert_fallback_decides(build, anchors=eigen_anchors, taken=("split", "decomposition")):
    """A fresh build() with the certificates and one with `duality._certified` off give the same reports, the first
    calling each fallback in taken; when the split fallback is taken, the split checks are the intersection route's
    outcomes."""
    sys = build()
    with fallbacks() as calls:
        checks = reports(sys, anchors(sys))
    assert set(taken) <= set(calls)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(du, "_certified", lambda sys: False)
        reference = build()
        assert checks == reports(reference, anchors(reference))
    if "split" in taken:
        assert [checks[name] for name in SPLIT] == split_reference(build())
    return checks


@pytest.mark.parametrize("pa", perturbed_arrays())
def test_not_leonard_arrays_take_the_fallbacks(pa):
    """Both tridiagonal axioms fail on these arrays, so each certificate leaves its checks to the elimination."""
    assert_fallback_decides(lambda: build_system(pa))


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
def test_sheared_e0_takes_the_fallbacks(field):
    """U W != I: the premise U W = I of both certificates fails, and the split checks keep their witnesses."""
    checks = assert_fallback_decides(lambda: hand_built(field, 3)["E_0 sheared"])
    assert [checks[name] for name in SPLIT] == [(False, None)] * 2
    assert not checks["idempotents_E_orthogonal"][0] and checks["flags_mutually_opposite"] == (True, None)


def _mutated(field, key, i, j):
    """A fresh build of the Krawtchouk system at d = 3 whose memoised change of basis key has entry (i, j) set to 0."""
    def build():
        s = build_system(krawtchouk(field, 3))
        M = systems.change_of_basis(s, *key)
        rows = [list(row) for row in M.rows]
        rows[i][j] = field.zero()
        s._memo[("change_of_basis", *key)] = Matrix(field, rows)
        return s
    return build


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
def test_reducible_b_star_takes_the_fallbacks(field):
    """B* = U* A W* with entry (1, 0) set to 0: tridiagonal, not irreducible.  The tridiagonal axiom fails, so both
    certificates fall back; the eliminations read no B*, so the split checks and the decompositions pass."""
    checks = assert_fallback_decides(_mutated(field, (True, "A", True), 1, 0))
    assert checks["tridiagonal_A_in_Astar_eigenbasis"] == (False, None)
    assert all(checks[name] == (True, None) for name in (*SPLIT, "flags_mutually_opposite", "bases_invertible"))


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
@pytest.mark.parametrize("key", [(False, None, True), (True, None, False)], ids=["U-Wstar", "Ustar-W"])
def test_zero_anchor_coordinate_takes_the_fallbacks(field, key):
    """U W* (resp. U* W) with entry (2, 3), an anchor coordinate of w*_d (resp. w_d), set to 0: the decompositions
    and the bases fall back, and the elimination reads the same zero.  The split certificate reads U w*_0 off its own
    product, so it holds.  Once the axioms hold, the anchor coordinates are the end entries of left eigenvectors of
    the irreducible tridiagonal B* (resp. B), never 0, so only a wrong memo entry fails this premise alone."""
    checks = assert_fallback_decides(_mutated(field, key, 2, 3), taken=("decomposition", "rank"))
    assert not checks["decompositions_induce_flags"][0]
    assert all(checks[name] == (True, None) for name in (*SPLIT, "bases_invertible"))


def test_bases_on_other_anchors_are_ranked():
    """An anchor that is not the eigencolumn it names (v0 := v*0) leaves its sequences to the rank."""
    s = certify(krawtchouk(Q, 3))
    anchors = replace(du.choose_anchor_vectors(s), v0=du.choose_anchor_vectors(s).v0s)
    with fallbacks() as calls:
        verdicts = {basis_id: du._is_basis(s, anchors, basis_id) for basis_id in du.BASIS_IDS}
    assert calls.count("rank") == 3  # taustar, etastar and estar on v0
    assert verdicts == {basis_id: rank_reference(s, anchors, basis_id) for basis_id in du.BASIS_IDS}
    assert {basis_id for basis_id, ok in verdicts.items() if not ok} == {
        basis_id for basis_id in du.BASIS_IDS if basis_id.endswith("-v0")}
