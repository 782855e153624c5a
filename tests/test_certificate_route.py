"""The certificate routes against the eliminations they replace.

`systems.certified` holds when every axiom of the memoised `verify_axioms` report holds and theta and theta* have
d+1 values.  Once it holds, `standard_identity_suite` reads the two split checks off Q P = I for the closed-form
factors (P, Q) of `split_factors`, `duality._decomposition` takes the first family of each pair in
`BASIS_MEMBERSHIP`, and `duality._is_basis` accepts each of the 12 forward sequences.  In a basis it accepts,
`duality.basis_representations` reads the matrix of T, A or A* as the displayed X once M B == B X (that of T holds
on a self-dual system only).  The round trip of `extract_parameter_array` reads each varphi_i and phi_i as one ratio
of coordinates (`systems._superdiagonal_in_split_basis`).  The routes they replace stay as the fallbacks and serve
here as references: `split_projectors_by_intersection`, `flag_decomposition`, `Matrix.rank`, `Matrix.inverse` and
the round trip's `Matrix.solve`.  On Leonard systems, in split form and conjugated to a dense basis, the certificate
holds, what it stands for holds too (theta and theta* distinct, U A W = diag(theta), no zero at either end of a row
of U W* or U* W), no fallback runs, and verdicts, normalized vectors and extracted arrays match the references.  On
systems that fail an axiom (the not-Leonard Krawtchouk arrays, and one hand-made system per premise), the fallback
runs and every report and extraction equals the one with the certificate switched off.
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

from conftest import conjugator, field_scalars, krawtchouk, leonard_array, leonard_arrays
from test_cyclic_route import hand_built, premise_failures
from test_factor_route import perturbed_arrays
from test_witnesses import mixed_anchors, non_self_dual_t, scaled_basis_vector, swapped_anchors, wrong_t

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


def representations_reference(sys, t, basis_id, anchors=None) -> tuple:
    """B^-1 (M B) for M = t, A and A*, with B inverted by elimination: what `basis_representations` did for every
    basis before its certificate."""
    B = Matrix.from_columns(sys.field, du.build_basis(sys, anchors, basis_id))
    inverse = B.inverse()
    return tuple(inverse * (M * B) for M in (t, sys.A, sys.Astar))


@contextmanager
def fallbacks():
    """The names of the fallbacks called inside the block, one entry per call."""
    calls, patch = [], pytest.MonkeyPatch()
    for owner, name, label in ((systems, "split_projectors_by_intersection", "split"),
                               (du, "flag_decomposition", "decomposition"), (Matrix, "rank", "rank"),
                               (Matrix, "inverse", "inverse"), (Matrix, "solve", "solve")):
        original = getattr(owner, name)
        patch.setattr(owner, name, lambda *a, _original=original, _label=label: calls.append(_label) or _original(*a))
    try:
        yield calls
    finally:
        patch.undo()


def reports(sys, anchors) -> dict:
    """name -> (passed, witness) over `verify`'s suite, the geometry suite and the basis family."""
    return {c.name: (c.passed, c.witness) for report in (systems.standard_identity_suite(sys),
            du.verify_geometry_suite(sys), du.verify_basis_family(sys, anchors)) for c in report.checks}


def extractions(sys) -> tuple:
    """(array or error, fallbacks called) of `extract_parameter_array` on sys, with the certificate and with
    `systems.certified` off."""
    systems.certified(sys)  # memoised first, so the calls recorded are the extraction's own
    out = []
    for patched in (False, True):
        with pytest.MonkeyPatch.context() as patch, fallbacks() as calls:
            if patched:
                patch.setattr(systems, "certified", lambda sys: False)
            try:
                out.append((systems.extract_parameter_array(sys), calls))
            except DegenerateSplit as exc:
                out.append((str(exc), calls))
    return tuple(out)


def eigen_anchors(sys) -> du.AnchorVectors:
    """The anchors `choose_anchor_vectors` picks, with every inner product 1, as G may not exist."""
    one = sys.field.one()
    return du.AnchorVectors(*(sys.eigencolumn(j, star).normalized() for star in (False, True) for j in (0, sys.d)),
                            *[one] * 8)


# --- Leonard systems: the certificates hold and agree with the references ---


def assert_certificate_premises(sys):
    """What `systems.certified` stands for, formed here: theta and theta* distinct, U A W = diag(theta), and no zero
    in columns 0 and d of U W* and U* W."""
    (W, U), (Ws, Us) = sys.eigenbasis(), sys.eigenbasis(star=True)
    assert len(set(sys.theta)) == len(set(sys.theta_star)) == sys.d + 1
    assert U * sys.A * W == Matrix(sys.field, [[t if i == j else sys.field.zero() for j in range(sys.d + 1)]
                                               for i, t in enumerate(sys.theta)])
    for M in (U * Ws, Us * W):
        assert all(row[j] for row in M.rows for j in (0, sys.d))


def assert_certified_routes_match(sys):
    assert systems.certified(sys)
    assert_certificate_premises(sys)
    (extracted, calls), (reference, reference_calls) = extractions(sys)
    assert extracted == reference == sys.parameter_array
    assert calls == [] and reference_calls == ["solve"] * 2
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
    """Hypothesis `leonard_arrays` at d = 1..6, in split form and conjugated to a dense basis: the certificate holds,
    so do the premises the routes no longer form (Terwilliger, LAA 330 (2001), Thm 1.9), and the routes match the
    references."""
    pa = data.draw(st.integers(1, 6).flatmap(lambda d: leonard_arrays(field, d)))
    s = certify(pa)
    for sys in (s, s.conjugated(conjugator(field, pa.d + 1))):
        assert_certified_routes_match(sys)


def test_corpus_takes_the_certificates(corpus):
    for pa in corpus.arrays:
        assert_certified_routes_match(corpus.system(pa))


def self_dual_arrays(field, d):
    """Hypothesis strategy: the arrays of `leonard_array` with theta* = theta."""
    x = field_scalars(field)
    return (st.tuples(st.tuples(x, x, x), x, x).map(lambda s: leonard_array(field, d, s[0], s[0], s[1], s[2]))
            .filter(lambda pa: pa is not None))


def assert_representations_match(sys):
    """In each of the four bases on the anchors `choose_anchor_vectors` picks, the representations of T, A and A*
    equal B^-1 (M B); those of A and A* are the displayed shapes, and so is that of T on a self-dual system, and B
    is inverted exactly when that of T is not."""
    pa, t = sys.parameter_array, du.duality_operator(sys)
    shown = du.expected_matrix_of_T(pa)
    for basis_id in du.FOUR_BASES:
        with fallbacks() as calls:
            reps = du.basis_representations(sys, t, basis_id)
        assert reps == representations_reference(sys, t, basis_id)
        assert reps[1:] == du.expected_pair_shapes(pa, basis_id)
        assert du.is_self_dual(pa) <= (reps[0] == shown)
        assert calls == ([] if reps[0] == shown else ["inverse"])


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_generated_representations_match_the_inverse(field, data):
    """Hypothesis arrays at d = 1..6, self-dual or from `leonard_arrays`, in split form and conjugated to a dense
    basis: once B is a basis, B^-1 M B = X exactly when M B = B X."""
    d = data.draw(st.integers(1, 6), label="d")
    s = certify(data.draw(st.one_of(leonard_arrays(field, d), self_dual_arrays(field, d)), label="pa"))
    for sys in (s, s.conjugated(conjugator(field, d + 1))):
        assert_representations_match(sys)


def test_corpus_representations_match_the_inverse(corpus):
    for pa in corpus.arrays:
        assert_representations_match(corpus.system(pa))


@pytest.mark.parametrize("mutation", [wrong_t, non_self_dual_t, scaled_basis_vector, swapped_anchors, mixed_anchors],
                         ids=lambda m: m.__name__)
def test_mutated_representations_match_the_inverse(mutation, monkeypatch):
    """The pinned mutations that reach the representations give the reports they give with every representation
    formed as B^-1 (M B); under T = A, the true T of a non-self-dual system and a scaled basis vector (the report of
    `matrix-of-t`) the certificate fails and B is inverted.  The moved anchors leave their bases to the rank."""
    with fallbacks() as calls:
        checks = mutation()
    assert ("inverse" if mutation in (wrong_t, non_self_dual_t, scaled_basis_vector) else "rank") in calls
    monkeypatch.setattr(du, "basis_representations", representations_reference)
    assert mutation() == checks


# --- systems that fail a premise: the fallback runs and decides as without the certificates ---


def assert_fallback_decides(build, anchors=eigen_anchors, taken=("split", "decomposition", "solve")):
    """A fresh build() with the certificate and one with `systems.certified` off give the same reports, the first
    calling each fallback in taken; when the split fallback is taken, the split checks are the intersection route's
    outcomes."""
    sys = build()
    with fallbacks() as calls:
        checks = reports(sys, anchors(sys))
    assert set(taken) <= set(calls)
    with pytest.MonkeyPatch.context() as patch:
        for owner in (systems, du):  # duality reads the name it imports
            patch.setattr(owner, "certified", lambda sys: False)
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
    """U W != I: the axiom idempotents_E_orthogonal fails, so the certificate does not hold, and the split checks
    keep their witnesses."""
    checks = assert_fallback_decides(lambda: hand_built(field, 3)["E_0 sheared"])
    assert [checks[name] for name in SPLIT] == [(False, None)] * 2
    assert not checks["idempotents_E_orthogonal"][0] and checks["flags_mutually_opposite"] == (True, None)


@pytest.mark.parametrize("field", [Q, Field.prime(7), GFP], ids=["Q", "GF(7)", "GF(2^31-1)"])
def test_hand_built_round_trips_take_the_solve(field):
    """Every hand-built system that fails an axiom solves for its split sequences and extracts what it extracts with
    the certificate off, an error included; the one whose matrices are Leonard (only its stored array moved) reads
    them off the certificate."""
    for name, sys in {**hand_built(field, 3), **premise_failures(field, 3)}.items():
        (extracted, calls), (reference, reference_calls) = extractions(sys)
        assert extracted == reference, name
        assert systems.certified(sys) == (name == "stored theta_0 moved"), name
        assert reference_calls == ["solve"] * 2 and calls == ([] if systems.certified(sys) else reference_calls), name


NOT_OPPOSITE = ("7-d3-1", "7-d3-3", "7-d4-2", "7-d4-3", "7-d5-3")  # over GF(7), a pair of flags is not opposite


@pytest.mark.parametrize("pa", [pa for pa in perturbed_arrays() if pa.id in NOT_OPPOSITE])
def test_basis_family_reports_flags_that_are_not_opposite(pa):
    """`verify_basis_family` reports, as the geometry suite does: the span check fails with the pair that does not
    decompose and its error as witness, and the other checks run."""
    sys = build_system(pa)
    assert not du.verify_geometry_suite(sys)["flags_mutually_opposite"].passed
    report = du.verify_basis_family(sys, eigen_anchors(sys))
    assert [c.name for c in report.checks] == [
        "bases_invertible", "bases_span_decomposition_components", "bases_inversion_pairing"]
    span = report["bases_span_decomposition_components"]
    assert not span.passed and set(span.witness) == {"pair", "error"}
    assert span.witness["error"].endswith(f"of {span.witness['pair']} are not opposite")


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
