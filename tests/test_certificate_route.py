"""The certificate routes: which fallback runs, on which systems.

Once `systems.certified` holds (every axiom, and d+1 values in theta and theta*), the split checks read Q P = I,
each decomposition is the first family of its pair in `BASIS_MEMBERSHIP`, each forward sequence is a basis, a
representation in a basis is the displayed X once M B == B X, and the round trip reads varphi and phi as ratios.
`tests/reference.py` decides all of these without the certificate (`assert_agrees`).  Here: on Leonard systems the
certificate holds, so does what it stands for, and no fallback (`split_projectors_by_intersection`,
`flag_decomposition`, `Matrix.rank`, `Matrix.inverse`, `Matrix.solve`) runs; on systems that fail an axiom the
fallbacks run, and on a mutated memo they decide as with the certificate switched off.
"""

from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from leonard import duality as du
from leonard import systems
from leonard.errors import DegenerateSplit
from leonard.fields import Field
from leonard.linalg import Matrix
from leonard.systems import build_system, certify

from conftest import krawtchouk
from reference import (DIFFERENTIAL, FORMS, GFP, Q, agrees_on, assert_agrees, by_inverse, drawn, eigen_anchors,
                       hand_built, not_leonard_arrays, passes)
from test_witnesses import mixed_anchors, non_self_dual_t, scaled_basis_vector, swapped_anchors, wrong_t

SPLIT = ("split_projectors_match_intersection", "split_projectors_resolution")


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


# --- Leonard systems: the certificates hold, and no fallback runs ---


def assert_certificates_taken(sys):
    """What `systems.certified` stands for holds, formed here: theta and theta* distinct, U A W = diag(theta), and
    no zero in columns 0 and d of U W* and U* W.  The suite, the decompositions and the 24 verdicts call no
    fallback, nor does the extraction, which with the certificate off solves twice for the same array."""
    assert systems.certified(sys)
    (W, U), (Ws, Us) = sys.eigenbasis(), sys.eigenbasis(star=True)
    assert len(set(sys.theta)) == len(set(sys.theta_star)) == sys.d + 1
    assert U * sys.A * W == Matrix(sys.field, [[t if i == j else sys.field.zero() for j in range(sys.d + 1)]
                                               for i, t in enumerate(sys.theta)])
    for M in (U * Ws, Us * W):
        assert all(row[j] for row in M.rows for j in (0, sys.d))
    (extracted, calls), (reference, reference_calls) = extractions(sys)
    assert extracted == reference == sys.parameter_array
    assert calls == [] and reference_calls == ["solve"] * 2
    anchors = du.choose_anchor_vectors(sys)
    with fallbacks() as calls:
        systems.standard_identity_suite(sys)
        for pair in du.DECOMPOSITION_PAIRS:
            du.build_decomposition(sys, *pair)
        verdicts = [du._is_basis(sys, anchors, basis_id) for basis_id in du.BASIS_IDS]
    assert calls == [] and all(verdicts)


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
@settings(DIFFERENTIAL, max_examples=12)
@given(data=st.data())
def test_generated_arrays_take_the_certificates(field, data):
    """Hypothesis arrays, in split form and conjugated to a dense basis: the certificate holds, so do the premises the
    routes no longer form (Terwilliger, LAA 330 (2001), Thm 1.9), and `bases` agrees with the reference."""
    pa = data.draw(drawn(field), label="pa")
    assert all(passes(agreed, "bases") for agreed in agrees_on(pa, ("split", "dense"), ("bases",)))
    for form in ("split", "dense"):
        assert_certificates_taken(FORMS[form](certify(pa)))


def test_corpus_takes_the_certificates(corpus):
    for pa in corpus.arrays:
        assert_certificates_taken(corpus.system(pa))


def assert_representations_shown(sys):
    """In each of the four bases the representations of A and A* are the displayed shapes, and so is that of T on a
    self-dual system; B is inverted exactly when that of T is not."""
    pa, t = sys.parameter_array, du.duality_operator(sys)
    shown = du.expected_matrix_of_T(pa)
    for basis_id in du.FOUR_BASES:
        with fallbacks() as calls:
            reps = du.basis_representations(sys, t, basis_id)
        assert reps[1:] == du.expected_pair_shapes(pa, basis_id)
        assert du.is_self_dual(pa) <= (reps[0] == shown)
        assert calls == ([] if reps[0] == shown else ["inverse"])


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
@settings(DIFFERENTIAL, max_examples=12)
@given(data=st.data())
def test_generated_representations_match_the_inverse(field, data):
    """Hypothesis arrays, self-dual or from `leonard_arrays`, in split form and conjugated to a dense basis: the
    representations agree with the reference's B^-1 (M B) (`matrix-of-t`), and once B is a basis, B^-1 M B = X
    exactly when M B = B X."""
    pa = data.draw(drawn(field, self_dual=True), label="pa")
    agrees_on(pa, ("split", "dense"), ("matrix-of-t",))
    for form in ("split", "dense"):
        assert_representations_shown(FORMS[form](certify(pa)))


def test_corpus_representations_match_the_inverse(corpus):
    """`matrix-of-t` in split form, the verb itself on the self-dual arrays."""
    for pa in corpus.arrays:
        agrees_on(pa, ("split",), ("matrix-of-t",))
        assert_representations_shown(corpus.system(pa))


@pytest.mark.parametrize("mutation", [wrong_t, non_self_dual_t, scaled_basis_vector, swapped_anchors, mixed_anchors],
                         ids=lambda m: m.__name__)
def test_mutated_representations_match_the_inverse(mutation, monkeypatch):
    """The pinned mutations that reach the representations give the reports they give with every representation
    formed as B^-1 (M B); under T = A, the true T of a non-self-dual system and a scaled basis vector (the report of
    `matrix-of-t`) the certificate fails and B is inverted.  The moved anchors leave their bases to the rank."""
    with fallbacks() as calls:
        checks = mutation()
    assert ("inverse" if mutation in (wrong_t, non_self_dual_t, scaled_basis_vector) else "rank") in calls
    monkeypatch.setattr(du, "basis_representations", lambda sys, t, basis_id, anchors=None: by_inverse(
        sys, t, du.build_basis(sys, anchors, basis_id)))
    assert mutation() == checks


# --- systems that fail a premise: the fallbacks run ---


@pytest.mark.parametrize("pa", not_leonard_arrays())
def test_not_leonard_arrays_take_the_fallbacks(pa):
    """Both tridiagonal axioms fail on these arrays, so the certificate does not hold and each certificate leaves
    its checks to the elimination (`tests/test_factor_route.py` holds these reports to the reference)."""
    sys = build_system(pa)
    with fallbacks() as calls:
        checks = reports(sys, eigen_anchors(sys))
    assert not systems.certified(sys) and not all(passed for passed, _ in checks.values())
    assert {"split", "decomposition", "solve"} <= set(calls)


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
def test_sheared_e0_takes_the_fallbacks(field):
    """U W != I: the axiom idempotents_E_orthogonal fails, so the certificate does not hold, and the split checks
    keep their witnesses (`tests/test_premise_route.py` holds these reports to the reference)."""
    sys = hand_built(field, 3)["E_0 sheared"]
    with fallbacks() as calls:
        checks = reports(sys, eigen_anchors(sys))
    assert {"split", "decomposition", "solve"} <= set(calls)
    assert [checks[name] for name in SPLIT] == [(False, None)] * 2
    assert not checks["idempotents_E_orthogonal"][0] and checks["flags_mutually_opposite"] == (True, None)


@pytest.mark.parametrize("field", [Q, Field.prime(7), GFP], ids=["Q", "GF(7)", "GF(2^31-1)"])
def test_hand_built_round_trips_take_the_solve(field):
    """Every hand-built system that fails an axiom solves for its split sequences and extracts what it extracts with
    the certificate off, an error included; the one whose matrices are Leonard (only its stored array moved) reads
    them off the certificate."""
    for name, sys in hand_built(field, 3).items():
        (extracted, calls), (reference, reference_calls) = extractions(sys)
        assert extracted == reference, name
        assert systems.certified(sys) == (name == "stored theta_0 moved"), name
        assert reference_calls == ["solve"] * 2 and calls == ([] if systems.certified(sys) else reference_calls), name


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
def test_certified_extraction_reads_theta_without_traces(field, monkeypatch):
    """Once the certificate holds, U W = I and U A W = diag(theta) give tr(A E_i) = theta_i (theta* alike), so
    `certify` on a split-form array calls `trace_of_product` 0 times; on a not-Leonard array (varphi_1 raised by 1)
    the extraction still reads theta and theta* as 2(d+1) traces, and `verify` calls it for them alone, as
    `trace_products` reads tr(E_r E*_j) off the eigenbases (while it formed them densely, for them and more)."""
    calls, trace = [], systems.trace_of_product
    monkeypatch.setattr(systems, "trace_of_product", lambda X, Y: calls.append(1) or trace(X, Y))
    pa = krawtchouk(field, 4)
    certify(pa)
    assert calls == []
    bumped = build_system(replace(pa, varphi=(pa.varphi[0] + field.one(), *pa.varphi[1:])))
    assert not systems.certified(bumped)
    try:
        systems.extract_parameter_array(bumped)
    except DegenerateSplit:
        pass
    assert len(calls) == 2 * (pa.d + 1)
    systems.standard_identity_suite(build_system(bumped.pa))
    assert len(calls) == 4 * (pa.d + 1)


NOT_OPPOSITE = ("7-d3-1", "7-d3-3", "7-d4-2", "7-d4-3", "7-d5-3")  # over GF(7), a pair of flags is not opposite


@pytest.mark.parametrize("pa", [pa for pa in not_leonard_arrays() if pa.id in NOT_OPPOSITE])
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


# --- a mutated memo: the fallbacks decide as with the certificate switched off ---


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
    certificates fall back, calling each fallback, and decide as with `systems.certified` off; the eliminations read
    no B*, so the split checks and the decompositions pass."""
    build = _mutated(field, (True, "A", True), 1, 0)
    sys = build()
    with fallbacks() as calls:
        checks = reports(sys, eigen_anchors(sys))
    assert {"split", "decomposition", "solve"} <= set(calls)
    with pytest.MonkeyPatch.context() as patch:
        for owner in (systems, du):  # duality reads the name it imports
            patch.setattr(owner, "certified", lambda sys: False)
        reference = build()
        assert checks == reports(reference, eigen_anchors(reference))
    assert checks["tridiagonal_A_in_Astar_eigenbasis"] == (False, None)
    assert all(checks[name] == (True, None) for name in (*SPLIT, "flags_mutually_opposite", "bases_invertible"))


def test_bases_on_other_anchors_are_ranked():
    """An anchor that is not the eigencolumn it names (v0 := v*0) leaves its sequences to the rank, which finds each
    sequence on v0 singular; `assert_agrees` holds the verdicts to the reference's ranks on such anchors."""
    s = certify(krawtchouk(Q, 3))
    anchors = replace(du.choose_anchor_vectors(s), v0=du.choose_anchor_vectors(s).v0s)
    with fallbacks() as calls:
        verdicts = {basis_id: du._is_basis(s, anchors, basis_id) for basis_id in du.BASIS_IDS}
    assert calls.count("rank") == 3  # taustar, etastar and estar on v0
    assert {basis_id for basis_id, ok in verdicts.items() if not ok} == {
        basis_id for basis_id in du.BASIS_IDS if basis_id.endswith("-v0")}
    assert_agrees(s, ("bases",))
