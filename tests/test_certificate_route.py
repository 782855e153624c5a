"""The certificate routes: which fallback runs, on which systems.

Once `systems.certified` holds (every axiom, and d+1 values in theta and theta*), the split checks read Q P = I,
each decomposition is the first family of its pair in `BASIS_MEMBERSHIP`, each forward sequence is a basis, a
representation in a basis is the displayed X once M B == B X, and the round trip reads varphi and phi as ratios.
`tests/reference.py` decides all of these without the certificate (`assert_agrees`).  Here: on Leonard systems the
certificate holds, so does what it stands for, and no fallback (`split_projectors_by_intersection` and its
`flag_decomposition`, `Matrix.rank`, `Matrix.inverse`, `Matrix.solve`) runs.  On systems that fail an axiom, the
fallbacks of `verify` run, while `duality` keeps none: each of its checks read off the certificate (T_polynomial_form,
the flags and decompositions of the geometry suite, bases_span_decomposition_components) fails with the first failed
axiom as witness (`systems.certificate_failure`), and no decomposition is built.  On a mutated memo the fallbacks
decide as with the certificate switched off.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from leonard import duality as du
from leonard import systems
from leonard.errors import DegenerateSplit
from leonard.fields import Field
from leonard.linalg import Matrix
from leonard.systems import LeonardSystem, build_system, certify

from conftest import krawtchouk
from reference import (CERTIFICATE_GEOMETRY, DIFFERENTIAL, FORMS, GF7, GFP, Q, Reference, agrees_on, assert_agrees,
                       bidiagonal_idempotents, by_inverse, drawn, eigen_anchors, hand_built, mixed_anchors,
                       non_self_dual_t, not_leonard_arrays, passes, q_racah, recording, scaled_basis_vector,
                       swapped_anchors, wrong_t)

SPLIT = ("split_projectors_match_intersection", "split_projectors_resolution")
# the checks of `duality` read off the certificate alone: four of the geometry suite, the only ones it reports when
# the certificate fails, and bases_span_decomposition_components
PREMISE_CHECKS = (*CERTIFICATE_GEOMETRY, "bases_span_decomposition_components")


# the fallbacks, for `reference.recording`; those of the split checks and the round trip of `verify`
FALLBACKS = ((systems, "split_projectors_by_intersection"), (systems, "flag_decomposition"), (Matrix, "rank"),
             (Matrix, "inverse"), (Matrix, "solve"))
SPLIT_FALLBACKS = {"split_projectors_by_intersection", "flag_decomposition", "solve"}


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
        with pytest.MonkeyPatch.context() as patch, recording(*FALLBACKS) as calls:
            if patched:
                patch.setattr(systems, "certified", lambda sys: False)
            try:
                out.append((systems.extract_parameter_array(sys), calls.names))
            except DegenerateSplit as exc:
                out.append((str(exc), calls.names))
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
    with recording(*FALLBACKS) as calls:
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
        with recording(*FALLBACKS) as calls:
            reps = du.basis_representations(sys, t, basis_id)
        assert reps[1:] == du.expected_pair_shapes(pa, basis_id)
        assert du.is_self_dual(pa) <= (reps[0] == shown)
        assert calls.names == ([] if reps[0] == shown else ["inverse"])


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
    with recording(*FALLBACKS) as calls:
        checks = mutation()
    assert ("inverse" if mutation in (wrong_t, non_self_dual_t, scaled_basis_vector) else "rank") in calls.names
    monkeypatch.setattr(du, "basis_representations", lambda sys, t, basis_id, anchors=None: by_inverse(
        sys, t, du.build_basis(sys, anchors, basis_id)))
    assert mutation() == checks


# --- systems that fail a premise: the fallbacks run ---


def premise_failed(checks: dict, error: str) -> bool:
    """Whether each of PREMISE_CHECKS fails with error as witness."""
    return all(checks[name] == (False, {"error": error}) for name in PREMISE_CHECKS)


@pytest.mark.parametrize("pa", not_leonard_arrays())
def test_not_leonard_arrays_take_the_fallbacks(pa):
    """Both tridiagonal axioms fail on these arrays, so the certificate does not hold: `verify` leaves its split
    checks and round trip to the elimination, and each check of `duality` read off the certificate fails with the
    first failed axiom as witness (`tests/test_factor_route.py` holds these reports to the reference)."""
    sys = build_system(pa)
    with recording(*FALLBACKS) as calls:
        checks = reports(sys, eigen_anchors(sys))
    assert not systems.certified(sys) and not all(passed for passed, _ in checks.values())
    assert SPLIT_FALLBACKS <= set(calls.names)
    assert premise_failed(checks, "tridiagonal_Astar_in_A_eigenbasis fails")


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
def test_sheared_e0_takes_the_fallbacks(field):
    """U W != I: the axiom idempotents_E_orthogonal fails, so the certificate does not hold, the split checks keep
    their witnesses, and the checks of `duality` read off the certificate fail with that axiom as witness, although
    the flags, W and W* unchanged, are mutually opposite (`tests/test_premise_route.py` holds these reports to the
    reference)."""
    sys = hand_built(field, 3)["E_0 sheared"]
    with recording(*FALLBACKS) as calls:
        checks = reports(sys, eigen_anchors(sys))
    assert SPLIT_FALLBACKS <= set(calls.names)
    assert [checks[name] for name in SPLIT] == [(False, None)] * 2
    assert not checks["idempotents_E_orthogonal"][0] and premise_failed(checks, "idempotents_E_orthogonal fails")
    assert Reference(sys).not_opposite(du.DECOMPOSITION_PAIRS) is None


@pytest.mark.parametrize("field", [Q, Field.prime(7), GFP], ids=["Q", "GF(7)", "GF(2^31-1)"])
def test_hand_built_round_trips_take_the_solve(field):
    """Every hand-built system that fails an axiom and whose families factor solves for its split sequences and
    extracts what it extracts with the certificate off, an error included; one with a family that does not factor
    fails on it (`Reference.factor`) before any fallback, ranking no E_i again, as `verify_axioms` ranked them; the
    one whose matrices are Leonard (only its stored array moved) reads them off the certificate."""
    for name, sys in hand_built(field, 3).items():
        (extracted, calls), (reference, reference_calls) = extractions(sys)
        assert extracted == reference, name
        assert systems.certified(sys) == (name == "stored theta_0 moved"), name
        factor = Reference(sys).factor(False) or Reference(sys).factor(True)
        assert extracted == factor if factor else reference_calls == ["solve"] * 2, name
        assert calls == ([] if systems.certified(sys) or factor else reference_calls), name


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
def test_extraction_reads_theta_off_the_factors(field):
    """Once the certificate holds, U W = I and U A W = diag(theta) give tr(A E_i) = theta_i (theta* alike), so
    `certify` on a split-form array reads no diagonal of a product; on a not-Leonard array (varphi_1 raised by 1) the
    extraction reads theta and theta* as the diagonals of U (A W) and U* (A* W*), 2 of them, which are the dense
    traces tr(A E_i) and tr(A* E*_i) (`reference.bidiagonal_idempotents`), and `verify` reads them alone."""
    pa = krawtchouk(field, 4)
    with recording((systems, "_diagonal_of_product")) as calls:
        certify(pa)
        assert calls == []
        bumped = build_system(replace(pa, varphi=(pa.varphi[0] + field.one(), *pa.varphi[1:])))
        assert not systems.certified(bumped)
        try:
            systems.extract_parameter_array(bumped)
        except DegenerateSplit:
            pass
        read = list(calls)
        systems.standard_identity_suite(build_system(bumped.pa))
    dense = [(bumped.A, bidiagonal_idempotents(field, pa.theta)),
             (bumped.Astar, bidiagonal_idempotents(field, pa.theta_star, bumped.pa.varphi))]
    assert [systems._diagonal_of_product(*args) for _, args in read] == [
        tuple((M * E).trace() for E in mats) for M, mats in dense]
    assert len(calls) == 4


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
def test_verify_forms_no_idempotent(field):
    """With E_i = w_i u_i^T, tr(A E_i) = u_i^T A w_i and tr(E_i E*_j) = (u_i . w*_j)(u*_j . w_i) whether or not
    U W = I, so `verify` reads `LeonardSystem.idempotents` 0 times, on the q-Racah and Krawtchouk arrays at d = 4 and
    on each with varphi_1 raised by 1 (not Leonard, where the extraction once formed both families for 2(d+1) dense
    traces), and no dense E_i is formed."""
    arrays = [q_racah(field, 4), krawtchouk(field, 4)]
    for pa in arrays + [replace(pa, varphi=(pa.varphi[0] + field.one(), *pa.varphi[1:])) for pa in arrays]:
        with recording((LeonardSystem, "idempotents")) as reads:
            report = systems.standard_identity_suite(build_system(pa))
        assert reads == [] and report.all_pass == (pa in arrays), pa


NOT_OPPOSITE = ("7-d3-1", "7-d3-3", "7-d4-2", "7-d4-3", "7-d5-3")  # over GF(7), a pair of flags is not opposite


@pytest.mark.parametrize("pa", [pa for pa in not_leonard_arrays() if pa.id in NOT_OPPOSITE])
def test_basis_family_reports_flags_that_are_not_opposite(pa):
    """On these arrays a pair of flags is not opposite (the reference's intersections find it), and the certificate
    fails: `verify_basis_family` reports, as the geometry suite does, with the span check failing on the first failed
    axiom as witness, and the other checks run."""
    sys = build_system(pa)
    assert Reference(sys).not_opposite(du.DECOMPOSITION_PAIRS) is not None
    premise = {"error": systems.certificate_failure(sys)}
    assert du.verify_geometry_suite(sys)["flags_mutually_opposite"].witness == premise
    report = du.verify_basis_family(sys, eigen_anchors(sys))
    assert [c.name for c in report.checks] == [
        "bases_invertible", "bases_span_decomposition_components", "bases_inversion_pairing"]
    assert report["bases_span_decomposition_components"].witness == premise == {
        "error": "tridiagonal_Astar_in_A_eigenbasis fails"}


def assert_fails_on_the_first_failed_axiom(sys):
    """The certificate fails on sys, and every check of `duality` read off it fails with the first failed axiom of
    `verify_axioms` as witness: the geometry suite reports only those four checks, T_polynomial_form's
    construction raises that message, and where both families are d+1 matrices of rank one, so that anchors and T
    exist, bases_span_decomposition_components and T_polynomial_form fail with it.  No flag_decomposition runs."""
    error = next(f"{c.name} fails" for c in systems.verify_axioms(sys).checks if not c.passed)
    witness = (False, {"error": error})
    ref = Reference(sys)
    with recording(*FALLBACKS) as calls:
        geometry = du.verify_geometry_suite(sys)
        with pytest.raises(DegenerateSplit) as raised:
            du.duality_operator_polynomial_form(sys)
        if not any(ref.factor(star) or ref.count(star) for star in (False, True)):
            bundle = du.DualityBundle(du.duality_operator(sys), *[sys.field.one()] * 5)
            checks = {c.name: (c.passed, c.witness) for report in (du.verify_duality_suite(sys, bundle),
                      du.verify_basis_family(sys, eigen_anchors(sys))) for c in report.checks}
            assert checks["T_polynomial_form"] == checks["bases_span_decomposition_components"] == witness
    assert "flag_decomposition" not in calls.names
    assert str(raised.value) == systems.certificate_failure(sys) == error
    assert [(c.name, c.passed, c.witness) for c in geometry.checks] == [
        (name, *witness) for name in CERTIFICATE_GEOMETRY]


@pytest.mark.parametrize("field", [Q, GF7, GFP], ids=["Q", "GF(7)", "GF(2^31-1)"])
def test_hand_built_systems_fail_on_the_first_failed_axiom(field):
    """Every hand-built system but the one whose matrices are Leonard (only its stored array moved)."""
    for name, sys in hand_built(field, 3).items():
        if name != "stored theta_0 moved":
            assert_fails_on_the_first_failed_axiom(sys)


@pytest.mark.parametrize("pa", not_leonard_arrays())
def test_not_leonard_arrays_fail_on_the_first_failed_axiom(pa):
    assert_fails_on_the_first_failed_axiom(build_system(pa))


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
    """B* = U* A W* with entry (1, 0) set to 0: tridiagonal, not irreducible.  The tridiagonal axiom fails, so the
    certificates of `verify` fall back, calling each fallback, and decide as with `systems.certified` off; the
    eliminations read no B*, so the split checks and the ranks of the bases pass, while the checks of `duality` read
    off the certificate fail with that axiom as witness."""
    build = _mutated(field, (True, "A", True), 1, 0)
    sys = build()
    with recording(*FALLBACKS) as calls:
        checks = reports(sys, eigen_anchors(sys))
    assert SPLIT_FALLBACKS <= set(calls.names)
    with pytest.MonkeyPatch.context() as patch:
        for owner in (systems, du):  # duality reads the name it imports
            patch.setattr(owner, "certified", lambda sys: False)
        reference = build()
        assert checks == reports(reference, eigen_anchors(reference))
    assert checks["tridiagonal_A_in_Astar_eigenbasis"] == (False, None)
    assert all(checks[name] == (True, None) for name in (*SPLIT, "bases_invertible"))
    assert premise_failed(checks, "tridiagonal_A_in_Astar_eigenbasis fails")


def test_bases_on_other_anchors_are_ranked():
    """An anchor that is not the eigencolumn it names (v0 := v*0) leaves its sequences to the rank, which finds each
    sequence on v0 singular; `assert_agrees` holds the verdicts to the reference's ranks on such anchors."""
    s = certify(krawtchouk(Q, 3))
    anchors = replace(du.choose_anchor_vectors(s), v0=du.choose_anchor_vectors(s).v0s)
    with recording(*FALLBACKS) as calls:
        verdicts = {basis_id: du._is_basis(s, anchors, basis_id) for basis_id in du.BASIS_IDS}
    assert calls.names.count("rank") == 3  # taustar, etastar and estar on v0
    assert {basis_id for basis_id, ok in verdicts.items() if not ok} == {
        basis_id for basis_id in du.BASIS_IDS if basis_id.endswith("-v0")}
    assert_agrees(s, ("bases",))
