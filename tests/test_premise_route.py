"""The Gram block and the idempotent sums from their premises, against the dense checks they replace.

`verify_axioms` and `standard_identity_suite` decide `idempotents_{E,Estar}_sum` and `_spectral` on the
factors E_i = w_i u_i^T once the family is orthogonal (U W = I, with d+1 idempotents and eigenvalues): the sum
is W U = I, and the spectral check is M w_i = theta_i w_i.  Six of the seven Gram checks are theorems of the
premises of `solve_gram`, and `dagger_fixes_idempotents` is one of them and of the premises of the F[M] checks on
A* (`tests/conftest.py::premise_error`): it fails naming the first of those that fails.  The reference
below is the dense form of the eleven checks: the sums of d+1 matrices, and the Gram checks as products with G
and G^-1; the suite must agree with it check for check, witness included, on every route.
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leonard import systems
from leonard.errors import DegenerateSplit
from leonard.fields import Field
from leonard.linalg import Matrix, outer
from leonard.systems import LeonardSystem, build_system, certify, standard_identity_suite, verify_axioms

from conftest import (GRAM_CHECKS, SUITE_CHECKS, conjugator, gram_by_nullspace, krawtchouk, leonard_array,
                      leonard_arrays, premise_error)
from test_cyclic_route import (estar_off_spectrum, estar_repeated_theta, hand_built, perturbed_arrays,
                               w_inverse_conjugate)
from test_systems import _hand_built_systems

Q, GF7, GFP = Field.rational(), Field.prime(7), Field.prime(2**31 - 1)
FIELDS = (Q, GF7, GFP)
FIELD_IDS = ["Q", "GF(7)", "GF(2^31-1)"]

SUMS = ("idempotents_E_sum", "idempotents_E_spectral", "idempotents_Estar_sum", "idempotents_Estar_spectral")
ELEVEN = SUMS + GRAM_CHECKS


# --- the dense reference ---


def dense_sums(sys) -> dict:
    """name -> (passed, witness) of the four idempotent sums, each formed from d+1 dense matrices."""
    f, n, out = sys.field, sys.d + 1, {}
    for label, mats, M, theta in (("E", sys.E, sys.A, sys.theta), ("Estar", sys.Estar, sys.Astar, sys.theta_star)):
        zero = Matrix.zeros(f, n)
        out[f"idempotents_{label}_sum"] = sum(mats, zero) == Matrix.identity(f, n), None
        out[f"idempotents_{label}_spectral"] = sum((Ei.scale(th) for th, Ei in zip(theta, mats)), zero) == M, None
    return out


def dense_gram(sys) -> dict:
    """name -> (passed, witness) of the seven Gram checks as products with (G, G^-1) from `gram_matrices`; a failed
    premise of `solve_gram` fails all seven with it as witness, a failed premise of E* the idempotent check."""
    f, d = sys.field, sys.d
    try:
        G, Ginv = systems.gram_matrices(sys)
    except DegenerateSplit as exc:
        return dict.fromkeys(GRAM_CHECKS, (False, {"error": str(exc)}))
    Gt = G.transpose()
    dagger = lambda X: Ginv * X.transpose() * G
    # (w u^T)^dagger = G^-1 u w^T G = (G^-1 u)(G^T w)^T
    idempotents = (False, {"error": error}) if (error := premise_error(sys, True)) else (
        all(outer(Ginv * U.row(i), Gt * W.column(i)) == mats[i]
            for mats, (W, U) in ((sys.E, sys.eigenbasis()), (sys.Estar, sys.eigenbasis(star=True)))
            for i in range(d + 1)), None)
    probe = sys.A * sys.Astar + sys.Estar[0].scale(f.from_int(3))
    verdicts = (G == Gt, sys.A.transpose() * G == G * sys.A, sys.Astar.transpose() * G == G * sys.Astar,
                dagger(sys.A) == sys.A, dagger(sys.Astar) == sys.Astar)
    return dict(zip(GRAM_CHECKS, [(passed, None) for passed in verdicts] + [idempotents]
                    + [(dagger(dagger(probe)) == probe, None)]))


def assert_matches_dense(sys):
    """The eleven checks sit at their positions in both reports (`verify_axioms` lists the first eleven of
    SUITE_CHECKS) and equal the dense reference."""
    dense = {**dense_sums(sys), **dense_gram(sys)}
    for report in (verify_axioms(sys), standard_identity_suite(sys)):
        got = [(i, c.name, c.passed, c.witness) for i, c in enumerate(report.checks) if c.name in ELEVEN]
        assert got == [(SUITE_CHECKS.index(name), name, *dense[name]) for name in ELEVEN if name in report]
    return report


# --- inputs ---


def estar_conjugated(field, d):
    """E*_i replaced by K E*_i K^-1, K = I + e_0 e_1^T: still orthogonal, but not spectral for A*, and not fixed by
    the dagger of (A, A*), so `dagger_fixes_idempotents` fails on the factors of E*."""
    s = build_system(krawtchouk(field, d))
    eye = Matrix.identity(field, d + 1)
    K = eye + outer(eye.column(0), eye.column(1))
    Kinv = K.inverse()
    return LeonardSystem(s.A, s.Astar, s.E, [K * X * Kinv for X in s.Estar], s.theta, s.theta_star, s.pa)


# --- premise route == dense reference ---


def assert_array_matches_dense(pa, s=None):
    """The system of a Leonard array (s, when given), a dense conjugate and the conjugates by W^-1 and W*^-1 all
    pass, and match the reference."""
    s = build_system(pa) if s is None else s
    for sys in (s, s.conjugated(conjugator(pa.field, pa.d + 1)), w_inverse_conjugate(s), w_inverse_conjugate(s, True)):
        assert assert_matches_dense(sys).all_pass


def test_corpus_and_conjugates_match_dense(corpus):
    for pa in corpus.arrays:
        assert_array_matches_dense(pa, corpus.system(pa))


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_generated_arrays_match_dense(field, data):
    d = data.draw(st.integers(min_value=0, max_value=8), label="d")
    assert_array_matches_dense(data.draw(leonard_arrays(field, d), label="pa"))


def gf7_arrays(per_d=2, seed=26):
    """per_d seeded Leonard arrays over GF(7) at each d = 0..6 (d+1 distinct theta need d <= 6): `leonard_array`
    on uniform residues, redrawn until it returns one; at d = 6 about one draw in 700 does."""
    rng, out = random.Random(seed), []
    for d in range(7):
        found = []
        while len(found) < per_d:
            x = lambda: GF7.from_int(rng.randrange(7))
            pa = leonard_array(GF7, d, (x(), x(), x()), (x(), x(), x()), x(), x())
            if pa is not None:
                found.append(pytest.param(pa, id=f"d{d}-{len(found)}"))
        out += found
    return out


@pytest.mark.parametrize("pa", gf7_arrays())
def test_gf7_arrays_match_dense(pa):
    assert_array_matches_dense(pa)


def test_a_normaliser_off_the_diagonal_matches_the_oracle():
    """Over GF(7) some of the conjugates that `assert_array_matches_dense` reads have G_00 = 0, so `gram_matrices`
    divides G by an entry of row 0 off the diagonal; the n^2-unknown null space finds the same (G, G^-1)."""
    built = [build_system(param.values[0]) for param in gf7_arrays()]
    conjugates = [sys for s in built for sys in (s, s.conjugated(conjugator(GF7, s.d + 1)), w_inverse_conjugate(s),
                                                 w_inverse_conjugate(s, True))]
    off = [s for s in conjugates if not systems.gram_matrices(s)[0].nums[0][0]]
    assert off
    for s in off:
        assert systems.gram_matrices(s) == gram_by_nullspace(s.A, s.Astar)


def assert_pair_matches_gram(sys) -> bool:
    """<u, v> by `LeonardSystem.pair`, on the four anchors of `duality.choose_anchor_vectors` and the unit vectors,
    forms no G and equals u^T G v for G from `gram_matrices`; returns whether G_00 = 0."""
    vectors = [sys.eigencolumn(j, star).normalized() for star in (False, True) for j in (0, sys.d)]
    vectors += Matrix.identity(sys.field, sys.d + 1).columns()
    values = [sys.pair(u, v) for u in vectors for v in vectors]
    assert "gram" not in sys._memo
    G = systems.gram_matrices(sys)[0]
    assert values == [u.dot(G * v) for u in vectors for v in vectors]
    return not G.nums[0][0]


def test_pair_matches_the_gram_matrix(corpus):
    """On the corpus and the GF(7) arrays, each with its dense conjugate and its conjugates by W^-1 and W*^-1; among
    the GF(7) conjugates some have G_00 = 0, where the pivot is an entry of row 0 off the diagonal."""
    arrays = corpus.arrays + [param.values[0] for param in gf7_arrays()]
    off = [assert_pair_matches_gram(sys) for pa in arrays for s in (build_system(pa),) for sys in (
        s, s.conjugated(conjugator(pa.field, pa.d + 1)), w_inverse_conjugate(s), w_inverse_conjugate(s, True))]
    assert any(off)


@pytest.mark.parametrize("pa", perturbed_arrays())
def test_perturbed_arrays_match_dense(pa):
    assert_matches_dense(build_system(pa))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_hand_built_systems_match_dense(field, d):
    built = {**hand_built(field, d), "E* off spectrum": estar_off_spectrum(field, d),
             "E* conjugated": estar_conjugated(field, d), "E* with a repeated theta*": estar_repeated_theta(field, d)}
    for name, sys in built.items():
        assert not assert_matches_dense(sys).all_pass, name


@pytest.mark.parametrize("case", sorted(_hand_built_systems()))
def test_report_systems_match_dense(case):
    assert_matches_dense(_hand_built_systems()[case])


# --- the route ---


def test_premises_decide_the_eleven_checks(monkeypatch):
    """On a certified system, over Q and GF(2^31-1), the suite adds no two matrices and forms neither G nor G^-1:
    it solves for the weights of the form once (`perfbench` counts that solve) and memoises them, and
    `gram_matrices` is not called."""
    solved, solve = [], systems.solve_gram
    monkeypatch.setattr(systems, "solve_gram", lambda sys: solved.append(solve(sys)) or solved[-1])
    monkeypatch.setattr(systems, "gram_matrices", lambda sys: pytest.fail("G and G^-1 were formed"))
    monkeypatch.setattr(Matrix, "__add__", lambda self, other: pytest.fail("two matrices were added"))
    for field in (Q, GFP):
        solved.clear()
        s = certify(krawtchouk(field, 6))
        assert standard_identity_suite(s).all_pass
        assert len(solved) == 1 and s._memo["gram_weights"] is solved[0] and "gram" not in s._memo
        assert len(solved[0]) == s.d + 1 and all(solved[0])


@pytest.mark.parametrize("build", [estar_off_spectrum, estar_conjugated], ids=["off-spectrum", "conjugated"])
def test_estar_off_spectrum_fails_the_dagger_premise(build):
    """E* orthogonal but not spectral: the six theorems of solve_gram hold, and the dagger check fails naming the
    premise, whether or not the dagger fixes each E*_i (it does when theta*_0 and theta*_1 are exchanged)."""
    report = standard_identity_suite(build(Q, 3))
    assert report["idempotents_Estar_orthogonal"].passed and not report["idempotents_Estar_spectral"].passed
    assert {name: report[name].witness for name in GRAM_CHECKS if not report[name].passed} == {
        "dagger_fixes_idempotents": {"error": "idempotents_Estar_spectral fails"}}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_a_short_family_is_summed_densely(field):
    """d idempotents for a space of dimension d+1: U W = I, but W U != I, so the sums are formed densely and
    fail, and solve_gram refuses, naming the count, before it would build a singular G."""
    s = build_system(krawtchouk(field, 3))
    short = LeonardSystem(s.A, s.Astar, s.E[:-1], s.Estar, s.theta, s.theta_star, s.pa)
    report = verify_axioms(short)
    assert report["idempotents_E_orthogonal"].passed
    assert [(c.name, c.passed) for c in report.checks if c.name in SUMS[:2]] == [
        (name, passed) for name, (passed, _) in dense_sums(short).items() if name in SUMS[:2]] == [
        ("idempotents_E_sum", False), ("idempotents_E_spectral", False)]
    with pytest.raises(DegenerateSplit, match=r"^3 idempotents E, not d \+ 1 = 4$"):
        systems.solve_gram(short)


# the checks that read E_d and E*_d, or both families as bases
BOTH = ("nu_sandwich_E0", "nu_sandwich_E0star", "trace_products_closed_form", "nu_closed_forms_match_traces",
        "split_projectors_match_intersection", "split_projectors_resolution")
# the checks that read one family as a basis: E, then E*
ONE = {False: ("tridiagonal_Astar_in_A_eigenbasis", "edge_idempotent_E0", "edge_idempotent_Ed", "char_product_A",
               "subalgebra_three_bases_A"),
       True: ("tridiagonal_A_in_Astar_eigenbasis", "edge_idempotent_E0star", "edge_idempotent_Edstar",
              "char_product_Astar", "subalgebra_three_bases_Astar", "dagger_fixes_idempotents")}


def _short(field, star):
    """The d = 3 Krawtchouk system with only the first d idempotents of E (resp. E*)."""
    s = build_system(krawtchouk(field, 3))
    E, Estar = (s.E, s.Estar[:-1]) if star else (s.E[:-1], s.Estar)
    return LeonardSystem(s.A, s.Astar, E, Estar, s.theta, s.theta_star, s.pa)


@pytest.mark.parametrize("star", [False, True], ids=["E", "Estar"])
@pytest.mark.parametrize("field", (Q, GFP), ids=["Q", "GF(2^31-1)"])
def test_a_short_family_fails_its_tridiagonal_axiom(field, star):
    """d idempotents in E (resp. E*): U W = I for the d x d block, and U A* W (resp. U* A W*) is the d x d
    compression, irreducible tridiagonal; the axiom that reads that family as a basis fails naming its count."""
    report = verify_axioms(_short(field, star))
    name = "tridiagonal_A_in_Astar_eigenbasis" if star else "tridiagonal_Astar_in_A_eigenbasis"
    other = "tridiagonal_Astar_in_A_eigenbasis" if star else "tridiagonal_A_in_Astar_eigenbasis"
    assert report[name].witness == {"error": f"3 idempotents {'E*' if star else 'E'}, not d + 1 = 4"}
    assert report[other].passed and not report["standard_orderings"].passed


@pytest.mark.parametrize("star", [False, True], ids=["E", "Estar"])
@pytest.mark.parametrize("field", (Q, GFP), ids=["Q", "GF(2^31-1)"])
def test_a_short_family_gets_a_full_report(field, star):
    """d idempotents in E (resp. E*): the suite still lists every check, and each check that reads both families,
    or the short one as a basis, fails naming its count; for a short E, solve_gram names it for all seven Gram
    checks, and for a short E* the premise of the dagger check does.  The F[M] checks of the other family
    pass."""
    report = standard_identity_suite(_short(field, star))
    assert [c.name for c in report.checks] == list(SUITE_CHECKS) and not report.all_pass
    counts = {"error": f"3 idempotents {'E*' if star else 'E'}, not d + 1 = 4"}
    assert {c.name for c in report.checks if c.witness == counts} == {*BOTH, *ONE[star], *(() if star else GRAM_CHECKS)}
    assert {report[name].witness["error"] for name in GRAM_CHECKS if not report[name].passed} == {counts["error"]}
    assert all(report[name].passed for name in ONE[not star][1:5])


@pytest.mark.parametrize("star", [False, True], ids=["E", "Estar"])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("field", (Q, GFP), ids=["Q", "GF(2^31-1)"])
def test_an_empty_family_gets_a_full_report(field, d, star):
    """No idempotents in E (resp. E*): `LeonardSystem.eigenbasis` names the count, so verify_axioms and the suite
    report every check, and each check that reads that family as a basis, or both families, fails naming it: for
    an empty E the Gram checks too (solve_gram factors E first), for an empty E* the round trip (the extraction
    factors E*)."""
    s = build_system(krawtchouk(field, d))
    E, Estar = (s.E, ()) if star else ((), s.Estar)
    empty = LeonardSystem(s.A, s.Astar, E, Estar, s.theta, s.theta_star, s.pa)
    count = f"0 idempotents {'E*' if star else 'E'}, not d + 1 = {d + 1}"
    with pytest.raises(DegenerateSplit, match=f"^{re.escape(count)}$"):
        empty.eigenbasis(star)
    assert not verify_axioms(empty).all_pass
    report = standard_identity_suite(empty)
    assert [c.name for c in report.checks] == list(SUITE_CHECKS) and not report.all_pass
    orthogonal = f"idempotents_E{'star' * star}_orthogonal"
    also = ("round_trip_parameter_array",) if star else GRAM_CHECKS
    assert {c.name for c in report.checks if c.witness == {"error": count}} == {
        *BOTH, *ONE[star], orthogonal, "split_pairing_delta", *also}


def test_repeated_theta_star_fails_the_tridiagonal_premise():
    """With theta* repeated, E* is orthogonal and spectral, and the B premise of solve_gram fails all seven."""
    report = standard_identity_suite(estar_repeated_theta(Q, 3))
    assert report["idempotents_Estar_orthogonal"].passed and report["idempotents_Estar_spectral"].passed
    assert {report[name].witness["error"] for name in GRAM_CHECKS} == {"U A* W is not irreducible tridiagonal"}
