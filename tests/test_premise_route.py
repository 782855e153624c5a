"""The Gram block and the idempotent sums from their premises: the work they save and the failures they name.

The sums and spectral checks are read off U W = I, the seven Gram checks are theorems of the premises of
`solve_gram`, and `dagger_fixes_idempotents` also of those of the F[M] checks on A*, failing with the first that
fails.  `tests/reference.py` forms the eleven densely, G from the null space of the intertwining constraints
(`assert_agrees`).  Here: the form is solved for once and no G is formed, and a short or empty family is named.
"""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from leonard import systems
from leonard.errors import DegenerateSplit
from leonard.linalg import Matrix
from leonard.systems import LeonardSystem, build_system, certify, standard_identity_suite, verify_axioms

from conftest import GRAM_CHECKS, SUITE_CHECKS, krawtchouk, leonard_array
from reference import (DIFFERENTIAL, FIELDS, FORMS, GF7, GFP, Q, agrees_on, assert_agrees, assert_form_is, drawn,
                       gram_by_nullspace, hand_built, passes, perturbed_arrays, report_systems)

FIELD_IDS = ["Q", "GF(7)", "GF(2^31-1)"]
SUMS = ("idempotents_E_sum", "idempotents_E_spectral", "idempotents_Estar_sum", "idempotents_Estar_spectral")


def gf7_arrays(per_d=2, seed=26) -> list:
    """per_d seeded Leonard arrays over GF(7) at each d = 0..6 (d+1 distinct theta need d <= 6), as pytest params:
    `leonard_array` on uniform residues, redrawn until it returns one; at d = 6 about one draw in 700 does."""
    rng, out = random.Random(seed), []
    x = lambda: GF7.from_int(rng.randrange(7))
    for d in range(7):
        found = []
        while len(found) < per_d:
            if (pa := leonard_array(GF7, d, (x(), x(), x()), (x(), x(), x()), x(), x())) is not None:
                found.append(pytest.param(pa, id=f"d{d}-{len(found)}"))
        out += found
    return out


# --- the differential test on the inputs of the premise route ---


def test_corpus_and_conjugates_match_dense(corpus):
    """`verify` on each corpus array conjugated by W^-1 and by W*^-1."""
    for pa in corpus.arrays:
        assert all(map(passes, agrees_on(pa, ("W", "Wstar"), ("verify",))))


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
@settings(DIFFERENTIAL, max_examples=10)
@given(data=st.data())
def test_generated_arrays_match_dense(field, data):
    """`verify` in the four forms of `reference.FORMS`."""
    pa = data.draw(drawn(field), label="pa")
    assert all(map(passes, agrees_on(pa, tuple(FORMS), ("verify",))))


@pytest.mark.parametrize("pa", gf7_arrays())
def test_gf7_arrays_match_dense(pa):
    """`verify` in the four forms of `reference.FORMS`, the other verbs in split form."""
    assert all(map(passes, agrees_on(pa, tuple(FORMS), ("verify",))))
    agrees_on(pa, ("split",), ("dualize", "bases", "matrix-of-t"))


@pytest.mark.parametrize("pa", perturbed_arrays())
def test_perturbed_arrays_match_dense(pa):
    """`verify` in split form; `dualize` runs in `tests/test_cyclic_route.py`."""
    agrees_on(pa, ("split",), ("verify",))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_hand_built_systems_match_dense(field, d):
    """`verify`; the other verbs run in `tests/test_cyclic_route.py`."""
    for name, sys in hand_built(field, d).items():
        assert not passes(assert_agrees(sys, ("verify",))), name


@pytest.mark.parametrize("case", sorted(report_systems()))
def test_report_systems_match_dense(case):
    assert_agrees(report_systems()[case])


# --- the Gram form and the pairing ---


def test_a_normaliser_off_the_diagonal_matches_the_oracle():
    """Over GF(7) some of the conjugates of the GF(7) arrays have G_00 = 0, so `LeonardSystem.pair` divides by an
    entry of row 0 off the diagonal (`systems._gram_pivot`); the weights and the pivot give the G that the
    n^2-unknown null space finds."""
    conjugates = [form(build_system(param.values[0])) for param in gf7_arrays() for form in FORMS.values()]
    forms = [(s, gram_by_nullspace(s.A, s.Astar)[0]) for s in conjugates]
    off = [(s, G) for s, G in forms if not G.nums[0][0]]
    assert off
    for s, G in off:
        assert_form_is(s, G)


def assert_pair_matches_gram(sys) -> bool:
    """<u, v> by `LeonardSystem.pair`, on the four anchors of `duality.choose_anchor_vectors` and the unit vectors,
    equals u^T G v for G from the n^2-unknown null space; returns whether G_00 = 0."""
    vectors = [sys.eigencolumn(j, star).normalized() for star in (False, True) for j in (0, sys.d)]
    vectors += Matrix.identity(sys.field, sys.d + 1).columns()
    values = [sys.pair(u, v) for u in vectors for v in vectors]
    G = gram_by_nullspace(sys.A, sys.Astar)[0]
    assert values == [u.dot(G * v) for u in vectors for v in vectors]
    return not G.nums[0][0]


def test_pair_matches_the_gram_matrix(corpus):
    """On the corpus and the GF(7) arrays, each with its dense conjugate and its conjugates by W^-1 and W*^-1; among
    the GF(7) conjugates some have G_00 = 0, where the pivot is an entry of row 0 off the diagonal."""
    arrays = corpus.arrays + [param.values[0] for param in gf7_arrays()]
    assert any([assert_pair_matches_gram(form(build_system(pa))) for pa in arrays for form in FORMS.values()])


# --- the route ---


def test_premises_decide_the_eleven_checks(monkeypatch):
    """On a certified system, over Q and GF(2^31-1), the suite adds no two matrices and forms neither G nor G^-1,
    which the package never forms: it solves for the weights of the form once (`perfbench` counts that solve) and
    memoises them."""
    solved, solve = [], systems.solve_gram
    monkeypatch.setattr(systems, "solve_gram", lambda sys: solved.append(solve(sys)) or solved[-1])
    monkeypatch.setattr(Matrix, "__add__", lambda self, other: pytest.fail("two matrices were added"))
    for field in (Q, GFP):
        solved.clear()
        s = certify(krawtchouk(field, 6))
        assert standard_identity_suite(s).all_pass
        assert len(solved) == 1 and s._memo["gram_weights"] is solved[0]
        assert len(solved[0]) == s.d + 1 and all(solved[0])


@pytest.mark.parametrize("name", ["E* off spectrum", "E* conjugated"], ids=["off-spectrum", "conjugated"])
def test_estar_off_spectrum_fails_the_dagger_premise(name):
    """E* orthogonal but not spectral: the six theorems of solve_gram hold, and the dagger check fails naming the
    premise, whether or not the dagger fixes each E*_i (it does when theta*_0 and theta*_1 are exchanged)."""
    report = standard_identity_suite(hand_built(Q, 3)[name])
    assert report["idempotents_Estar_orthogonal"].passed and not report["idempotents_Estar_spectral"].passed
    assert {name: report[name].witness for name in GRAM_CHECKS if not report[name].passed} == {
        "dagger_fixes_idempotents": {"error": "idempotents_Estar_spectral fails"}}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_a_short_family_is_summed_densely(field):
    """d idempotents for a space of dimension d+1: U W = I, but W U != I, so the sums are formed densely and
    fail, and solve_gram refuses, naming the count, before it would build a singular G."""
    short = hand_built(field, 3)["E short"]
    report = verify_axioms(short)
    assert report["idempotents_E_orthogonal"].passed
    assert [(c.name, c.passed) for c in report.checks if c.name in SUMS[:2]] == [
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
    return hand_built(field, 3)["E* short" if star else "E short"]


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
    report every check, and each check that reads that family as a basis, or both families, fails naming it: the
    round trip too (the extraction factors both), and for an empty E the Gram checks (solve_gram factors E first)."""
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
    assert {c.name for c in report.checks if c.witness == {"error": count}} == {
        *BOTH, *ONE[star], orthogonal, "split_pairing_delta", "round_trip_parameter_array",
        *(() if star else GRAM_CHECKS)}
    assert_agrees(empty)


def test_repeated_theta_star_fails_the_tridiagonal_premise():
    """With theta* repeated, E* is orthogonal and spectral, and the B premise of solve_gram fails all seven."""
    report = standard_identity_suite(hand_built(Q, 3)["E* with a repeated theta*"])
    assert report["idempotents_Estar_orthogonal"].passed and report["idempotents_Estar_spectral"].passed
    assert {report[name].witness["error"] for name in GRAM_CHECKS} == {"U A* W is not irreducible tridiagonal"}
