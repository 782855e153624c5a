"""The eight F[M] checks read off their premises: the work they save and the failures they name.

`standard_identity_suite` decides the eight checks once E (resp. E*) has d+1 idempotents, is orthogonal and
spectral and theta (theta*) is distinct (`systems.premises`): then U W = I and M = W diag(theta) U, so
`char_product_*` and `subalgebra_three_bases_*` are theorems of those premises, and eta_d(M) = eta_d(theta_0) E_0
and tau_d(M) = tau_d(theta_d) E_d, so `edge_idempotent_*` compare the array's gaps (`edge_values`) with the same
products over the system's own theta.  No vector and no tau/eta family is built for them.  A failed premise fails
the four checks of its side with it as witness.  `tests/reference.py` forms the eight densely, ranks included
(`assert_agrees`).  Here: that no family is built for the eight, and the failures under library-level mutations.
"""

import pytest
from hypothesis import given, settings, strategies as st

from leonard import linalg, systems
from leonard.linalg import Vector
from leonard.systems import LeonardSystem, build_system, standard_identity_suite

from conftest import krawtchouk
from reference import (DIFFERENTIAL, GF7, GFP, Q, agrees_on, assert_agrees, drawn, hand_built, passes,
                       perturbed_arrays, swapped_idempotents)
from test_systems import EXTRACTION_ERROR

FIELDS = (Q, GF7, GFP)

EIGHT = ("edge_idempotent_E0", "edge_idempotent_Ed", "edge_idempotent_E0star", "edge_idempotent_Edstar",
         "char_product_A", "char_product_Astar", "subalgebra_three_bases_A", "subalgebra_three_bases_Astar")
SIDE = {False: [name for name in EIGHT if not name.endswith("star")],
        True: [name for name in EIGHT if name.endswith("star")]}


@pytest.fixture
def dense_calls(monkeypatch):
    """A list that grows by one on each dense tau/eta family or dense power that `systems` builds."""
    calls, kernel = [], systems.root_product_family

    def recorded(M, roots, start=None):
        if not isinstance(start, Vector):
            calls.append(len(roots))
        return kernel(M, roots, start)

    monkeypatch.setattr(systems, "root_product_family", recorded)
    return calls


# --- the differential test on the inputs of the eight checks ---


def test_corpus_and_conjugates_match_dense(corpus):
    """`bases` and `matrix-of-t` conjugated by W*^-1, where A* is diagonal."""
    for pa in corpus.arrays:
        agrees_on(pa, ("Wstar",), ("bases", "matrix-of-t"))


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
@settings(DIFFERENTIAL, max_examples=10)
@given(data=st.data())
def test_generated_arrays_match_dense(field, data):
    """`verify` conjugated by W^-1 and by W*^-1."""
    pa = data.draw(drawn(field), label="pa")
    assert all(map(passes, agrees_on(pa, ("W", "Wstar"), ("verify",))))


@pytest.mark.parametrize("pa", perturbed_arrays())
def test_perturbed_arrays_match_dense(pa):
    """`dualize` in split form; `verify` runs in `tests/test_premise_route.py`."""
    agrees_on(pa, ("split",), ("dualize",))


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF(7)", "GF(2^31-1)"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_hand_built_systems_match_dense(field, d):
    """`dualize`, `bases` and `matrix-of-t`, where a system reaches them."""
    for sys in hand_built(field, d).values():
        assert_agrees(sys, ("dualize", "bases", "matrix-of-t"))


def test_hand_built_failures_reach_the_eight_checks():
    """Each failing check among the eight, with its witness: a failed premise fails the four checks of its side."""
    premise = lambda msg, star: dict.fromkeys(SIDE[star], {"error": msg})
    failing = {name: {c.name: c.witness for c in standard_identity_suite(sys).checks
                      if c.name in EIGHT and not c.passed}
               for name, sys in hand_built(Q, 2).items()}
    assert failing == {
        "Estar_d doubled": premise("idempotents_Estar_orthogonal fails", True),  # E*_d fails U W = I
        "E_1 zero": premise("idempotents_E_orthogonal fails", False),            # E_1 does not factor
        "E_0 rank two": premise("idempotents_E_orthogonal fails", False),
        "E_0 sheared": premise("idempotents_E_orthogonal fails", False),
        "E_0 twice": premise("idempotents_E_orthogonal fails", False),
        "stored theta_0 moved": {"edge_idempotent_E0": None, "edge_idempotent_Ed": None},  # wrong gaps
        "E short": premise("2 idempotents E, not d + 1 = 3", False),
        "E* short": premise("2 idempotents E*, not d + 1 = 3", True),
        "E* off spectrum": premise("idempotents_Estar_spectral fails", True),
        "E* conjugated": premise("idempotents_Estar_spectral fails", True),
        "E* with a repeated theta*": premise("theta* is not d + 1 = 3 distinct values", True),
    }


def test_edge_checks_read_the_array_before_the_premises():
    """E replaced by E*, no array stored: E is not spectral and the array cannot be read back, so the edge checks
    fail with the extraction error on both sides, and the other two checks on A with the failed premise."""
    report = standard_identity_suite(swapped_idempotents(False))
    error = report["round_trip_parameter_array"].witness
    assert error == {"error": EXTRACTION_ERROR}
    assert {name: report[name].witness for name in EIGHT if not report[name].passed} == {
        **dict.fromkeys(EIGHT[:4], error), **dict.fromkeys(SIDE[False][2:], {"error": "idempotents_E_spectral fails"})}


# --- the route ---


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
def test_f_m_checks_build_no_family(field, dense_calls):
    """The `verify` path builds no dense tau/eta family or power, and each vector family it memoises is read by a
    check outside the eight: none starts at e_d on A*, and those on A at e_0 are the extraction's split bases at
    w*_0 = e_0."""
    s = build_system(krawtchouk(field, 8))
    assert standard_identity_suite(s).all_pass
    assert dense_calls == []
    (W, U), (Ws, Us) = s.eigenbasis(), s.eigenbasis(star=True)
    assert {key[1:] for key in s._memo if key[:1] == ("root_family",)} == {
        ("tau", False, Ws.column(0), False), ("eta", False, Ws.column(0), False),  # varphi and phi of the extraction
        ("tau", True, U.row(0), True),  # q_i of `split_factors`
        ("tau", False, Us.row(0), True), ("tau", True, W.column(0), False)}  # split_pairing_delta


# --- each check fails under a library-level mutation ---


def _wrong_gap(k):
    """`edge_values` with entry k doubled."""
    def apply(m):
        edge_values = systems.edge_values
        m.setattr(systems, "edge_values",
                  lambda pa: tuple(x + x if i == k else x for i, x in enumerate(edge_values(pa))))
    return apply


def _tau_family(star, mutate):
    """`LeonardSystem.root_family` with its tau vectors on A (resp. A*) passed through mutate;
    extraction reads the same A-side vectors, so it returns the stored array."""
    def apply(m):
        root_family = LeonardSystem.root_family

        def mutated(self, kind, star_=False, start=None, covector=False):
            fam = root_family(self, kind, star_, start, covector)
            return mutate(self, fam, start) if (kind, star_, covector) == ("tau", star, False) else fam

        m.setattr(LeonardSystem, "root_family", mutated)
        m.setattr(systems, "extract_parameter_array", lambda sys: sys.pa)
    return apply


def _wrong_last_root(star):
    """tau_d built on theta_0..theta_{d-2}, theta_d: theta_{d-1} replaced by theta_d."""
    def last(sys, fam, start):
        M, theta = (sys.Astar, sys.theta_star) if star else (sys.A, sys.theta)
        return tuple(linalg.root_product_family(M, theta[:-2] + theta[-1:], start))
    return _tau_family(star, last)


def _repeated_member(star):
    """tau_d replaced by tau_{d-1}: the loop stops one root early."""
    return _tau_family(star, lambda sys, fam, start: fam[:-1] + fam[-2:-1])


MUTATIONS = {
    "edge_idempotent_E0": _wrong_gap(1),
    "edge_idempotent_Ed": _wrong_gap(0),
    "edge_idempotent_E0star": _wrong_gap(3),
    "edge_idempotent_Edstar": _wrong_gap(2),
}


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
@pytest.mark.parametrize("name", MUTATIONS)
def test_each_check_fails_on_the_cyclic_route(field, name, dense_calls, monkeypatch):
    s = build_system(krawtchouk(field, 4))
    MUTATIONS[name](monkeypatch)
    report = standard_identity_suite(s)
    assert dense_calls == []
    assert not report[name].passed


# the checks that read tau_d(A) (resp. tau_d(A*)) on a vector: the split checks; the edge check at E_d reads no
# family
TAU_D_READERS = {False: ["split_projectors_match_intersection", "split_projectors_resolution"],
                 True: ["split_pairing_delta"]}


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
@pytest.mark.parametrize("star", [False, True], ids=["A", "Astar"])
@pytest.mark.parametrize("mutation", [_wrong_last_root, _repeated_member], ids=lambda m: m.__name__.strip("_"))
def test_each_family_mutation_fails_the_report(field, star, mutation, dense_calls, monkeypatch):
    """A tau family with a wrong last root or a repeated member: `char_product_*` and `subalgebra_three_bases_*`
    are theorems of the premises, which still hold, so they pass, and the report fails at the checks that read
    tau_d on that side."""
    s = build_system(krawtchouk(field, 4))
    mutation(star)(monkeypatch)
    report = standard_identity_suite(s)
    assert dense_calls == []
    assert report["char_product_A" + "star" * star].passed and report["subalgebra_three_bases_A" + "star" * star].passed
    assert [c.name for c in report.checks if not c.passed] == TAU_D_READERS[star]


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
def test_wrong_eta_family_fails_the_round_trip(field, monkeypatch):
    """eta_d on A replaced by eta_{d-1}: the edge check at E_0 reads no family, so the report fails where the
    extraction reads phi off the eta split basis, the round trip, and only there."""
    s = build_system(krawtchouk(field, 4))
    root_family = LeonardSystem.root_family

    def mutated(self, kind, star=False, start=None, covector=False):
        fam = root_family(self, kind, star, start, covector)
        return fam[:-1] + fam[-2:-1] if (kind, star, covector) == ("eta", False, False) else fam

    monkeypatch.setattr(LeonardSystem, "root_family", mutated)
    report = standard_identity_suite(s)
    assert [c.name for c in report.checks if not c.passed] == ["round_trip_parameter_array"]
