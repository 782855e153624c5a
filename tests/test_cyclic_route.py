"""The eight F[M] checks from their premises and one cyclic vector: the work they save and the failures they name.

`standard_identity_suite` decides the eight checks once E (resp. E*) has d+1 idempotents, is orthogonal and
spectral and theta (theta*) is distinct: `char_product_*` and `subalgebra_three_bases_*` are theorems of those
premises, and `edge_idempotent_*` read one cyclic vector, e_0 for A and e_d for A* when column 0 (d) of U has no
zero entry, else the sum of the eigencolumns.  A failed premise fails the four checks of its side with it as
witness.  `tests/reference.py` forms the eight densely, ranks included (`assert_agrees`).  Here: which vector starts
the families, that no dense family is built, and the failures under library-level mutations.
"""

import pytest
from hypothesis import given, settings, strategies as st

from leonard import linalg, systems
from leonard.linalg import Matrix, Vector
from leonard.systems import LeonardSystem, build_system, standard_identity_suite

from conftest import krawtchouk
from reference import (DIFFERENTIAL, GF7, GFP, Q, agrees_on, assert_agrees, drawn, hand_built, passes,
                       perturbed_arrays, swapped_idempotents, w_inverse_conjugate)
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


@pytest.fixture
def sums_built(monkeypatch):
    """A list that grows by one on each vector that `systems` builds: the all-ones vector of W 1 = w_0 + ... + w_d."""
    built = []
    monkeypatch.setattr(systems, "Vector", lambda field, entries: built.append(len(entries)) or Vector(field, entries))
    return built


def eigencolumn_sum(sys, star: bool) -> Vector:
    """w_0 + ... + w_d for the eigenbasis W of E (resp. E*)."""
    W = sys.eigenbasis(star)[0]
    return W * Vector(sys.field, [sys.field.one()] * W.ncols)


def starts(sys, star: bool) -> set:
    """The vectors at which the suite built a tau or eta family on A (resp. A*): v of the F[M] checks, and the
    eigencolumns that the split checks start from."""
    return {key[3] for key in sys._memo if key[:1] == ("root_family",) and key[2] == star and not key[4]}


# --- the differential test on the inputs of the cyclic route ---


def test_corpus_and_conjugates_match_dense(corpus):
    """`bases` and `matrix-of-t` conjugated by W*^-1, where the families on A* start at the eigencolumn sum."""
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
        "stored theta_0 moved": {"edge_idempotent_E0": None, "edge_idempotent_Ed": None},  # cyclic: wrong gaps
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
def test_cli_inputs_take_the_cyclic_route(field, dense_calls, sums_built):
    """The `verify` path builds no dense tau/eta family, no dense power and no sum of eigencolumns, and starts the
    F[M] families at e_0 (resp. e_d).  (In a split form, e_0 is w_0 + ... + w_d, as w_i = E_i e_0.)"""
    s = build_system(krawtchouk(field, 8))
    assert standard_identity_suite(s).all_pass
    assert dense_calls == [] and sums_built == []
    assert not [key for key in s._memo if key[:1] == ("root_family",) and key[3] is None]
    eye = Matrix.identity(field, 9)
    assert eye.column(0) in starts(s, False) and eye.column(8) in starts(s, True)


@pytest.mark.parametrize("star", [False, True], ids=["W", "Wstar"])
def test_w_conjugates_start_at_the_eigencolumn_sum(star, dense_calls, sums_built):
    """Conjugated by W^-1 (resp. W*^-1), A (resp. A*) is diagonal: that side starts its families at w_0 + ... + w_d,
    built once, the other at e_d (resp. e_0), and no dense family is built."""
    s = w_inverse_conjugate(build_system(krawtchouk(Q, 8)), star)
    assert standard_identity_suite(s).all_pass
    assert dense_calls == [] and sums_built == [9]
    eye = Matrix.identity(Q, 9)
    assert eigencolumn_sum(s, star) in starts(s, star) and eye.column(8 if star else 0) not in starts(s, star)
    assert eye.column(0 if star else 8) in starts(s, not star)


# --- each check fails under a library-level mutation on the cyclic route ---


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


# the checks that read tau_d(A) (resp. tau_d(A*)) on a vector: the edge check at E_d, and the split checks
TAU_D_READERS = {False: ["edge_idempotent_Ed", "split_projectors_match_intersection", "split_projectors_resolution"],
                 True: ["edge_idempotent_Edstar", "split_pairing_delta"]}


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
