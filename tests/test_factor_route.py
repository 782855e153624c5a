"""The rank-one checks on their factors: what the factoring costs, and the failures of families that do not factor.

`verify_axioms` and `standard_identity_suite` test E_i E_j = delta_ij E_i, the split pairing and resolution, the nu
sandwiches and the dagger on the factors E_i = w_i u_i^T; `tests/reference.py` forms each densely (`assert_agrees`).
Here: which systems factor their idempotents, the product count of the suite, and families that do not factor.
"""

import pytest
from hypothesis import given, settings, strategies as st

from leonard import systems
from leonard.errors import DegenerateSplit
from leonard.linalg import Matrix, rank_one_factors
from leonard.systems import LeonardSystem, build_system, certify, standard_identity_suite, verify_axioms

from conftest import SUITE_CHECKS, conjugator, krawtchouk
from reference import (DIFFERENTIAL, DUALITY_CHECKS, FIELDS, FORMS, GFP, Q, agrees_on, assert_form_is, drawn,
                       first_nonzero_column, gram_by_nullspace, hand_built, not_leonard_arrays, passes)


# --- the differential test on the inputs of the factor route ---


def test_corpus_reports_match_dense(corpus):
    """`verify` and `bases` in split form."""
    assert all(passes(agreed) for pa in corpus.arrays for agreed in agrees_on(pa, ("split",), ("verify", "bases")))


def test_conjugated_corpus_reports_match_dense(corpus):
    """`verify`, `bases` and `matrix-of-t` conjugated to a dense basis."""
    assert all(passes(agreed) for pa in corpus.arrays
               for agreed in agrees_on(pa, ("dense",), ("verify", "bases", "matrix-of-t")))


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
@settings(DIFFERENTIAL, max_examples=8)
@given(data=st.data())
def test_generated_reports_match_dense(field, data):
    """Beyond the corpus: `verify` against the reference, and the Gram form in the eigenbasis against the null space,
    on generated arrays in split form and conjugated to a dense basis."""
    pa = data.draw(drawn(field), label="pa")
    assert all(map(passes, agrees_on(pa, ("split", "dense"), ("verify",))))
    for form in ("split", "dense"):
        sys = FORMS[form](build_system(pa))
        assert_form_is(sys, gram_by_nullspace(sys.A, sys.Astar)[0])


@pytest.mark.parametrize("pa", not_leonard_arrays())
def test_non_leonard_axioms_match_dense(pa):
    """`verify` conjugated to a dense basis: both tridiagonal axioms fail on these arrays."""
    [agreed] = agrees_on(pa, ("dense",), ("verify",))
    assert not any(agreed["verify"][name][0] for name in SUITE_CHECKS[:2])


@pytest.mark.parametrize("pa", not_leonard_arrays())
def test_non_leonard_reports_match_dense(pa):
    """`dualize` and `bases` conjugated to a dense basis: with no T, `dualize` runs the geometry suite alone."""
    [agreed] = agrees_on(pa, ("dense",), ("dualize", "bases"))
    assert set(agreed) == {"dualize", "bases"} and not set(DUALITY_CHECKS) & set(agreed["dualize"])


# --- families that do not factor ---


def test_zero_idempotent_reports_true_ranks():
    broken = hand_built(Q, 1)["E_1 zero"]
    with pytest.raises(DegenerateSplit, match="^idempotent E_1 is not of rank one$"):
        broken.eigenbasis()
    assert broken.eigenbasis(star=True) == build_system(krawtchouk(Q, 1)).eigenbasis(star=True)
    axioms = verify_axioms(broken)
    assert axioms["idempotents_E_rank_one"].witness == {"ranks": [1, 0]}
    assert axioms["idempotents_Estar_rank_one"].passed
    assert axioms["idempotents_E_orthogonal"].witness == {"error": "idempotent E_1 is not of rank one"}
    assert not axioms.all_pass
    report = standard_identity_suite(broken)
    assert not report.all_pass
    with pytest.raises(DegenerateSplit, match="E_1"):
        broken.eigencolumn(0)


def test_rank_two_idempotent_reports_true_ranks():
    broken = hand_built(Q, 2)["E_0 rank two"]
    with pytest.raises(DegenerateSplit, match="^idempotent E_0 is not of rank one$"):
        broken.eigenbasis()
    axioms = verify_axioms(broken)
    assert axioms["idempotents_E_rank_one"].witness == {"ranks": [2, 1, 1]}
    assert axioms["idempotents_Estar_rank_one"].passed
    assert not axioms.all_pass
    report = standard_identity_suite(broken)
    assert not report.all_pass
    for name in ("tridiagonal_Astar_in_A_eigenbasis", "idempotents_E_orthogonal", "nu_sandwich_E0",
                 "split_pairing_delta", "dagger_fixes_idempotents"):
        assert report[name].witness == {"error": "idempotent E_0 is not of rank one"}


def test_eigenbasis_is_memoised_and_factors_the_idempotents(corpus):
    """The eigenbasis a split-form system takes from its build is the one `rank_one_factors` reads off E and E*."""
    for pa in corpus.arrays:
        s = corpus.system(pa)
        for star, mats in ((False, s.E), (True, s.Estar)):
            W, U = s.eigenbasis(star)
            assert s.eigenbasis(star) is s.eigenbasis(star)
            assert (W, U) == rank_one_factors(mats)
            for i, E in enumerate(mats):
                assert W.column(i) == first_nonzero_column(E) == s.eigencolumn(i, star)
                assert E == Matrix.from_columns(pa.field, [W.column(i)]) * Matrix(pa.field, [U[i]])
            assert U * W == Matrix.identity(pa.field, s.d + 1)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF(7)", "GF(2^31-1)"])
def test_only_hand_built_systems_factor_their_idempotents(field, monkeypatch):
    """A Krawtchouk system built from its array at d = 1..5 is certified without a call of `rank_one_factors`, and
    its eigenbases equal those the factoring gives; a conjugate, a system from `from_pair` and one built by hand
    factor each family once."""
    calls = []
    monkeypatch.setattr(systems, "rank_one_factors", lambda mats: calls.append(len(mats)) or rank_one_factors(mats))
    for d in range(1, 6):
        calls.clear()
        s = certify(krawtchouk(field, d))
        assert calls == []
        assert [s.eigenbasis(star) for star in (False, True)] == [rank_one_factors(s.E), rank_one_factors(s.Estar)]
        pair = (s.A, s.Astar, s.theta, s.theta_star)
        for built in (s.conjugated(conjugator(field, d + 1)), LeonardSystem.from_pair(*pair),
                      LeonardSystem(s.A, s.Astar, s.E, s.Estar, s.theta, s.theta_star, s.pa)):
            calls.clear()
            for star in (False, True, False, True):
                built.eigenbasis(star)
            assert calls == [d + 1, d + 1]


# --- work bound ---


@pytest.mark.parametrize("d", [8, 16])
def test_standard_suite_product_count_is_linear_in_d(monkeypatch, d):
    """n x n products (both result dimensions > 1) per suite stay below
    16 (d + 1); the (d+1)^2 loops of dense rank-one products made 724 at d = 8."""
    count = [0]
    mul = Matrix.__mul__

    def counted(self, other):
        if isinstance(other, Matrix) and self.nrows > 1 and other.ncols > 1:
            count[0] += 1
        return mul(self, other)

    pa = krawtchouk(Q, d)
    monkeypatch.setattr(Matrix, "__mul__", counted)
    assert standard_identity_suite(build_system(pa)).all_pass
    assert count[0] < 16 * (d + 1)
