"""The tau/eta families of `LeonardSystem.root_family` and the sums of `duality`
built on them through a rank-one middle factor, against dense references."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leonard import duality as du
from leonard.errors import DegenerateSplit
from leonard.fields import Field
from leonard.linalg import Matrix
from leonard.systems import LeonardSystem, ParameterArray, certify, nu_scalars

from conftest import FROZEN_ARRAYS, leonard_arrays
from reference import dense_family, dense_sum, gram_by_nullspace

FIELDS = [Field.rational(), Field.prime(2**31 - 1)]
FIELD_IDS = ["Q", "GF(2^31-1)"]


def _system(field, data):
    d = data.draw(st.integers(min_value=0, max_value=8), label="d")
    return certify(data.draw(leonard_arrays(field, d), label="pa"))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_sums_match_the_dense_reference(field, data):
    s = _system(field, data)
    d, E, Es, pa = s.d, s.E, s.Estar, s.parameter_array
    tau, eta = ({star: dense_family(s, kind, star) for star in (False, True)} for kind in ("tau", "eta"))
    t, t_star = du.duality_operator(s), du.duality_operator(s, star=True)
    assert t == dense_sum(eta[False][::-1], Es[0] * E[d], tau[True])
    assert t_star == dense_sum(eta[True][::-1], E[0] * Es[d], tau[False])
    assert du.duality_operator_polynomial_form(s) == t
    # the displayed adjoint sums, with the dagger X -> G^-1 X^T G of the oracle's G, and the T^2 expansion equal
    # their left-hand sides densely, and the suite's checks compare the same left-hand sides with the factored sums
    G, Ginv = gram_by_nullspace(s.A, s.Astar)
    assert Ginv * t.transpose() * G == dense_sum(tau[True], E[d] * Es[0], eta[False][::-1])
    assert Ginv * t_star.transpose() * G == dense_sum(tau[False], Es[d] * E[0], eta[True][::-1])
    ph_tail, ph = pa.split_products[3], pa.split_products[2][d]
    weighted = [R.scale(field.invert(ph_tail[j])) for j, R in enumerate(tau[True])]
    assert t * t == dense_sum(eta[False], Es[0] * E[d], weighted).scale(field.invert(nu_scalars(pa)[2]) * ph)
    checks = {c.name: c.passed for c in du.verify_duality_suite(s, du.build_duality_bundle(s)).checks}
    assert checks["T_dagger_displayed_sum"] and checks["T_star_dagger_displayed_sum"]
    assert checks["T_squared_expansion"] and checks["T_polynomial_form"]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_vector_and_covector_families_match_dense_products(field, data):
    s = _system(field, data)
    v = s.eigencolumn(0, star=True) + s.eigencolumn(s.d)
    row = Matrix.from_columns(field, [v]).transpose()  # v^T as a 1 x n matrix
    for kind in ("tau", "eta"):
        for star in (False, True):
            dense = dense_family(s, kind, star)
            assert list(s.root_family(kind, star)) == dense
            assert list(s.root_family(kind, star, v)) == [P * v for P in dense]
            assert list(s.root_family(kind, star, v, covector=True)) == [(row * P).row(0) for P in dense]


def test_root_family_is_memoised():
    s = certify(ParameterArray.from_json(FROZEN_ARRAYS[1]))
    v = s.eigencolumn(0, star=True)
    for args in (("tau",), ("eta", True), ("tau", False, v), ("eta", True, v, True)):
        first = s.root_family(*args)
        assert s.root_family(*args) is first
    # an equal start vector is the same key; vector and covector families are kept apart
    assert s.root_family("tau", False, s.eigencolumn(0, star=True)) is s.root_family("tau", False, v)
    assert s.root_family("tau", False, v) is not s.root_family("tau", False, v, covector=True)


def test_sums_reject_a_vanishing_middle_factor():
    """With E* = E the middle factors E*_0 E_d and E_0 E*_d are 0.  So is the core eta*_d(A*) tau_d(A), a multiple
    of E_0 E_d, which the polynomial form reads only once `systems.certified` holds: here U A* W = diag(theta) is
    not irreducible, and it raises that failed axiom."""
    s = certify(ParameterArray.from_json(FROZEN_ARRAYS[0]))
    same = LeonardSystem(s.A, s.A, s.E, s.E, s.theta, s.theta, s.pa)
    dual = lambda sys: du.duality_operator(sys, star=True)
    for build in (du.duality_operator, dual):
        with pytest.raises(ValueError, match="^the middle factor is not of rank one$"):
            build(same)
    with pytest.raises(DegenerateSplit, match="^tridiagonal_Astar_in_A_eigenbasis fails$"):
        du.duality_operator_polynomial_form(same)


def test_sums_name_a_family_that_does_not_factor():
    s = certify(ParameterArray.from_json(FROZEN_ARRAYS[0]))
    broken = LeonardSystem(s.A, s.Astar, (s.E[0] + s.E[1],) + s.E[1:], s.Estar, s.theta, s.theta_star, s.pa)
    with pytest.raises(DegenerateSplit, match="^idempotent E_0 is not of rank one$"):
        du.duality_operator(broken)
