"""T in the eigenbases against the routes it replaced in the four T sweeps of `dualize`.

`verify_geometry_suite` and `verify_duality_suite` read T once per side, as the memoised
W*^-1 T W and W^-1 T W* (`systems.change_of_basis`): T w_i is a nonzero multiple of w*_i
exactly when column i of W*^-1 T W is a nonzero multiple of e_i; F^-1 T G for the flags
F = [T(z)], G = [z] is that matrix with its rows and columns in the flags' orders; and, with
U W = I and U* W* = I, E_i T = T E*_i exactly when row i and column i of W^-1 T W* vanish off
(i, i).  T_on_decompositions forms T x once per distinct decomposition vector.  The reference
below is the route each replaced: T w_i column by column, `spans_components` on F^-1 (T G),
the outer products w_i (T^T u_i)^T and (T w*_i) u*_i^T, and T x for each of the 12(d+1)
vectors.  Both must agree check for check, witness included.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leonard import duality as du
from leonard.fields import Field
from leonard.linalg import Matrix, Vector, outer
from leonard.report import VerificationReport
from leonard.systems import ParameterArray, certify

from conftest import FROZEN_ARRAYS, conjugator, krawtchouk_type, leonard_array, leonard_arrays
from test_cyclic_route import hand_built

Q, GFP = Field.rational(), Field.prime(2**31 - 1)
FOUR = ("Ei_T_equals_T_Estar_i", "Estar_i_T_equals_T_Ei", "T_maps_eigenspaces", "T_on_flags", "T_on_decompositions")


def reference(sys, t) -> dict:
    """name -> (passed, witness) of the T sweeps by the routes the eigenbasis coordinates replaced."""
    report, d = VerificationReport(), sys.d
    factors, t_tr = (sys.eigenbasis(), sys.eigenbasis(star=True)), t.transpose()
    for name, star in (("Ei_T_equals_T_Estar_i", False), ("Estar_i_T_equals_T_Ei", True)):
        (W, U), (Wr, Ur) = factors[star], factors[not star]
        report.add_first_failure(name, ({"i": i} for i in range(d + 1)
                                        if outer(W.column(i), t_tr * U.row(i)) != outer(t * Wr.column(i), Ur.row(i))))
    report.add_last_failure("T_maps_eigenspaces", (
        {"i": i, "side": side} for i in range(d + 1) for side, star in (("E", False), ("Estar", True))
        if not (t * sys.eigencolumn(i, star)).is_colinear(sys.eigencolumn(i, not star))))
    flags = {z: du.build_flag(sys, z) for z in du.OMEGA}
    report.add_last_failure("T_on_flags", (
        {"flag": z, "i": i} for z, image in du.T_FLAG_IMAGE.items()
        for i, spans in enumerate(du.spans_components(flags[image].inverse * (t * flags[z].basis))) if not spans))
    decomps = {pair: du.build_decomposition(sys, *pair) for pair in du.DECOMPOSITION_PAIRS}
    report.add_last_failure("T_on_decompositions", (
        {"pair": f"[{z}{w}]", "i": i} for z, w in du.T_DECOMPOSITION_ORDER for i in range(d + 1)
        if not (t * decomps[(z, w)].vectors[i]).is_colinear(
            decomps[(du.T_FLAG_IMAGE[z], du.T_FLAG_IMAGE[w])].vectors[i])))
    return {c.name: (c.passed, c.witness) for c in report.checks}


def suites(sys, bundle) -> dict:
    reports = (du.verify_duality_suite(sys, bundle), du.verify_geometry_suite(sys, bundle))
    return {c.name: (c.passed, c.witness) for report in reports for c in report.checks}


def assert_matches_reference(sys, bundle=None) -> dict:
    """The T sweeps of the suites against the reference on sys, with T from bundle (built when None)."""
    bundle = du.build_duality_bundle(sys) if bundle is None else bundle
    got = suites(sys, bundle)
    assert {name: got[name] for name in FOUR} == reference(sys, bundle.t)
    return got


def assert_array_matches_reference(pa, s=None) -> list:
    """The system of pa (s, when given) and a dense conjugate; returns the two verdicts of the sweeps."""
    s = certify(pa) if s is None else s
    return [all(got[name][0] for name in FOUR)
            for got in (assert_matches_reference(sys) for sys in (s, s.conjugated(conjugator(pa.field, pa.d + 1))))]


def test_corpus_and_conjugates_match_reference(corpus):
    for pa in corpus.arrays:
        assert assert_array_matches_reference(pa, corpus.system(pa)) == [du.is_self_dual(pa)] * 2


def non_self_dual_controls():
    """q-Racah (theta* from 1, 3, 4) and Krawtchouk-type arrays with theta* != theta, over Q and GF(2^31 - 1)."""
    out = []
    for field in (Q, GFP):
        n = field.from_int
        for d in range(1, 6):
            out.append(pytest.param(leonard_array(field, d, (n(1), n(2), n(7)), (n(1), n(3), n(4)), n(13) / n(6),
                                                  n(5) / n(2)), id=f"q-racah-{field.kind}-d{d}"))
            out.append(pytest.param(krawtchouk_type(field, d, d, -2, 1, 3, 1), id=f"krawtchouk-{field.kind}-d{d}"))
    return out


@pytest.mark.parametrize("pa", non_self_dual_controls())
def test_non_self_dual_controls_match_reference(pa):
    assert not du.is_self_dual(pa)
    assert assert_array_matches_reference(pa) == [False, False]


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_generated_arrays_match_reference(field, data):
    d = data.draw(st.integers(min_value=0, max_value=8), label="d")
    assert_array_matches_reference(data.draw(leonard_arrays(field, d), label="pa"))


@pytest.mark.parametrize("array", [FROZEN_ARRAYS[0], FROZEN_ARRAYS[2]], ids=["d3", "d4"])
def test_wrong_t_matches_reference(array):
    """T replaced by A, as in `tests/test_witnesses.py::wrong_t`: all four sweeps fail on both routes alike."""
    s = certify(ParameterArray.from_json(array))
    got = assert_matches_reference(s, dataclasses.replace(du.build_duality_bundle(s), t=s.A))
    assert not any(got[name][0] for name in FOUR)


@pytest.mark.parametrize("j, k", [(j, k) for j in range(4) for k in range(4) if j != k])
def test_one_off_diagonal_coordinate_matches_reference(j, k):
    """T = W (I + e_j e_k^T) W*^-1 on the d = 3 self-dual system: W^-1 T W* has one entry off the diagonal, at
    (j, k), so E_i T = T E*_i fails at i = min(j, k) (row j and column k) and T w*_k leaves the line of w_k."""
    s = certify(ParameterArray.from_json(FROZEN_ARRAYS[0]))
    (W, _), (_, Ustar) = s.eigenbasis(), s.eigenbasis(star=True)
    eye = Matrix.identity(s.field, 4)
    M = eye + outer(eye.column(j), eye.column(k))
    got = assert_matches_reference(s, dataclasses.replace(du.build_duality_bundle(s), t=W * M * Ustar))
    assert got["Ei_T_equals_T_Estar_i"] == (False, {"i": min(j, k)})
    assert got["T_maps_eigenspaces"][0] is False


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
def test_estar_not_orthogonal_fails_both_commutation_sweeps(field):
    """A hand-built system with E*_d doubled, so U* W* != I while U W = I: E_i T = T E*_i is no longer read off
    W^-1 T W*, and both sweeps fail with the premise as witness."""
    sys = hand_built(field, 3)["Estar_d doubled"]
    t = du.duality_operator(sys)
    got = suites(sys, du.DualityBundle(t, *[field.one()] * 5))
    assert {name: got[name] for name in FOUR[:2]} == dict.fromkeys(
        FOUR[:2], (False, {"error": "idempotents_Estar_orthogonal fails"}))


def test_each_decomposition_vector_is_mapped_once(monkeypatch):
    """T_on_decompositions forms T x once per distinct vector: 6(d-1) + 4 at d >= 1, as [wz] holds the vectors of
    [zw] reversed and the three decompositions [zw] share their first vector, that of [z]."""
    s = certify(ParameterArray.from_json(FROZEN_ARRAYS[2]))  # d = 4
    bundle = du.build_duality_bundle(s)
    du.verify_geometry_suite(s)  # flags and decompositions, before T is read
    vectors = []
    mul = Matrix.__mul__
    monkeypatch.setattr(Matrix, "__mul__", lambda self, other: (self is bundle.t and type(other) is Vector
                                                                and vectors.append(other)) or mul(self, other))
    assert du.verify_geometry_suite(s, bundle).all_pass
    assert len(vectors) == len(set(vectors)) == 6 * (s.d - 1) + 4
