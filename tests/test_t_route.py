"""T in the eigenbases: the T sweeps of `dualize` and the work they save.

The suites read T once per side, as the memoised W*^-1 T W and W^-1 T W* (`systems.change_of_basis`): T maps the
eigenspaces, the flags and, with U W = I and U* W* = I, E_i T = T E*_i are read off those matrices, and
T_on_decompositions forms T x once per distinct vector.  `tests/reference.py` decides each sweep by the dense route
it replaced (`assert_agrees`), on T from the bundle or replaced.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from leonard import duality as du
from leonard.linalg import Matrix, Vector, outer
from leonard.systems import ParameterArray, certify

from conftest import FROZEN_ARRAYS, krawtchouk_type
from reference import DIFFERENTIAL, GFP, Q, agrees_on, assert_agrees, drawn, hand_built, passes, q_racah, recording

FOUR = ("Ei_T_equals_T_Estar_i", "Estar_i_T_equals_T_Ei", "T_maps_eigenspaces", "T_on_flags", "T_on_decompositions")


def non_self_dual_controls() -> list:
    """q-Racah (theta* from 1, 3, 4) and Krawtchouk-type arrays, theta* != theta, over Q and GF(2^31 - 1), as params."""
    return [pytest.param(pa, id=f"{name}-{field.kind}-d{d}") for field in (Q, GFP) for d in range(1, 6)
            for name, pa in (("q-racah", q_racah(field, d)),
                             ("krawtchouk", krawtchouk_type(field, d, d, -2, 1, 3, 1)))]


def sweeps_pass(pa, forms) -> list:
    """Whether the T sweeps pass on the system of pa in each of forms, `dualize` agreeing with the reference."""
    return [passes(agreed, "dualize", FOUR) for agreed in agrees_on(pa, forms, ("dualize",))]


def test_corpus_and_conjugates_match_reference(corpus):
    """Conjugated by W^-1, where A is diagonal."""
    for pa in corpus.arrays:
        assert sweeps_pass(pa, ("W",)) == [du.is_self_dual(pa)]


@pytest.mark.parametrize("pa", non_self_dual_controls())
def test_non_self_dual_controls_match_reference(pa):
    assert not du.is_self_dual(pa)
    assert sweeps_pass(pa, ("split", "dense")) == [False, False]


@pytest.mark.parametrize("s_star", [-2, -4], ids=["self-dual", "s*=-4"])
@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
def test_d12_krawtchouk_dualize_matches_reference(field, s_star):
    """At d = 12, above the d <= 8 of the other differential tests: `dualize` on the Krawtchouk array (theta_i =
    12 - 2i) with theta* = theta and with theta*_i = 12 - 4i agrees with the dense reference
    (`reference.assert_agrees`), each check read off T's eigen-coordinates with its dense form; every check passes
    on the first, and the second fails."""
    s = certify(krawtchouk_type(field, 12, 12, -2, 12, s_star, 1))
    got = assert_agrees(s, ("dualize",))["dualize"]
    assert all(passed for passed, _ in got.values()) == (s_star == -2)


@pytest.mark.parametrize("s_star", [-2, -4], ids=["self-dual", "s*=-4"])
@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
def test_d12_krawtchouk_verify_matches_reference(field, s_star):
    """`verify` on the same arrays agrees with the dense reference, each check decided from `systems.premises` or
    `systems.certified` with its dense form, above the d <= 8 of the other differential tests; every check passes."""
    s = certify(krawtchouk_type(field, 12, 12, -2, 12, s_star, 1))
    got = assert_agrees(s, ("verify",))["verify"]
    assert all(passed for passed, _ in got.values())


@pytest.mark.parametrize("s_star", [-2, -4], ids=["self-dual", "s*=-4"])
@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
def test_d12_krawtchouk_bases_and_matrix_of_t_match_reference(field, s_star):
    """`bases` and `matrix-of-t` on the same arrays agree with the dense reference: the 24 bases, their certificates
    and the 18 checks of `bases`, which all pass, and T, A and A* in each of the four bases with B^-1 M B by
    Gauss-Jordan, and with the report of `matrix-of-t` where theta* = theta."""
    s = certify(krawtchouk_type(field, 12, 12, -2, 12, s_star, 1))
    got = assert_agrees(s, ("bases", "matrix-of-t"))["bases"]
    assert len(got) == 18 and all(passed for passed, _ in got.values())


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
@settings(DIFFERENTIAL, max_examples=25)
@given(data=st.data())
def test_generated_arrays_match_reference(field, data):
    pa = data.draw(drawn(field, self_dual=True), label="pa")
    assert sweeps_pass(pa, ("split",)) == [True] or not du.is_self_dual(pa)


@pytest.mark.parametrize("array", [FROZEN_ARRAYS[0], FROZEN_ARRAYS[2]], ids=["d3", "d4"])
def test_wrong_t_matches_reference(array):
    """T replaced by A, as in `reference.wrong_t`: all four sweeps fail on both routes alike."""
    s = certify(ParameterArray.from_json(array))
    got = assert_agrees(s, ("dualize",), dataclasses.replace(du.build_duality_bundle(s), t=s.A))["dualize"]
    assert not any(got[name][0] for name in FOUR)


@pytest.mark.parametrize("k", [2, -1])
def test_scaled_t_matches_reference(k):
    """T replaced by k T on the d = 4 self-dual system: k T still maps each E_iV onto E*_iV and back, and the checks
    read off T's eigen-coordinates W*^-1 T W and W^-1 T W* agree with the dense reference.  (k T)^2 = k^2 lambda I,
    so T^2 = lambda I fails at k = 2 and holds at k = -1; k T != T* either way."""
    s = certify(ParameterArray.from_json(FROZEN_ARRAYS[2]))
    bundle = du.build_duality_bundle(s)
    t = bundle.t.scale(s.field.from_int(k))
    got = assert_agrees(s, ("dualize",), dataclasses.replace(bundle, t=t))["dualize"]
    assert [got[name][0] for name in ("T_squared_equals_lambda_identity", "T_equals_T_star")] == [k * k == 1, False]
    assert all(got[name][0] for name in FOUR)


@pytest.mark.parametrize("j, k", [(j, k) for j in range(4) for k in range(4) if j != k])
def test_one_off_diagonal_coordinate_matches_reference(j, k):
    """T = W (I + e_j e_k^T) W*^-1 on the d = 3 self-dual system: W^-1 T W* has one entry off the diagonal, at
    (j, k), so E_i T = T E*_i fails at i = min(j, k) (row j and column k) and T w*_k leaves the line of w_k."""
    s = certify(ParameterArray.from_json(FROZEN_ARRAYS[0]))
    (W, _), (_, Ustar) = s.eigenbasis(), s.eigenbasis(star=True)
    eye = Matrix.identity(s.field, 4)
    M = eye + outer(eye.column(j), eye.column(k))
    bundle = dataclasses.replace(du.build_duality_bundle(s), t=W * M * Ustar)
    got = assert_agrees(s, ("dualize",), bundle)["dualize"]
    assert got["Ei_T_equals_T_Estar_i"] == (False, {"i": min(j, k)})
    assert got["T_maps_eigenspaces"][0] is False


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
def test_estar_not_orthogonal_fails_both_commutation_sweeps(field):
    """A hand-built system with E*_d doubled, so U* W* != I while U W = I: E_i T = T E*_i is no longer read off
    W^-1 T W*, and both sweeps fail with the premise as witness."""
    sys = hand_built(field, 3)["Estar_d doubled"]
    t = du.duality_operator(sys)
    report = du.verify_duality_suite(sys, du.DualityBundle(t, *[field.one()] * 5))
    assert {name: (report[name].passed, report[name].witness) for name in FOUR[:2]} == dict.fromkeys(
        FOUR[:2], (False, {"error": "idempotents_Estar_orthogonal fails"}))


def _mapped_vectors(s_star: int) -> tuple:
    """(passed, the vectors x of each T x) of T_maps_eigenspaces, T_on_flags and T_on_decompositions on the
    Krawtchouk-type array at d = 4 with theta_i = 4 - 2i and theta*_i = 4 + s_star i."""
    s = certify(krawtchouk_type(Q, 4, 4, -2, 4, s_star, 1))
    bundle = du.build_duality_bundle(s)
    du.verify_geometry_suite(s)  # flags and decompositions, before T is read
    with recording((Matrix, "__mul__")) as calls:
        report = du.verify_geometry_suite(s, bundle)
    vectors = [x for M, x in calls.of("__mul__") if M is bundle.t and type(x) is Vector]
    return [report[name].passed for name in FOUR[2:]], vectors


def test_each_decomposition_vector_is_mapped_once():
    """Where T does not map the eigenspaces, as on an array with theta* != theta, T_on_decompositions forms T x once
    per distinct vector: 6(d-1) + 4 at d >= 1, as [wz] holds the vectors of [zw] reversed and the three
    decompositions [zw] share their first vector, that of [z]."""
    passed, vectors = _mapped_vectors(-4)
    assert passed == [False] * 3
    assert len(vectors) == len(set(vectors)) == 6 * (4 - 1) + 4


def test_no_decomposition_vector_is_mapped_on_a_self_dual_array():
    """On a self-dual array T maps the eigenspaces, so T_on_flags and then T_on_decompositions follow from their
    premises (`duality.verify_geometry_suite`), and no T x is formed."""
    assert _mapped_vectors(-2) == ([True] * 3, [])
