import random
import re
from dataclasses import replace
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from leonard import search
from leonard.errors import DegenerateSplit, NotALeonardPair, SingularMatrix
from leonard.fields import Field, PrimeFieldElement
from leonard.linalg import Matrix, bidiagonal, eval_root_product
from leonard.systems import (
    LeonardSystem,
    ParameterArray,
    build_system,
    certify,
    complete_parameter_array,
    d4_apply,
    d4_orbit,
    d4_reduce,
    edge_values,
    extract_parameter_array,
    nu_scalars,
    check_pa1,
    pa5_failure,
    pa_failure,
    solve_gram,
    split_projectors,
    split_projectors_by_intersection,
    standard_identity_suite,
    trace_products,
    trace_products_closed_form,
    verify_axioms,
)

from conftest import (
    ARRAY_CHECKS,
    FROZEN_ARRAYS,
    GRAM_CHECKS,
    SUITE_CHECKS,
    conjugator,
    field_scalars,
    leonard_array,
    leonard_arrays,
)
from reference import (NonUniqueForm, assert_form_is, form_by_pair, gram_by_nullspace, gram_premise_failures,
                       report_systems, swapped_idempotents)

Q = Field.rational()
GFP = Field.prime(2**31 - 1)


def d1_example() -> ParameterArray:
    # theta = theta* = (1, -1), varphi = (2); the split-basis display forces
    # A = [[1,0],[1,-1]], A* = [[1,2],[0,-1]] and the second split sequence (6)
    return ParameterArray(Q, 1, (F(1), F(-1)), (F(1), F(-1)), (F(2),), (F(6),))


def test_parameter_array_validation():
    with pytest.raises(ValueError):
        ParameterArray(Q, 1, (F(1), F(1)), (F(0), F(1)), (F(1),), (F(1),))
    with pytest.raises(ValueError):
        ParameterArray(Q, 1, (F(1), F(2)), (F(0), F(1)), (F(0),), (F(1),))
    with pytest.raises(ValueError):
        ParameterArray(Q, 1, (F(1), F(2)), (F(0), F(1)), (F(1),), (F(1), F(2)))
    with pytest.raises(ValueError):
        ParameterArray(Q, 1, (F(1), F(2)), (F(0), PrimeFieldElement(7, 1)), (F(1),), (F(1),))


def test_parameter_array_json_round_trip():
    pa = d1_example()
    assert ParameterArray.from_json(pa.to_json()) == pa


def test_build_d0():
    pa = ParameterArray(Q, 0, (F(1),), (F(1),), (), ())
    s = build_system(pa)
    assert s.A == Matrix(Q, [[F(1)]])
    assert s.Astar == Matrix(Q, [[F(1)]])
    assert s.E[0] == Matrix(Q, [[F(1)]])
    assert s.Estar[0] == Matrix(Q, [[F(1)]])
    assert verify_axioms(s).all_pass


def test_build_d1_shapes():
    s = build_system(d1_example())
    assert s.A == Matrix(Q, [[F(1), F(0)], [F(1), F(-1)]])
    assert s.Astar == Matrix(Q, [[F(1), F(2)], [F(0), F(-1)]])


def test_naive_diagonal_pair_fails():
    diag = Matrix(Q, [[F(1), F(0)], [F(0), F(2)]])
    s = LeonardSystem.from_pair(diag, diag, (F(1), F(2)), (F(1), F(2)))
    report = verify_axioms(s)
    assert not report.all_pass
    assert not report["tridiagonal_Astar_in_A_eigenbasis"].passed


def test_certify_round_trip_gate():
    # same matrices, wrong stored second split sequence: axioms pass but
    # certification rejects via the extraction round trip
    bad = ParameterArray(Q, 1, (F(1), F(-1)), (F(1), F(-1)), (F(2),), (F(5),))
    assert verify_axioms(build_system(bad)).all_pass
    with pytest.raises(NotALeonardPair):
        certify(bad)


def test_extract_round_trip_examples():
    pa = d1_example()
    assert extract_parameter_array(build_system(pa)) == pa
    pa0 = ParameterArray(Q, 0, (F(2),), (F(3),), (), ())
    out = extract_parameter_array(build_system(pa0))
    assert out == pa0 and out.varphi == () and out.phi == ()


def test_second_split_sequence_is_first_of_double_down(corpus):
    # phi of a system equals varphi extracted from its double-down relative
    for pa in [d1_example(), corpus.frozen[0]]:
        rel = d4_apply(pa, "D")
        assert extract_parameter_array(build_system(rel)).varphi == pa.phi


def test_extract_is_basis_independent(corpus):
    rng = random.Random(2024)
    pa = corpus.frozen[0]
    s = corpus.system(pa)
    n = pa.d + 1
    while True:
        K = Matrix(Q, [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)])
        if K.rank() == n:
            break
    assert extract_parameter_array(s.conjugated(K)) == pa


def test_degenerate_split_detected():
    # junk idempotents force a vanishing split vector
    zero = Matrix.zeros(Q, 2)
    eye = Matrix.identity(Q, 2)
    s = LeonardSystem(eye, eye, (eye, zero), (zero, zero), (F(0), F(1)), (F(0), F(1)))
    with pytest.raises(DegenerateSplit):
        extract_parameter_array(s)


# --- closed-form classification (PA1-PA5) against the matrix route ---


def matrix_route_phi(field, theta, theta_star, varphi):
    """phi of the bidiagonal pair when it passes the axioms, else None."""
    A, Astar = bidiagonal(field, theta), bidiagonal(field, theta_star, varphi)
    s = LeonardSystem.from_pair(A, Astar, theta, theta_star)
    if not verify_axioms(s).all_pass:
        return None
    return extract_parameter_array(s).phi


def classifier_phi(field, theta, theta_star, varphi):
    try:
        return complete_parameter_array(field, theta, theta_star, varphi).phi
    except NotALeonardPair:
        return None


@st.composite
def near_realizable(draw):
    """(theta, theta*, varphi) near the Krawtchouk family, drawn to reach each condition.

    theta and theta* are arithmetic and varphi_i = i (d - i + 1) r, which is
    realizable with phi_i = i (d - i + 1) (r + s s*).  Variants: r = -s s*
    breaks PA2; one perturbed varphi_i breaks PA3; one perturbed eigenvalue,
    with varphi_2..varphi_d re-solved from PA3, leaves PA5 to decide.
    """
    p = draw(st.sampled_from([None, 5, 7, 13]))
    field = Q if p is None else Field.prime(p)
    d = draw(st.sampled_from([1, 2, 3, 4, 3, 4]))  # PA5 needs d >= 3
    num = lambda: field.from_int(draw(st.integers(min_value=-6, max_value=6)))
    kind = draw(st.sampled_from(["exact", "PA2", "varphi", "eigenvalue"]))
    th0, step, ths0, step_star = num(), num(), num(), num()
    r = -step * step_star if kind == "PA2" else num()
    theta = [th0 + step * field.from_int(i) for i in range(d + 1)]
    theta_star = [ths0 + step_star * field.from_int(i) for i in range(d + 1)]
    varphi = [field.from_int(i * (d - i + 1)) * r for i in range(1, d + 1)]
    if kind in ("varphi", "eigenvalue"):
        target = varphi if kind == "varphi" else draw(st.sampled_from([theta, theta_star]))
        k = draw(st.integers(min_value=0, max_value=len(target) - 1))
        target[k] = target[k] + num()
    assume(len(set(theta)) == d + 1 and len(set(theta_star)) == d + 1)
    if kind == "eigenvalue":
        th, ths = theta, theta_star
        s_ = lambda i: sum(((th[h] - th[d - h]) / (th[0] - th[d]) for h in range(i)), field.zero())
        phi_1 = varphi[0] + (ths[1] - ths[0]) * (th[d] - th[0])
        for i in range(2, d + 1):
            varphi[i - 1] = phi_1 * s_(i) + (ths[i] - ths[0]) * (th[i - 1] - th[d])
    assume(all(varphi))
    return field, tuple(theta), tuple(theta_star), tuple(varphi)


@settings(max_examples=150, deadline=None)
@given(near_realizable())
def test_classifier_agrees_with_matrix_route(candidate):
    assert classifier_phi(*candidate) == matrix_route_phi(*candidate)


def test_classifier_completes_certified_arrays(corpus):
    for pa in corpus.arrays:
        assert complete_parameter_array(pa.field, pa.theta, pa.theta_star, pa.varphi) == pa


@pytest.mark.parametrize("theta, theta_star, varphi, witness", [
    ((0, 1), (0, 1), (-1,), "PA2 fails at i=1"),
    ((0, 1, 2), (0, 1, 2), (2, 3), "PA3 fails at i=2"),
    ((0, 1, 2, 4), (0, 1, 2, 3), (4, 4, 2), "PA5 fails at i=2"),
])
def test_classifier_names_failed_condition(theta, theta_star, varphi, witness):
    args = (Q, [F(x) for x in theta], [F(x) for x in theta_star], [F(x) for x in varphi])
    with pytest.raises(NotALeonardPair, match=witness):
        complete_parameter_array(*args)
    assert matrix_route_phi(*args) is None


def test_classifier_rejects_repeated_eigenvalues():
    with pytest.raises(ValueError):
        complete_parameter_array(Q, (F(1), F(1)), (F(0), F(1)), (F(1),))


# --- PA5 by cross-multiplication against its division form ---


def pa5_by_division(theta, theta_star):
    """PA5 as ratios of differences, the oracle of pa5_failure: the first failing i, else None."""
    ratio = lambda t, i: (t[i - 2] - t[i + 1]) / (t[i - 1] - t[i])
    for i in range(2, len(theta) - 1):
        if not ratio(theta, i) == ratio(theta_star, i) == ratio(theta, 2):
            return i
    return None


@st.composite
def distinct_pairs(draw, max_d=6):
    """(theta, theta*), each d + 1 distinct scalars over Q or GF(p), d = 0..max_d."""
    field = draw(st.sampled_from([Q, Field.prime(11), Field.prime(13), GFP]))
    d = draw(st.integers(min_value=0, max_value=max_d))
    seq = lambda: tuple(draw(st.lists(field_scalars(field), min_size=d + 1, max_size=d + 1, unique=True)))
    return seq(), seq()


@st.composite
def perturbed_leonard_pairs(draw):
    """(theta, theta*) of a Leonard array, d = 3..6, with one entry moved: PA5 fails at any i."""
    field = draw(st.sampled_from([Q, GFP]))
    d = draw(st.integers(min_value=3, max_value=6))
    pa = draw(leonard_arrays(field, d))
    seqs = [list(pa.theta), list(pa.theta_star)]
    which, k = draw(st.integers(min_value=0, max_value=1)), draw(st.integers(min_value=0, max_value=d))
    seqs[which][k] = seqs[which][k] + draw(field_scalars(field))
    assume(all(len(set(seq)) == d + 1 for seq in seqs))
    return tuple(seqs[0]), tuple(seqs[1])


@settings(max_examples=150, deadline=None)
@given(near_realizable())
def test_pa5_failure_agrees_with_division_near_realizable(candidate):
    _, theta, theta_star, _ = candidate
    assert pa5_failure(theta, theta_star) == pa5_by_division(theta, theta_star)


@settings(max_examples=200, deadline=None)
@given(st.one_of(distinct_pairs(), perturbed_leonard_pairs()))
def test_pa5_failure_agrees_with_division_form(pair):
    assert pa5_failure(*pair) == pa5_by_division(*pair)


@settings(max_examples=50, deadline=None)
@given(distinct_pairs(max_d=2))
def test_pa5_failure_needs_d_at_least_3(pair):
    assert pa5_failure(*pair) is None


@pytest.mark.parametrize("theta, theta_star, index", [
    ((0, 1, 2, 3, 4, 6), (0, 1, 2, 3, 4, 6), 4),  # theta's own ratio changes at i = 4
    ((0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 5, 4), 3),  # theta*'s ratio changes at i = 3
    ((0, 1, 2, 4), (0, 1, 2, 3), 2),
    ((0, 1, 3, 4), (0, 1, 3, 4), None),
])
def test_pa5_failure_index(theta, theta_star, index):
    th, ths = [F(x) for x in theta], [F(x) for x in theta_star]
    assert pa5_failure(th, ths) == pa5_by_division(th, ths) == index


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pa5_holds_on_leonard_arrays(field, data):
    pa = data.draw(leonard_arrays(field, data.draw(st.integers(min_value=0, max_value=6), label="d")), label="pa")
    assert pa5_failure(pa.theta, pa.theta_star) is None


# --- PA2-PA5 without division against the division route ---


def complete_by_division(field, theta, theta_star, varphi):
    """PA1-PA5 with s_i = sum_{h<i} (theta_h - theta_{d-h}) / (theta_0 - theta_d) divided
    out, the oracle of the division-free `complete_parameter_array`."""
    th, ths, varphi = tuple(theta), tuple(theta_star), tuple(varphi)
    d = len(th) - 1
    check_pa1(field, d, th, ths, varphi, varphi)
    s = [field.zero()]
    for h in range(d):
        s.append(s[-1] + (th[h] - th[d - h]) / (th[0] - th[d]))
    phi = tuple(varphi[0] * s[i] + (ths[i] - ths[0]) * (th[d - i + 1] - th[0]) for i in range(1, d + 1))
    for i in range(1, d + 1):
        if not phi[i - 1]:
            raise NotALeonardPair(f"PA2 fails at i={i}: phi_{i} = 0")
    for i in range(1, d + 1):
        if varphi[i - 1] != phi[0] * s[i] + (ths[i] - ths[0]) * (th[i - 1] - th[d]):
            raise NotALeonardPair(f"PA3 fails at i={i}: varphi_{i} disagrees with phi_1")
    i = pa5_by_division(th, ths)
    if i is not None:
        raise NotALeonardPair(f"PA5 fails at i={i}: the theta, theta* recurrences differ")
    return ParameterArray(field, d, th, ths, varphi, phi)


def completion(complete, *args):
    """The array, or the message of the NotALeonardPair or ValueError raised."""
    try:
        out = complete(*args)
    except (NotALeonardPair, ValueError) as exc:
        out = f"{type(exc).__name__}: {exc}"
    event(out.split(" at ")[0] if isinstance(out, str) else "accepted")
    return out


BOX_VALUES = sorted({x for row in search._BOX for x in row})  # twelve times each value of the rational search box


@st.composite
def box_candidates(draw):
    """A rational search candidate as the search draws it: (12 theta, 12 theta*, 12 varphi), d = 0..4,
    with varphi_1 sometimes set to (theta*_1 - theta*_0)(theta_0 - theta_d), where PA2 fails at i = 1."""
    d = draw(st.sampled_from([0, 1, 1, 2, 2, 3, 4]))
    distinct = lambda: tuple(draw(st.lists(st.sampled_from(BOX_VALUES), min_size=d + 1, max_size=d + 1, unique=True)))
    theta = distinct()
    theta_star = theta if draw(st.booleans()) else distinct()
    varphi = draw(st.lists(st.sampled_from([x for x in BOX_VALUES if x]), min_size=d, max_size=d))
    if d and draw(st.booleans()):
        varphi[0] = F((theta_star[1] - theta_star[0]) * (theta[0] - theta[d]), 12)
        assume(varphi[0].denominator == 1 and varphi[0] in BOX_VALUES and varphi[0])
        varphi[0] = int(varphi[0])
    return theta, theta_star, tuple(varphi)


@st.composite
def perturbed_krawtchouk(draw):
    """theta_i = theta_0 + s i, theta*_i = theta*_0 + s* i and varphi_i = r i (i - d - 1) over Q or
    GF(2^31 - 1), d = 0..6: Leonard unless r = s s* (PA2 fails).  Then at most one entry of
    theta, theta* or varphi moves; after a moved eigenvalue, varphi_2..varphi_d may be
    re-solved from PA3, which leaves PA5 to decide."""
    field = draw(st.sampled_from([Q, GFP]))
    x = field_scalars(field)
    d = draw(st.integers(min_value=0, max_value=6))
    th0, s, ths0, s_star = draw(x), draw(x), draw(x), draw(x)
    r = s * s_star if draw(st.integers(0, 4)) == 0 else draw(x)
    th, ths, varphi = ([th0 + s * field.from_int(i) for i in range(d + 1)],
                       [ths0 + s_star * field.from_int(i) for i in range(d + 1)],
                       [r * field.from_int(i * (i - d - 1)) for i in range(1, d + 1)])
    which = draw(st.sampled_from([None, 0, 1, 2]))
    target = (th, ths, varphi)[which] if which is not None else []
    if target:
        k = draw(st.integers(min_value=0, max_value=len(target) - 1))
        target[k] = target[k] + draw(x)
    if which in (0, 1) and d and th[0] != th[d] and draw(st.booleans()):
        s_ = lambda i: sum(((th[h] - th[d - h]) / (th[0] - th[d]) for h in range(i)), field.zero())
        phi_1 = varphi[0] + (ths[1] - ths[0]) * (th[d] - th[0])
        for i in range(2, d + 1):
            varphi[i - 1] = phi_1 * s_(i) + (ths[i] - ths[0]) * (th[i - 1] - th[d])
    a, b = draw(x.filter(bool)), draw(x.filter(bool))  # (a theta, b theta*, ab varphi) must agree
    return field, tuple(th), tuple(ths), tuple(varphi), a, b


def assert_same_verdict(expected, verdict):
    """`pa_failure`'s verdict on scaled sequences against the oracle's outcome on the array."""
    if isinstance(verdict, str):
        assert expected == f"NotALeonardPair: {verdict}"
    else:
        assert isinstance(expected, ParameterArray)


@settings(max_examples=300, deadline=None)
@given(box_candidates())
def test_division_free_classifier_on_box_candidates(candidate):
    theta, theta_star, varphi = candidate
    args = (Q, *(tuple(F(x, 12) for x in seq) for seq in candidate))
    expected = completion(complete_by_division, *args)
    assert completion(complete_parameter_array, *args) == expected
    # the search classifies (12 theta, 12 theta*, 144 varphi) in place of the array
    assert_same_verdict(expected, pa_failure(theta, theta_star, tuple(12 * x for x in varphi)))


@settings(max_examples=300, deadline=None)
@given(perturbed_krawtchouk())
def test_division_free_classifier_on_perturbed_krawtchouk(candidate):
    field, theta, theta_star, varphi, a, b = candidate
    expected = completion(complete_by_division, field, theta, theta_star, varphi)
    assert completion(complete_parameter_array, field, theta, theta_star, varphi) == expected
    if isinstance(expected, str) and expected.startswith("ValueError"):
        return  # PA1 fails, and pa_failure presumes it
    scaled = ([a * t for t in theta], [b * t for t in theta_star], [a * b * v for v in varphi])
    assert_same_verdict(expected, pa_failure(*scaled))


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_scalar_tables_match_direct_products(field, data):
    d = data.draw(st.integers(min_value=0, max_value=8), label="d")
    pa = data.draw(leonard_arrays(field, d), label="pa")
    one = field.one()
    assert pa.split_products == tuple(
        part for seq in (pa.varphi, pa.phi)
        for part in (tuple(prod(seq[:i], start=one) for i in range(d + 1)),
                     tuple(prod(seq[d - i:], start=one) for i in range(d + 1))))
    assert pa.gaps == tuple(tuple(prod((t[r] - t[h] for h in range(d + 1) if h != r), start=one) for r in range(d + 1))
                            for t in (pa.theta, pa.theta_star))
    (g, gs) = pa.gaps
    assert edge_values(pa) == (g[d], g[0], gs[d], gs[0])
    assert pa.split_products is pa.split_products and pa.gaps is pa.gaps  # each built once


@pytest.mark.parametrize("obj", FROZEN_ARRAYS, ids=[f"frozen{k}-d{o['d']}" for k, o in enumerate(FROZEN_ARRAYS)])
def test_frozen_arrays_rederived(obj):
    # beta + 1 = (theta_0 - theta_3) / (theta_1 - theta_2) fixes the shared recurrence (PA5)
    frozen = ParameterArray.from_json(obj)
    th = frozen.theta
    beta = (th[0] - th[3]) / (th[1] - th[2]) - 1
    assert leonard_array(Q, frozen.d, th[:3], frozen.theta_star[:3], beta, frozen.varphi[0]) == frozen


# --- relatives ---


def test_d4_generator_examples():
    pa = d1_example()
    assert d4_apply(pa, "**") == pa
    down2 = d4_apply(pa, "D")
    assert down2.theta == (F(-1), F(1))
    assert down2.theta_star == pa.theta_star
    assert down2.varphi == (F(6),) and down2.phi == (F(2),)
    assert d4_apply(pa, "dD") == d4_apply(pa, "Dd")


def test_d4_star_of_nonselfdual():
    pa = ParameterArray(Q, 1, (F(1), F(-1)), (F(2), F(0)), (F(1),), (F(5),))
    star = d4_apply(pa, "*")
    assert star.theta == pa.theta_star and star.theta_star == pa.theta
    assert star.varphi == pa.varphi and star.phi == tuple(reversed(pa.phi))


def test_d4_word_reduction():
    assert d4_reduce("") == "e"
    assert d4_reduce("**") == "e"
    assert d4_reduce("dd") == "e"
    assert d4_reduce("DD") == "e"
    assert d4_reduce("D*") == "*d"
    assert d4_reduce("d*") == "*D"
    assert d4_reduce("dD") == "dD"
    assert d4_reduce("*dD*") == "dD"  # *(dD)* : conjugation swaps the arrows


def test_d4_relations_as_actions(corpus):
    for pa in corpus.arrays:
        assert d4_apply(pa, "**") == pa
        assert d4_apply(pa, "dd") == pa
        assert d4_apply(pa, "DD") == pa
        assert d4_apply(pa, "D*") == d4_apply(pa, "*d")
        assert d4_apply(pa, "d*") == d4_apply(pa, "*D")
        assert d4_apply(pa, "dD") == d4_apply(pa, "Dd")


def test_d4_orbit_size_divides_8(corpus):
    for pa in corpus.arrays:
        orbit = d4_orbit(pa)
        assert set(orbit.keys()) == {"e", "*", "d", "D", "dD", "*d", "*D", "*dD"}
        assert orbit["e"] == pa
        distinct = len({rel.to_json().__repr__() for rel in orbit.values()})
        assert 8 % distinct == 0


def test_relatives_are_certifiable():
    pa = d1_example()
    for rel in d4_orbit(pa).values():
        certify(rel)


# --- scalars ---


def test_nu_d0_all_one():
    pa = ParameterArray(Q, 0, (F(4),), (F(9),), (), ())
    assert nu_scalars(pa) == (F(1), F(1), F(1), F(1))


def test_nu_matches_traces(corpus):
    for pa in corpus.arrays[:8]:
        s = corpus.system(pa)
        nu, nu_down, nu_ddown, nu_dd = nu_scalars(pa)
        one = pa.field.one()
        d = pa.d
        assert nu * (s.E[0] * s.Estar[0]).trace() == one
        assert nu_down * (s.E[0] * s.Estar[d]).trace() == one
        assert nu_ddown * (s.E[d] * s.Estar[0]).trace() == one
        assert nu_dd * (s.E[d] * s.Estar[d]).trace() == one


def test_nu_defining_relation_on_relatives():
    # nu of each relative equals 1/tr(E_0 E*_0) computed on the rebuilt relative
    pa = d1_example()
    for word in ("e", "d", "D", "dD"):
        rel = d4_apply(pa, word if word != "e" else "")
        s = certify(rel)
        assert nu_scalars(rel)[0] * (s.E[0] * s.Estar[0]).trace() == F(1)


def test_trace_products_d0():
    pa = ParameterArray(Q, 0, (F(4),), (F(9),), (), ())
    s = certify(pa)
    assert trace_products(s, 0) == (F(1), F(1), F(1), F(1))
    assert trace_products_closed_form(pa, 0) == (F(1), F(1), F(1), F(1))


def test_trace_products_sum_to_one(corpus):
    for pa in corpus.arrays[:6]:
        s = corpus.system(pa)
        total = pa.field.zero()
        for r in range(pa.d + 1):
            total = total + trace_products(s, r)[0]
        assert total == pa.field.one()


def test_trace_products_closed_forms(corpus):
    pa = next(p for p in corpus.arrays if p.d == 2)
    s = corpus.system(pa)
    for r in range(pa.d + 1):
        assert trace_products(s, r) == trace_products_closed_form(pa, r)


def test_trace_products_index_error():
    s = certify(d1_example())
    with pytest.raises(IndexError):
        trace_products(s, 2)
    with pytest.raises(IndexError):
        trace_products_closed_form(d1_example(), -1)


# --- split projectors ---


def test_split_projectors_d0():
    pa = ParameterArray(Q, 0, (F(4),), (F(9),), (), ())
    s = certify(pa)
    assert split_projectors(s) == [Matrix.identity(Q, 1)]


def test_split_projectors_match_intersection():
    s = certify(d1_example())
    formula = split_projectors(s)
    oracle = split_projectors_by_intersection(s)
    assert formula == oracle
    total = Matrix.zeros(Q, 2)
    for Fi in formula:
        assert Fi * Fi == Fi
        total = total + Fi
    assert total == Matrix.identity(Q, 2)


# --- the bilinear form and dagger ---


def test_gram_d0():
    s = certify(ParameterArray(Q, 0, (F(4),), (F(9),), (), ()))
    assert_form_is(s, Matrix(Q, [[F(1)]]))


def test_gram_d1_frozen():
    # oracle: solved the 4-unknown intertwining system by hand
    s = certify(d1_example())
    G = Matrix(Q, [[F(1), F(1)], [F(1), F(-2)]])
    assert_form_is(s, G)
    assert G == G.transpose()
    assert s.A.transpose() * G == G * s.A
    assert s.Astar.transpose() * G == G * s.Astar


def test_gram_normalization_leading_one(corpus):
    for pa in corpus.arrays[:6]:
        G = form_by_pair(corpus.system(pa))
        lead = next(x for x in G[0] if x)
        assert lead == pa.field.one()


B_PREMISE = "U A* W is not irreducible tridiagonal"


def test_gram_non_unique_rejected():
    # a reducible pair: the first four premises of the eigenbasis solve hold, and B = U A* W is
    # diagonal, so the form is not unique: the oracle finds a 2-dimensional space of them
    diag = Matrix(Q, [[F(1), F(0)], [F(0), F(2)]])
    with pytest.raises(DegenerateSplit, match=f"^{re.escape(B_PREMISE)}$"):
        solve_gram(LeonardSystem.from_pair(diag, diag, (F(1), F(2)), (F(1), F(2))))
    with pytest.raises(NonUniqueForm, match="^intertwiner space has dimension 2$"):
        gram_by_nullspace(diag, diag)


def test_closed_form_gram_matches_nullspace(corpus):
    for pa in corpus.arrays:
        s = corpus.system(pa)
        for sys in (s, s.conjugated(conjugator(pa.field, s.d + 1))):
            assert_form_is(sys, gram_by_nullspace(sys.A, sys.Astar)[0])


def _outcome(build):
    try:
        return build()
    except (DegenerateSplit, NonUniqueForm, SingularMatrix) as exc:
        return type(exc), str(exc)


def _weights_agree(sys, oracle) -> bool:
    """Whether `solve_gram` refuses with the premise on B = U A* W where the oracle's outcome refuses (no form, or
    not one up to scale), and otherwise returns the weights of the oracle's G (`assert_form_is`)."""
    if oracle[0] in (NonUniqueForm, SingularMatrix):
        return _outcome(lambda: solve_gram(sys)) == (DegenerateSplit, B_PREMISE)
    assert_form_is(sys, oracle[0])
    return True


def test_gram_fallback_raises_like_nullspace(corpus):
    """Where the oracle finds a form, solve_gram finds the weights of the same one; where the oracle refuses (no
    form, or not one up to scale), solve_gram refuses with the premise on B = U A* W.  A repeated theta is refused
    as a premise before any form is sought."""
    eye, swap = Matrix.identity(Q, 2), Matrix.from_ints(Q, [[0, 1], [1, 0]])
    units = [Matrix.from_ints(Q, [[1, 0], [0, 0]]), Matrix.from_ints(Q, [[0, 0], [0, 1]])]
    repeated = LeonardSystem(eye, swap, units, units, (F(1), F(1)), (F(1), F(-1)))
    assert _outcome(lambda: solve_gram(repeated)) == (DegenerateSplit, "theta is not d + 1 = 2 distinct values")
    assert _outcome(lambda: gram_by_nullspace(repeated.A, repeated.Astar)) == (
        NonUniqueForm, "intertwiner space has dimension 2")
    diag = Matrix(Q, [[F(1), F(0)], [F(0), F(2)]])
    cases = [LeonardSystem.from_pair(diag, diag, (F(1), F(2)), (F(1), F(2)))]  # B diagonal, reducible
    for pa in corpus.arrays:
        for i in {0, pa.d - 1}:
            varphi = list(pa.varphi)
            varphi[i] = varphi[i] + 1
            if pa.d >= 2 and all(varphi):
                cases.append(build_system(replace(pa, varphi=tuple(varphi))))
    oracle = [_outcome(lambda: gram_by_nullspace(s.A, s.Astar)) for s in cases]
    refused = [i for i, outcome in enumerate(oracle) if outcome[0] in (NonUniqueForm, SingularMatrix)]
    assert len(refused) >= len(corpus.frozen) + 1
    assert all(_weights_agree(s, outcome) for s, outcome in zip(cases, oracle))
    assert oracle[-1] == (NonUniqueForm, "intertwiner space has dimension 0")
    with pytest.raises(DegenerateSplit, match=f"^{re.escape(B_PREMISE)}$"):
        solve_gram(cases[-1])


def random_split_arrays(field, d, count, seed):
    """count seeded random parameter arrays over field, Leonard or not: distinct theta and theta*,
    nonzero varphi and phi, each entry a uniform residue mod p, or over Q num/den with |num| <= 3
    and 1 <= den <= 2.  A draw that breaks PA1 is drawn again."""
    rng = random.Random(seed)
    if field.is_rational:
        draw = lambda k: [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k)]
    else:
        draw = lambda k: [PrimeFieldElement(field.p, rng.randrange(field.p)) for _ in range(k)]
    out = []
    while len(out) < count:
        try:
            out.append(ParameterArray(field, d, draw(d + 1), draw(d + 1), draw(d), draw(d)))
        except ValueError:
            pass
    return out


@pytest.mark.parametrize("field, d", [(Field.prime(5), 2), (Field.prime(7), 3), (Q, 2)],
                         ids=["GF(5)-d2", "GF(7)-d3", "Q-d2"])
def test_gram_recurrence_never_flips_a_verdict(field, d):
    """On 300 seeded random arrays in split form, Leonard or not, solve_gram returns the weights of the oracle's G
    wherever the oracle finds a form, and refuses with its premise on B = U A* W wherever the oracle refuses: the
    recurrence gives up no form that the n^2-unknown null space finds."""
    verdicts = {True: 0, False: 0}
    for pa in random_split_arrays(field, d, 300, seed=24):
        s = build_system(pa)
        oracle = _outcome(lambda: gram_by_nullspace(s.A, s.Astar))
        assert _weights_agree(s, oracle)
        verdicts[oracle[0] in (NonUniqueForm, SingularMatrix)] += 1
    assert verdicts[True] and verdicts[False]


def test_gram_falls_back_when_A_is_not_diagonal_in_the_eigenbasis():
    # E_i := E*_i factors with U W = I, but U A W != diag(theta): the failed premise idempotents_E_spectral,
    # where the n^2-unknown null space would still find the form of (A, A*)
    s = certify(ParameterArray.from_json(FROZEN_ARRAYS[0]))
    swapped = LeonardSystem(s.A, s.Astar, s.Estar, s.Estar, s.theta, s.theta_star, s.pa)
    assert swapped.eigenbasis() == s.eigenbasis(star=True)
    with pytest.raises(DegenerateSplit, match=r"^idempotents_E_spectral fails$"):
        solve_gram(swapped)
    assert_form_is(s, gram_by_nullspace(swapped.A, swapped.Astar)[0])


# case -> (the premise solve_gram names, the checks outside the Gram block that carry the same error); the
# premises of `systems.premises` on E are also those of the F[M] checks on A, which name them alike
F_M_ON_A = {"edge_idempotent_E0", "edge_idempotent_Ed", "char_product_A", "subalgebra_three_bases_A"}
GRAM_PREMISE_FAILURES = {
    "E0-rank-two": ("idempotent E_0 is not of rank one", {
        "tridiagonal_Astar_in_A_eigenbasis", "idempotents_E_orthogonal", "round_trip_parameter_array",
        "nu_sandwich_E0", "nu_sandwich_E0star", "trace_products_closed_form", "nu_closed_forms_match_traces",
        "split_projectors_match_intersection", "split_projectors_resolution", "split_pairing_delta"}),
    "theta-repeated": ("idempotents_E_spectral fails", F_M_ON_A),
    "UAW-not-diagonal": ("idempotents_E_spectral fails", F_M_ON_A),
    "UW-not-I": ("idempotents_E_orthogonal fails", F_M_ON_A),
}


@pytest.mark.parametrize("case", GRAM_PREMISE_FAILURES)
def test_gram_premise_failure_fails_the_gram_block(case):
    """solve_gram raises DegenerateSplit naming the failed premise, and the seven Gram checks fail
    with it as their witness; no other check gains it."""
    message, others = GRAM_PREMISE_FAILURES[case]
    s = gram_premise_failures()[case]
    with pytest.raises(DegenerateSplit) as info:
        solve_gram(s)
    assert str(info.value) == message
    report = standard_identity_suite(s)
    carriers = {c.name for c in report.checks if c.witness == {"error": message}}
    assert carriers == set(GRAM_CHECKS) | others
    assert not any(report[name].passed for name in GRAM_CHECKS)


EXTRACTION_ERROR = "extracted array is not a parameter array: theta entries must be mutually distinct"


@pytest.mark.parametrize("stored", [True, False], ids=["stored", "no-stored-array"])
def test_failed_extraction_still_runs_every_check(stored):
    """The round trip fails with the extraction error.  With the array stored, every other check runs
    on it; without one, exactly the checks that read the array fail with that error, and the rest,
    the Gram block included, still run (the Gram block fails its own premise)."""
    s = swapped_idempotents(stored)
    with pytest.raises(DegenerateSplit, match=f"^{EXTRACTION_ERROR}$"):
        extract_parameter_array(s)
    report = standard_identity_suite(s)
    assert [c.name for c in report.checks] == list(SUITE_CHECKS)
    carriers = {c.name for c in report.checks if c.witness == {"error": EXTRACTION_ERROR}}
    assert carriers == {"round_trip_parameter_array", *(() if stored else ARRAY_CHECKS)}
    premise = {"error": "idempotents_E_spectral fails"}
    assert all(report[name].witness == premise for name in GRAM_CHECKS)


@pytest.mark.parametrize("case", ["certified", "not-leonard", "E0-zero", "theta-repeated", "E-is-Estar",
                                  *(f"gram-{case}" for case in GRAM_PREMISE_FAILURES)])
def test_every_report_lists_every_check(case):
    """However a system fails, its report lists the same checks in the same order."""
    report = standard_identity_suite(report_systems()[case])
    assert [c.name for c in report.checks] == list(SUITE_CHECKS)
    assert report.all_pass == (case == "certified")


def _dagger(s):
    """X -> G^-1 X^T G for the package's G, read off `LeonardSystem.pair` (`form_by_pair`)."""
    G = form_by_pair(s)
    Ginv = G.inverse()
    return lambda X: Ginv * X.transpose() * G


def test_dagger_properties():
    s = certify(d1_example())
    dagger = _dagger(s)
    assert dagger(s.A) == s.A
    assert dagger(s.Astar) == s.Astar
    assert dagger(Matrix.identity(Q, 2)) == Matrix.identity(Q, 2)
    for Ei in s.E + s.Estar:
        assert dagger(Ei) == Ei
    probe = Matrix(Q, [[F(1), F(5)], [F(-2), F(3)]])
    assert dagger(dagger(probe)) == probe
    # antiautomorphism: (XY)^dagger = Y^dagger X^dagger
    X, Y = s.A * s.Estar[0], s.Astar + s.E[1]
    assert dagger(X * Y) == dagger(Y) * dagger(X)


def test_dagger_fixes_idempotents_higher_d(corpus):
    pa = corpus.frozen[0]
    s = corpus.system(pa)
    dagger = _dagger(s)
    assert dagger(s.E[1]) == s.E[1]
    assert dagger(s.Estar[1]) == s.Estar[1]


# --- memoised derived data ---


def test_root_families_match_per_index_products(corpus):
    for pa in corpus.arrays:
        s = corpus.system(pa)
        for star, M, theta in ((False, s.A, s.theta), (True, s.Astar, s.theta_star)):
            taus, etas = s.root_family("tau", star), s.root_family("eta", star)
            assert len(taus) == len(etas) == s.d + 1
            for i in range(s.d + 1):
                # tau_i has roots theta_0..theta_{i-1}, eta_i has theta_d..theta_{d-i+1}
                assert taus[i] == eval_root_product(theta[:i], M)
                assert etas[i] == eval_root_product(theta[len(theta) - i:], M)
            assert s.root_family("tau", star) is taus and s.root_family("eta", star) is etas


def test_edge_values_match_direct_products(corpus):
    for pa in corpus.arrays:
        f, d, th, ths = pa.field, pa.d, pa.theta, pa.theta_star
        assert edge_values(pa) == (
            prod((th[d] - th[j] for j in range(d)), start=f.one()),
            prod((th[0] - th[j] for j in range(1, d + 1)), start=f.one()),
            prod((ths[d] - ths[j] for j in range(d)), start=f.one()),
            prod((ths[0] - ths[j] for j in range(1, d + 1)), start=f.one()),
        )


def test_parameter_array_stored_or_extracted_once():
    pa = d1_example()
    s = build_system(pa)
    assert s.parameter_array is pa
    bare = LeonardSystem.from_pair(s.A, s.Astar, s.theta, s.theta_star)
    assert bare.parameter_array == pa
    assert bare.parameter_array is bare.parameter_array


# --- the aggregated suite ---


def test_standard_suite_d1_all_pass():
    report = standard_identity_suite(certify(d1_example()))
    assert report.all_pass
    for name in (
        "edge_idempotent_E0",
        "subalgebra_three_bases_A",
        "nu_sandwich_E0",
        "split_pairing_delta",
        "trace_products_closed_form",
        "split_projectors_match_intersection",
        "gram_symmetric",
        "dagger_involution",
        "round_trip_parameter_array",
    ):
        assert report[name].passed


def test_standard_suite_reports_failures_not_raises():
    diag = Matrix(Q, [[F(1), F(0)], [F(0), F(2)]])
    s = LeonardSystem.from_pair(diag, diag, (F(1), F(2)), (F(1), F(2)))
    report = standard_identity_suite(s)
    assert not report.all_pass
    assert len(report.failures()) >= 1
