import random
from fractions import Fraction as F

import pytest

from leonard.errors import DegenerateSplit, NonUniqueForm, NotALeonardPair
from leonard.fields import Field, PrimeFieldElement
from leonard.linalg import Matrix, eval_root_product
from leonard.systems import (
    LeonardSystem,
    ParameterArray,
    build_system,
    certify,
    d4_apply,
    d4_orbit,
    d4_reduce,
    edge_values,
    eta_roots,
    extract_parameter_array,
    nu_scalars,
    product,
    solve_gram,
    split_projectors,
    split_projectors_by_intersection,
    standard_identity_suite,
    tau_roots,
    trace_products,
    trace_products_closed_form,
    verify_axioms,
)

Q = Field.rational()


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
    assert s.gram == Matrix(Q, [[F(1)]])


def test_gram_d1_frozen():
    # oracle: solved the 4-unknown intertwining system by hand
    s = certify(d1_example())
    assert s.gram == Matrix(Q, [[F(1), F(1)], [F(1), F(-2)]])
    G = s.gram
    assert G == G.transpose()
    assert s.A.transpose() * G == G * s.A
    assert s.Astar.transpose() * G == G * s.Astar


def test_gram_normalization_leading_one(corpus):
    for pa in corpus.arrays[:6]:
        G = corpus.system(pa).gram
        lead = next(x for x in G[0] if x)
        assert lead == pa.field.one()


def test_gram_non_unique_rejected():
    eye = Matrix.identity(Q, 2)
    with pytest.raises(NonUniqueForm):
        solve_gram(eye, eye)


def test_dagger_properties():
    s = certify(d1_example())
    assert s.dagger(s.A) == s.A
    assert s.dagger(s.Astar) == s.Astar
    assert s.dagger(Matrix.identity(Q, 2)) == Matrix.identity(Q, 2)
    for Ei in s.E + s.Estar:
        assert s.dagger(Ei) == Ei
    probe = Matrix(Q, [[F(1), F(5)], [F(-2), F(3)]])
    assert s.dagger(s.dagger(probe)) == probe
    # antiautomorphism: (XY)^dagger = Y^dagger X^dagger
    X, Y = s.A * s.Estar[0], s.Astar + s.E[1]
    assert s.dagger(X * Y) == s.dagger(Y) * s.dagger(X)


def test_dagger_fixes_idempotents_higher_d(corpus):
    pa = corpus.frozen[0]
    s = corpus.system(pa)
    assert s.dagger(s.E[1]) == s.E[1]
    assert s.dagger(s.Estar[1]) == s.Estar[1]


# --- memoised derived data ---


def test_root_families_match_per_index_products(corpus):
    for pa in corpus.arrays:
        s = corpus.system(pa)
        for star, M, theta in ((False, s.A, s.theta), (True, s.Astar, s.theta_star)):
            taus, etas = s.tau(star), s.eta(star)
            assert len(taus) == len(etas) == s.d + 1
            for i in range(s.d + 1):
                assert taus[i] == eval_root_product(tau_roots(theta, i), M)
                assert etas[i] == eval_root_product(eta_roots(theta, i), M)
            assert s.tau(star) is taus and s.eta(star) is etas


def test_edge_values_match_direct_products(corpus):
    for pa in corpus.arrays:
        f, d, th, ths = pa.field, pa.d, pa.theta, pa.theta_star
        assert edge_values(pa) == (
            product(f, (th[d] - th[j] for j in range(d))),
            product(f, (th[0] - th[j] for j in range(1, d + 1))),
            product(f, (ths[d] - ths[j] for j in range(d))),
            product(f, (ths[0] - ths[j] for j in range(1, d + 1))),
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
