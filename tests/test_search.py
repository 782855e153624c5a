import random
from itertools import permutations, product

import pytest

from leonard import search
from leonard.duality import is_self_dual
from leonard.errors import BudgetExceeded, ExhaustedTrials, NotALeonardPair
from leonard.fields import Field, PrimeFieldElement
from leonard.search import (
    _BOX_SIZE,
    SearchConfig,
    _draw_scalar,
    enumerate_prime_field,
    random_rational,
    run_search,
)
from leonard.systems import (
    ParameterArray,
    build_system,
    certify,
    complete_parameter_array,
    extract_parameter_array,
)

GF7 = Field.prime(7)
GF3 = Field.prime(3)
Q = Field.rational()


def test_enumerate_d0_trivial_systems():
    # every theta_0 in GF(7) yields certified trivial systems; the full
    # candidate space pairs theta_0 with each theta*_0 (49 arrays), and the
    # self-dual slice has exactly one instance per theta_0
    found = enumerate_prime_field(SearchConfig(GF7, 0, limit=100))
    assert len(found) == 49
    assert {pa.theta[0].r for pa in found} == set(range(7))
    diagonal = enumerate_prime_field(SearchConfig(GF7, 0, self_dual_only=True, limit=100))
    assert len(diagonal) == 7
    assert [pa.theta[0].r for pa in diagonal] == list(range(7))


def test_enumerate_d1_certified_and_deterministic():
    cfg = SearchConfig(GF7, 1, limit=8)
    a = enumerate_prime_field(cfg)
    b = enumerate_prime_field(cfg)
    assert a == b
    assert len(a) == 8
    for pa in a:
        certify(pa)
        assert extract_parameter_array(build_system(pa)) == pa


def test_enumerate_self_dual_only():
    found = enumerate_prime_field(SearchConfig(GF7, 1, self_dual_only=True, limit=5))
    assert len(found) == 5
    for pa in found:
        assert is_self_dual(pa)
        assert pa.theta == pa.theta_star
        assert pa.phi == tuple(reversed(pa.phi))


def test_enumerate_gf3_d1_census():
    # regression constant from the first exhaustive run; agrees with the
    # by-hand count 6 * 6 * 1 (one admissible varphi_1 per (theta, theta*))
    found = enumerate_prime_field(SearchConfig(GF3, 1, limit=10_000))
    assert len(found) == 36


@pytest.mark.parametrize("p, d, self_dual, accepted", [
    (5, 2, False, 6000),  # of 57,600 candidates
    (5, 4, True, 80),  # of 30,720 candidates; characteristic d + 1
])
def test_classifier_census(p, d, self_dual, accepted):
    # regression constants counted by the matrix route (from_pair + axioms)
    F = Field.prime(p)
    orders = [tuple(PrimeFieldElement(p, r) for r in th) for th in permutations(range(p), d + 1)]
    count = 0
    for theta in orders:
        for theta_star in (theta,) if self_dual else orders:
            for vp in product(range(1, p), repeat=d):
                try:
                    complete_parameter_array(F, theta, theta_star, [PrimeFieldElement(p, r) for r in vp])
                    count += 1
                except NotALeonardPair:
                    pass
    assert count == accepted


def test_route_disagreement_raises(monkeypatch):
    # an array the classifier accepts and certify refutes is an error, not a skip
    wrong = lambda f, th, ths, vp: ParameterArray(f, len(th) - 1, th, ths, vp, vp)
    monkeypatch.setattr(search, "complete_parameter_array", wrong)
    with pytest.raises(NotALeonardPair):
        run_search(SearchConfig(GF7, 1, limit=1))


def test_enumerate_rejects_bad_fields():
    with pytest.raises(ValueError):
        enumerate_prime_field(SearchConfig(Q, 1))
    with pytest.raises(ValueError):
        enumerate_prime_field(SearchConfig(Field.prime(2), 1))


def test_enumerate_budget_guard(monkeypatch):
    with pytest.raises(BudgetExceeded):
        enumerate_prime_field(SearchConfig(Field.prime(11), 3, limit=1))
    monkeypatch.setenv("LEONARD_BUDGET", "100")
    with pytest.raises(BudgetExceeded):
        enumerate_prime_field(SearchConfig(GF7, 1, limit=1))


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("LEONARD_BUDGET", "10")
    with pytest.raises(BudgetExceeded):
        enumerate_prime_field(SearchConfig(GF7, 0, limit=1))
    monkeypatch.setenv("LEONARD_BUDGET", "1000000")
    assert enumerate_prime_field(SearchConfig(GF7, 0, limit=1))


def test_random_rational_deterministic():
    cfg = SearchConfig(Q, 1, limit=4, seed=11)
    a = random_rational(cfg)
    b = random_rational(cfg)
    assert a == b
    assert len(a) == 4
    other = random_rational(SearchConfig(Q, 1, limit=4, seed=12))
    assert other != a


def test_random_rational_self_dual_abundant():
    found = random_rational(SearchConfig(Q, 1, self_dual_only=True, limit=2, seed=5))
    assert len(found) == 2
    for pa in found:
        assert is_self_dual(pa)
        certify(pa)


def test_random_rational_draw_box():
    for pa in random_rational(SearchConfig(Q, 1, limit=5, seed=3)):
        for x in pa.theta + pa.theta_star + pa.varphi:
            assert -9 <= x <= 9
            assert 1 <= x.denominator <= 4


def test_random_rational_exhausted_carries_partial():
    with pytest.raises(ExhaustedTrials) as info:
        random_rational(SearchConfig(Q, 3, limit=1, seed=1, max_trials=50))
    assert info.value.found == []
    with pytest.raises(ExhaustedTrials) as info:
        random_rational(SearchConfig(Q, 1, limit=10**6, seed=1, max_trials=40))
    assert 0 < len(info.value.found) < 10**6
    for pa in info.value.found:
        certify(pa)


def test_random_rational_rejects_prime_field():
    with pytest.raises(ValueError):
        random_rational(SearchConfig(GF7, 1))


def test_run_search_dispatch():
    assert run_search(SearchConfig(GF7, 0, limit=2))[0].field == GF7
    assert run_search(SearchConfig(Q, 1, limit=1, seed=11))[0].field == Q


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(Q, -1)
    with pytest.raises(ValueError):
        SearchConfig(Q, 1, limit=0)
    for trials in (0, -5):
        with pytest.raises(ValueError):
            SearchConfig(Q, 1, max_trials=trials)


def test_rational_diameter_bounded_by_draw_box():
    # d + 1 distinct draws from a box of 51 values: d = 51 used to loop forever
    rng = random.Random(0)
    assert len({_draw_scalar(rng) for _ in range(5000)}) == _BOX_SIZE == 51
    SearchConfig(Q, 50)
    SearchConfig(GF7, 60)  # prime-field enumeration is bounded by its budget instead
    with pytest.raises(ValueError):
        SearchConfig(Q, 51)


def test_char2_recorded_behavior():
    # The arithmetic itself supports GF(2); corpus generation excludes it.
    # Recorded observation: d = 0 certifies, and no d = 1 parameter array
    # over GF(2) is realizable (phi_1 = varphi_1 + (th0-th1)(th*0-th*1)
    # forces 1 + 1 = 0).
    G2 = Field.prime(2)
    pa0 = ParameterArray(G2, 0, (G2.one(),), (G2.zero(),), (), ())
    certify(pa0)
    certified = 0
    one = G2.one()
    for th in permutations(range(2), 2):
        for ths in permutations(range(2), 2):
            theta = tuple(PrimeFieldElement(2, r) for r in th)
            theta_star = tuple(PrimeFieldElement(2, r) for r in ths)
            for pa in (
                ParameterArray(G2, 1, theta, theta_star, (one,), (one,)),
            ):
                try:
                    certify(pa)
                    certified += 1
                except NotALeonardPair:
                    pass
    assert certified == 0
