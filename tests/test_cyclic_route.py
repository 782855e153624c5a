"""The eight F[M] checks on one cyclic vector against the dense matrices they replace.

`standard_identity_suite` decides `edge_idempotent_*`, `char_product_*` and
`subalgebra_three_bases_*` on v = e_0 for A and v = e_d for A* once the
idempotents are orthogonal and spectral and the Krylov vectors M^i v have
rank d+1; otherwise on the dense matrices.  The reference below is the dense
form of the eight checks, with every tau/eta family and power of M built as
its own root product; the suite must agree with it check for check, witness
included, on both routes.
"""

from dataclasses import replace
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leonard import linalg, systems
from leonard.fields import Field
from leonard.linalg import Matrix, eval_root_product, flat_rank, outer
from leonard.systems import LeonardSystem, build_system, standard_identity_suite

from conftest import dense_family, leonard_arrays
from test_factor_route import _conjugator, krawtchouk

Q, GFP = Field.rational(), Field.prime(2**31 - 1)
FIELDS = (Q, Field.prime(7), GFP)

EIGHT = ("edge_idempotent_E0", "edge_idempotent_Ed", "edge_idempotent_E0star", "edge_idempotent_Edstar",
         "char_product_A", "char_product_Astar", "subalgebra_three_bases_A", "subalgebra_three_bases_Astar")


# --- the dense reference ---


def dense_checks(sys) -> dict:
    """name -> (passed, witness) of the eight checks on dense (d+1) x (d+1) matrices; the
    edge values are read off the stored array, the families off sys.theta, as the suite does."""
    f, d, pa, one = sys.field, sys.d, sys.parameter_array, sys.field.one()
    gap = lambda t, r: prod((t[r] - x for h, x in enumerate(t) if h != r), start=one)
    out = {}
    for s, M, theta, mats, t in (("", sys.A, sys.theta, sys.E, pa.theta),
                                 ("star", sys.Astar, sys.theta_star, sys.Estar, pa.theta_star)):
        taus, etas = dense_family(sys, "tau", bool(s)), dense_family(sys, "eta", bool(s))
        powers = [eval_root_product([f.zero()] * i, M) for i in range(d + 1)]
        out[f"edge_idempotent_E0{s}"] = etas[d].scale(f.invert(gap(t, 0))) == mats[0], None
        out[f"edge_idempotent_Ed{s}"] = taus[d].scale(f.invert(gap(t, d))) == mats[d], None
        out[f"char_product_A{s}"] = eval_root_product(theta, M).is_zero(), None
        fams = (mats, taus, etas, powers)
        ranks, union = [flat_rank(fam) for fam in fams], flat_rank([X for fam in fams for X in fam])
        ok = all(r == d + 1 for r in ranks) and union == d + 1
        out[f"subalgebra_three_bases_A{s}"] = ok, None if ok else {"ranks": ranks, "union": union}
    return out


def assert_matches_dense(sys):
    """The eight checks sit in their order after the round trip and equal the dense reference;
    where the parameter array cannot be read back, the report ends at the round trip."""
    report = standard_identity_suite(sys)
    names = [c.name for c in report.checks]
    start = names.index("round_trip_parameter_array") + 1
    if start == len(names):
        return report
    assert tuple(names[start:start + 8]) == EIGHT
    dense = dense_checks(sys)
    assert [(c.name, c.passed, c.witness) for c in report.checks[start:start + 8]] == [(n, *dense[n]) for n in EIGHT]
    return report


@pytest.fixture
def flat_rank_calls(monkeypatch):
    """A list that grows by one on each call of `flat_rank` from `systems`: the dense route."""
    calls = []

    def counted(mats):
        calls.append(len(mats))
        return linalg.flat_rank(mats)

    monkeypatch.setattr(systems, "flat_rank", counted)
    return calls


# --- inputs ---


def w_inverse_conjugate(s):
    """W^-1 X W: A becomes diagonal, so e_0 is an eigenvector of it and not cyclic."""
    return s.conjugated(s.eigenbasis()[0].inverse())


def perturbed_arrays():
    """Krawtchouk arrays at d <= 4 with one entry of theta, theta*, varphi or phi raised by 1
    (PA1 kept): not Leonard, except where phi alone moved, as phi does not enter A or A*."""
    out = []
    for field in FIELDS:
        for d in range(1, 5):
            pa = krawtchouk(field, d)
            for name in ("theta", "theta_star", "varphi", "phi"):
                for k in range(len(getattr(pa, name))):
                    seq = list(getattr(pa, name))
                    seq[k] = seq[k] + field.one()
                    try:
                        bumped = replace(pa, **{name: tuple(seq)})
                    except ValueError:
                        continue
                    out.append(pytest.param(bumped, id=f"{field.p or 'Q'}-d{d}-{name}{k}"))
    return out


def hand_built(field, d):
    """Systems whose idempotents or stored array disagree with A, A*."""
    s = build_system(krawtchouk(field, d))
    two, zero, e_1 = field.from_int(2), Matrix.zeros(field, d + 1), Matrix.identity(field, d + 1).row(1)
    other_theta = replace(s.pa, theta=(s.pa.theta[0] + field.from_int(5 * d + 1),) + s.pa.theta[1:])
    return {
        "Estar_d doubled": LeonardSystem(s.A, s.Astar, s.E, s.Estar[:-1] + (s.Estar[-1].scale(two),),
                                         s.theta, s.theta_star, s.pa),
        "E_1 zero": LeonardSystem(s.A, s.Astar, s.E[:1] + (zero,) + s.E[2:], s.Estar, s.theta, s.theta_star, s.pa),
        "E_0 rank two": LeonardSystem(s.A, s.Astar, (s.E[0] + s.E[1],) + s.E[1:], s.Estar,
                                      s.theta, s.theta_star, s.pa),
        # rank one and equal to E_0 on e_0, but outside F[A]: only U W = I tells it apart there
        "E_0 sheared": LeonardSystem(s.A, s.Astar, (s.E[0] + outer(s.eigencolumn(0), e_1),) + s.E[1:], s.Estar,
                                     s.theta, s.theta_star, s.pa),
        "stored theta_0 moved": LeonardSystem(s.A, s.Astar, s.E, s.Estar, s.theta, s.theta_star, other_theta),
    }


# --- cyclic route == dense reference ---


def test_corpus_and_conjugates_match_dense(corpus):
    for pa in corpus.arrays:
        s = corpus.system(pa)
        for sys in (s, s.conjugated(_conjugator(pa.field, s.d + 1)), w_inverse_conjugate(s)):
            assert assert_matches_dense(sys).all_pass


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_generated_arrays_match_dense(field, data):
    d = data.draw(st.integers(min_value=0, max_value=8), label="d")
    s = build_system(data.draw(leonard_arrays(field, d), label="pa"))
    for sys in (s, s.conjugated(_conjugator(field, d + 1)), w_inverse_conjugate(s)):
        assert assert_matches_dense(sys).all_pass


@pytest.mark.parametrize("pa", perturbed_arrays())
def test_perturbed_arrays_match_dense(pa):
    assert_matches_dense(build_system(pa))


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF(7)", "GF(2^31-1)"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_hand_built_systems_match_dense(field, d):
    for name, sys in hand_built(field, d).items():
        report = assert_matches_dense(sys)
        assert not report.all_pass, name


def test_hand_built_failures_reach_the_eight_checks():
    """Each failing verdict among the eight, with the route that decides it."""
    failing = {name: {c.name for c in standard_identity_suite(sys).checks if c.name in EIGHT and not c.passed}
               for name, sys in hand_built(Q, 2).items()}
    assert failing == {
        "Estar_d doubled": {"edge_idempotent_Edstar"},                 # dense: E*_d fails U W = I
        "E_1 zero": {"subalgebra_three_bases_A"},                      # dense: E_1 does not factor
        "E_0 rank two": {"edge_idempotent_E0"},                        # dense; E_0 + E_1, E_1, E_2 span F[A]
        "E_0 sheared": {"edge_idempotent_E0", "subalgebra_three_bases_A"},  # dense
        "stored theta_0 moved": {"edge_idempotent_E0", "edge_idempotent_Ed"},  # cyclic: wrong gaps
    }
    witness = lambda name: standard_identity_suite(hand_built(Q, 2)[name])["subalgebra_three_bases_A"].witness
    assert witness("E_1 zero") == {"ranks": [2, 3, 3, 3], "union": 3}
    assert witness("E_0 sheared") == {"ranks": [3, 3, 3, 3], "union": 4}


# --- the route ---


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
def test_cli_inputs_take_the_cyclic_route(field, flat_rank_calls, monkeypatch):
    """The `verify` path builds no dense tau/eta family and no dense power, and ranks no flattened family."""
    dense, kernel = [], systems.root_product_family

    def recorded(M, roots, start=None):
        if not isinstance(start, linalg.Vector):
            dense.append(len(roots))
        return kernel(M, roots, start)

    monkeypatch.setattr(systems, "root_product_family", recorded)
    s = build_system(krawtchouk(field, 8))
    assert standard_identity_suite(s).all_pass
    assert flat_rank_calls == [] and dense == []
    assert not [key for key in s._memo if key[:1] == ("root_family",) and key[3] is None]


def test_w_inverse_conjugate_takes_the_dense_route(flat_rank_calls):
    s = w_inverse_conjugate(build_system(krawtchouk(Q, 8)))
    assert standard_identity_suite(s).all_pass
    assert flat_rank_calls == [9, 9, 9, 9, 36]  # A's four families and their union; A* is cyclic at e_d
    assert ("root_family", "tau", False, None, False) in s._memo
    assert ("root_family", "tau", True, None, False) not in s._memo


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
    "char_product_A": _wrong_last_root(False),
    "char_product_Astar": _wrong_last_root(True),
    "subalgebra_three_bases_A": _repeated_member(False),
    "subalgebra_three_bases_Astar": _repeated_member(True),
}


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
@pytest.mark.parametrize("name", EIGHT)
def test_each_check_fails_on_the_cyclic_route(field, name, flat_rank_calls, monkeypatch):
    d = 4
    s = build_system(krawtchouk(field, d))
    MUTATIONS[name](monkeypatch)
    report = standard_identity_suite(s)
    assert flat_rank_calls == []
    assert not report[name].passed
    if name.startswith("subalgebra"):
        assert report[name].witness == {"ranks": [d + 1, d, d + 1, d + 1], "union": d + 1}
