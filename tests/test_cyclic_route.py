"""The eight F[M] checks from their premises and one cyclic vector, against the dense matrices they replace.

`standard_identity_suite` decides the eight checks under premises that run
first: E (resp. E*) of d+1 idempotents, orthogonal and spectral, and d+1
distinct theta (resp. theta*).  `char_product_*` and `subalgebra_three_bases_*`
are theorems of those premises and pass once they hold; `edge_idempotent_*`
read one cyclic vector v: e_0 for A and e_d for A* when column 0 (resp. d) of
U has no zero entry, as in every split form, else the sum of the eigencolumns
w_i, which the premises make cyclic.  A failed premise fails the four checks of
its side, each with that premise as its witness.  The reference below is the
dense form of the eight checks, with every tau/eta family and power of M built
as its own root product and the ranks of the four families taken; where the
premises hold, the suite must agree with it check for check, witness included.
"""

from dataclasses import replace
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leonard import linalg, systems
from leonard.fields import Field
from leonard.linalg import Matrix, Vector, eval_root_product, outer
from leonard.systems import LeonardSystem, build_system, standard_identity_suite

from conftest import conjugator, dense_family, flat_rank, krawtchouk, leonard_arrays, premise_error
from test_systems import EXTRACTION_ERROR, _swapped_idempotents

Q, GFP = Field.rational(), Field.prime(2**31 - 1)
FIELDS = (Q, Field.prime(7), GFP)

EIGHT = ("edge_idempotent_E0", "edge_idempotent_Ed", "edge_idempotent_E0star", "edge_idempotent_Edstar",
         "char_product_A", "char_product_Astar", "subalgebra_three_bases_A", "subalgebra_three_bases_Astar")
SIDE = {False: [name for name in EIGHT if not name.endswith("star")],
        True: [name for name in EIGHT if name.endswith("star")]}


# --- the dense reference ---


def dense_checks(sys, stars=(False, True)) -> dict:
    """name -> (passed, witness) of the eight checks (of those on A, resp. A*, for stars) on dense (d+1) x (d+1)
    matrices; the edge values are read off the stored array, the families off sys.theta, as the suite does."""
    f, d, pa, one = sys.field, sys.d, sys.parameter_array, sys.field.one()
    gap = lambda t, r: prod((t[r] - x for h, x in enumerate(t) if h != r), start=one)
    out = {}
    for s, M, theta, mats, t in (("star", sys.Astar, sys.theta_star, sys.Estar, pa.theta_star) if star else
                                 ("", sys.A, sys.theta, sys.E, pa.theta) for star in stars):
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
    """The eight checks sit in their order after the round trip; on a side whose premises hold they equal the
    dense reference, on the other each fails with the failed premise as witness.  Where the parameter array
    cannot be read back, the report ends at the round trip."""
    report = standard_identity_suite(sys)
    names = [c.name for c in report.checks]
    start = names.index("round_trip_parameter_array") + 1
    if start == len(names):
        return report
    assert tuple(names[start:start + 8]) == EIGHT
    errors = {star: premise_error(sys, star) for star in (False, True)}
    dense = dense_checks(sys, [star for star, error in errors.items() if not error])
    want = {name: (False, {"error": errors[star]}) if errors[star] else dense[name]
            for star, side in SIDE.items() for name in side}
    assert [(c.name, c.passed, c.witness) for c in report.checks[start:start + 8]] == [(n, *want[n]) for n in EIGHT]
    return report


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


# --- inputs ---


def w_inverse_conjugate(s, star=False):
    """W^-1 X W (resp. W*^-1 X W*): A (resp. A*) becomes diagonal, so e_0 (resp. e_d) is an eigenvector of it
    and not cyclic."""
    return s.conjugated(s.eigenbasis(star)[0].inverse())


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


def estar_off_spectrum(field, d):
    """E* orthogonal, but theta*_0 and theta*_1 exchanged, so A* != sum theta*_i E*_i: E* is not spectral."""
    s = build_system(krawtchouk(field, d))
    ths = (s.theta_star[1], s.theta_star[0], *s.theta_star[2:])
    return LeonardSystem(s.A, s.Astar, s.E, s.Estar, s.theta, ths, s.pa)


def estar_repeated_theta(field, d):
    """A*' = sum theta*'_i E*_i for theta*' = theta* with theta*_1 := theta*_0: E* factors, is orthogonal and
    spectral, but A*' has a plane for an eigenspace, so U A*' W cannot be irreducible tridiagonal."""
    s = build_system(krawtchouk(field, d))
    ths = (s.theta_star[0], s.theta_star[0], *s.theta_star[2:])
    Astar = sum((Ei.scale(th) for th, Ei in zip(ths, s.Estar)), Matrix.zeros(field, d + 1))
    return LeonardSystem(s.A, Astar, s.E, s.Estar, s.theta, ths, s.pa)


def premise_failures(field, d):
    """One hand-built system per premise, each failing it on one side: the count, then orthogonal (`hand_built`
    fails it on either side), then spectral, then distinct eigenvalues."""
    s = build_system(krawtchouk(field, d))
    return {
        "E short": LeonardSystem(s.A, s.Astar, s.E[:-1], s.Estar, s.theta, s.theta_star, s.pa),
        "E* short": LeonardSystem(s.A, s.Astar, s.E, s.Estar[:-1], s.theta, s.theta_star, s.pa),
        "E* off spectrum": estar_off_spectrum(field, d),
        "E* with a repeated theta*": estar_repeated_theta(field, d),
    }


# --- cyclic route == dense reference ---


def test_corpus_and_conjugates_match_dense(corpus):
    for pa in corpus.arrays:
        s = corpus.system(pa)
        for sys in (s, s.conjugated(conjugator(pa.field, s.d + 1)), w_inverse_conjugate(s),
                    w_inverse_conjugate(s, star=True)):
            assert assert_matches_dense(sys).all_pass


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_generated_arrays_match_dense(field, data):
    d = data.draw(st.integers(min_value=0, max_value=8), label="d")
    s = build_system(data.draw(leonard_arrays(field, d), label="pa"))
    for sys in (s, s.conjugated(conjugator(field, d + 1)), w_inverse_conjugate(s), w_inverse_conjugate(s, True)):
        assert assert_matches_dense(sys).all_pass


@pytest.mark.parametrize("pa", perturbed_arrays())
def test_perturbed_arrays_match_dense(pa):
    assert_matches_dense(build_system(pa))


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF(7)", "GF(2^31-1)"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_hand_built_systems_match_dense(field, d):
    for name, sys in {**hand_built(field, d), **premise_failures(field, d)}.items():
        report = assert_matches_dense(sys)
        assert not report.all_pass, name


def test_hand_built_failures_reach_the_eight_checks():
    """Each failing check among the eight, with its witness: a failed premise fails the four checks of its side."""
    premise = lambda msg, star: dict.fromkeys(SIDE[star], {"error": msg})
    failing = {name: {c.name: c.witness for c in standard_identity_suite(sys).checks
                      if c.name in EIGHT and not c.passed}
               for name, sys in {**hand_built(Q, 2), **premise_failures(Q, 2)}.items()}
    assert failing == {
        "Estar_d doubled": premise("idempotents_Estar_orthogonal fails", True),  # E*_d fails U W = I
        "E_1 zero": premise("idempotents_E_orthogonal fails", False),            # E_1 does not factor
        "E_0 rank two": premise("idempotents_E_orthogonal fails", False),
        "E_0 sheared": premise("idempotents_E_orthogonal fails", False),
        "stored theta_0 moved": {"edge_idempotent_E0": None, "edge_idempotent_Ed": None},  # cyclic: wrong gaps
        "E short": premise("2 idempotents E, not d + 1 = 3", False),
        "E* short": premise("2 idempotents E*, not d + 1 = 3", True),
        "E* off spectrum": premise("idempotents_Estar_spectral fails", True),
        "E* with a repeated theta*": premise("theta* is not d + 1 = 3 distinct values", True),
    }


def test_edge_checks_read_the_array_before_the_premises():
    """E replaced by E*, no array stored: E is not spectral and the array cannot be read back, so the edge checks
    fail with the extraction error on both sides, and the other two checks on A with the failed premise."""
    report = standard_identity_suite(_swapped_idempotents(False))
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
