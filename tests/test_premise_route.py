"""The Gram block and the idempotent sums from their premises, against the dense checks they replace.

`verify_axioms` and `standard_identity_suite` decide `idempotents_{E,Estar}_sum` and `_spectral` on the
factors E_i = w_i u_i^T once the family is orthogonal (U W = I, with d+1 idempotents and eigenvalues): the sum
is W U = I, and the spectral check is M w_i = theta_i w_i.  Six of the seven Gram checks are theorems of the
premises of `solve_gram`, and `dagger_fixes_idempotents` is one once E* is orthogonal and spectral too; it is
tested on the factors of E* otherwise.  The reference below is the dense form of the eleven checks: the sums of
d+1 matrices, and the Gram checks as products with G and G^-1; the suite must agree with it check for check,
witness included, on every route.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leonard import systems
from leonard.errors import DegenerateSplit
from leonard.fields import Field
from leonard.linalg import Matrix, outer
from leonard.systems import LeonardSystem, build_system, certify, standard_identity_suite, verify_axioms

from conftest import GRAM_CHECKS, SUITE_CHECKS, leonard_array, leonard_arrays
from test_cyclic_route import hand_built, perturbed_arrays, w_inverse_conjugate
from test_factor_route import _conjugator, krawtchouk
from test_systems import _hand_built_systems

Q, GF7, GFP = Field.rational(), Field.prime(7), Field.prime(2**31 - 1)
FIELDS = (Q, GF7, GFP)
FIELD_IDS = ["Q", "GF(7)", "GF(2^31-1)"]

SUMS = ("idempotents_E_sum", "idempotents_E_spectral", "idempotents_Estar_sum", "idempotents_Estar_spectral")
ELEVEN = SUMS + GRAM_CHECKS


# --- the dense reference ---


def dense_sums(sys) -> dict:
    """name -> (passed, witness) of the four idempotent sums, each formed from d+1 dense matrices."""
    f, n, out = sys.field, sys.d + 1, {}
    for label, mats, M, theta in (("E", sys.E, sys.A, sys.theta), ("Estar", sys.Estar, sys.Astar, sys.theta_star)):
        zero = Matrix.zeros(f, n)
        out[f"idempotents_{label}_sum"] = sum(mats, zero) == Matrix.identity(f, n), None
        out[f"idempotents_{label}_spectral"] = sum((Ei.scale(th) for th, Ei in zip(theta, mats)), zero) == M, None
    return out


def dense_gram(sys) -> dict:
    """name -> (passed, witness) of the seven Gram checks as products with (G, G^-1) from `solve_gram`; a failed
    premise fails all seven with it as witness, an idempotent family that does not factor the idempotent check."""
    f, d = sys.field, sys.d
    try:
        G, Ginv = systems.solve_gram(sys)
    except DegenerateSplit as exc:
        return dict.fromkeys(GRAM_CHECKS, (False, {"error": str(exc)}))
    Gt = G.transpose()
    dagger = lambda X: Ginv * X.transpose() * G
    try:
        # (w u^T)^dagger = G^-1 u w^T G = (G^-1 u)(G^T w)^T
        idempotents = all(outer(Ginv * U.row(i), Gt * W.column(i)) == mats[i]
                          for mats, (W, U) in ((sys.E, sys.eigenbasis()), (sys.Estar, sys.eigenbasis(star=True)))
                          for i in range(d + 1)), None
    except DegenerateSplit as exc:
        idempotents = False, {"error": str(exc)}
    probe = sys.A * sys.Astar + sys.Estar[0].scale(f.from_int(3))
    verdicts = (G == Gt, sys.A.transpose() * G == G * sys.A, sys.Astar.transpose() * G == G * sys.Astar,
                dagger(sys.A) == sys.A, dagger(sys.Astar) == sys.Astar)
    return dict(zip(GRAM_CHECKS, [(passed, None) for passed in verdicts] + [idempotents]
                    + [(dagger(dagger(probe)) == probe, None)]))


def assert_matches_dense(sys):
    """The eleven checks sit at their positions in both reports (`verify_axioms` lists the first eleven of
    SUITE_CHECKS) and equal the dense reference."""
    dense = {**dense_sums(sys), **dense_gram(sys)}
    for report in (verify_axioms(sys), standard_identity_suite(sys)):
        got = [(i, c.name, c.passed, c.witness) for i, c in enumerate(report.checks) if c.name in ELEVEN]
        assert got == [(SUITE_CHECKS.index(name), name, *dense[name]) for name in ELEVEN if name in report]
    return report


# --- inputs ---


def estar_off_spectrum(field, d):
    """E* orthogonal, but theta*_0 and theta*_1 exchanged, so A* != sum theta*_i E*_i: the Gram premises hold,
    and `dagger_fixes_idempotents` is tested on the factors of E*."""
    s = build_system(krawtchouk(field, d))
    ths = (s.theta_star[1], s.theta_star[0], *s.theta_star[2:])
    return LeonardSystem(s.A, s.Astar, s.E, s.Estar, s.theta, ths, s.pa)


def estar_conjugated(field, d):
    """E*_i replaced by K E*_i K^-1, K = I + e_0 e_1^T: still orthogonal, but not spectral for A*, and not fixed by
    the dagger of (A, A*), so `dagger_fixes_idempotents` fails on the factors of E*."""
    s = build_system(krawtchouk(field, d))
    eye = Matrix.identity(field, d + 1)
    K = eye + outer(eye.column(0), eye.column(1))
    Kinv = K.inverse()
    return LeonardSystem(s.A, s.Astar, s.E, [K * X * Kinv for X in s.Estar], s.theta, s.theta_star, s.pa)


def estar_repeated_theta(field, d):
    """A*' = sum theta*'_i E*_i for theta*' = theta* with theta*_1 := theta*_0: E* factors, is orthogonal and
    spectral, but A*' has a plane for an eigenspace, so U A*' W cannot be irreducible tridiagonal."""
    s = build_system(krawtchouk(field, d))
    ths = (s.theta_star[0], s.theta_star[0], *s.theta_star[2:])
    Astar = sum((Ei.scale(th) for th, Ei in zip(ths, s.Estar)), Matrix.zeros(field, d + 1))
    return LeonardSystem(s.A, Astar, s.E, s.Estar, s.theta, ths, s.pa)


# --- premise route == dense reference ---


def assert_array_matches_dense(pa, s=None):
    """The system of a Leonard array (s, when given), a dense conjugate and the conjugate by W^-1 all pass, and
    match the reference."""
    s = build_system(pa) if s is None else s
    for sys in (s, s.conjugated(_conjugator(pa.field, pa.d + 1)), w_inverse_conjugate(s)):
        assert assert_matches_dense(sys).all_pass


def test_corpus_and_conjugates_match_dense(corpus):
    for pa in corpus.arrays:
        assert_array_matches_dense(pa, corpus.system(pa))


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_generated_arrays_match_dense(field, data):
    d = data.draw(st.integers(min_value=0, max_value=8), label="d")
    assert_array_matches_dense(data.draw(leonard_arrays(field, d), label="pa"))


def gf7_arrays(per_d=2, seed=26):
    """per_d seeded Leonard arrays over GF(7) at each d = 0..6 (d+1 distinct theta need d <= 6): `leonard_array`
    on uniform residues, redrawn until it returns one; at d = 6 about one draw in 700 does."""
    rng, out = random.Random(seed), []
    for d in range(7):
        found = []
        while len(found) < per_d:
            x = lambda: GF7.from_int(rng.randrange(7))
            pa = leonard_array(GF7, d, (x(), x(), x()), (x(), x(), x()), x(), x())
            if pa is not None:
                found.append(pytest.param(pa, id=f"d{d}-{len(found)}"))
        out += found
    return out


@pytest.mark.parametrize("pa", gf7_arrays())
def test_gf7_arrays_match_dense(pa):
    assert_array_matches_dense(pa)


@pytest.mark.parametrize("pa", perturbed_arrays())
def test_perturbed_arrays_match_dense(pa):
    assert_matches_dense(build_system(pa))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_hand_built_systems_match_dense(field, d):
    built = {**hand_built(field, d), "E* off spectrum": estar_off_spectrum(field, d),
             "E* conjugated": estar_conjugated(field, d), "E* with a repeated theta*": estar_repeated_theta(field, d)}
    for name, sys in built.items():
        assert not assert_matches_dense(sys).all_pass, name


@pytest.mark.parametrize("case", sorted(_hand_built_systems()))
def test_report_systems_match_dense(case):
    assert_matches_dense(_hand_built_systems()[case])


# --- the route ---


def test_premises_decide_the_eleven_checks(monkeypatch):
    """On a certified system the suite adds no two matrices, forms no product with the G or G^-1 it solves
    for, and solves for them once: `perfbench` counts that solve."""
    s = certify(krawtchouk(Q, 6))
    solved, solve, mul = [], systems.solve_gram, Matrix.__mul__
    monkeypatch.setattr(systems, "solve_gram", lambda sys: solved.append(solve(sys)) or solved[-1])
    monkeypatch.setattr(Matrix, "__add__", lambda self, other: pytest.fail("two matrices were added"))
    monkeypatch.setattr(Matrix, "__mul__", lambda self, other: pytest.fail("a product with G or G^-1") if any(
        X is Y for X in (self, other) for pair in solved for Y in pair) else mul(self, other))
    assert standard_identity_suite(s).all_pass
    assert len(solved) == 1


@pytest.mark.parametrize("build, fixed", [(estar_off_spectrum, True), (estar_conjugated, False)],
                         ids=["off-spectrum", "conjugated"])
def test_estar_off_spectrum_takes_the_factor_route(build, fixed):
    """E* orthogonal but not spectral: the six theorems hold, and the dagger is tested on the factors of E*."""
    report = standard_identity_suite(build(Q, 3))
    assert report["idempotents_Estar_orthogonal"].passed and not report["idempotents_Estar_spectral"].passed
    failing = {name for name in GRAM_CHECKS if not report[name].passed}
    assert failing == (set() if fixed else {"dagger_fixes_idempotents"})


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_a_short_family_is_summed_densely(field):
    """d idempotents for a space of dimension d+1: U W = I, but W U != I, so the sums are formed densely and
    fail, and solve_gram refuses before it would build a singular G."""
    s = build_system(krawtchouk(field, 3))
    short = LeonardSystem(s.A, s.Astar, s.E[:-1], s.Estar, s.theta, s.theta_star, s.pa)
    report = verify_axioms(short)
    assert report["idempotents_E_orthogonal"].passed
    assert [(c.name, c.passed) for c in report.checks if c.name in SUMS[:2]] == [
        (name, passed) for name, (passed, _) in dense_sums(short).items() if name in SUMS[:2]] == [
        ("idempotents_E_sum", False), ("idempotents_E_spectral", False)]
    with pytest.raises(DegenerateSplit, match=r"^4 eigenvalues and 3 idempotents, not d \+ 1 = 4$"):
        systems.solve_gram(short)


def test_repeated_theta_star_fails_the_tridiagonal_premise():
    """With theta* repeated, E* is orthogonal and spectral, and the B premise of solve_gram fails all seven."""
    report = standard_identity_suite(estar_repeated_theta(Q, 3))
    assert report["idempotents_Estar_orthogonal"].passed and report["idempotents_Estar_spectral"].passed
    assert {report[name].witness["error"] for name in GRAM_CHECKS} == {"U A* W is not irreducible tridiagonal"}
