"""The rank-one checks on their factors against the dense products they replace.

`verify_axioms` and `standard_identity_suite` test E_i E_j = delta_ij E_i,
the split pairing, the split resolution, the nu sandwiches and the dagger on
the factors E_i = w_i u_i^T.  The reference below is the dense form of each
of those checks, one (d+1)^2 loop of n x n products per identity; the two
must agree check for check, witness included.
"""

from dataclasses import replace
from functools import cache
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leonard.errors import DegenerateSplit, NonUniqueForm, SingularMatrix
from leonard.fields import Field
from leonard.linalg import Matrix, is_irreducible_tridiagonal
from leonard.systems import (
    LeonardSystem,
    ParameterArray,
    _gram_by_nullspace,
    build_system,
    nu_scalars,
    solve_gram,
    standard_identity_suite,
    trace_products_closed_form,
    verify_axioms,
)

from conftest import leonard_arrays, split_subspace

Q = Field.rational()
FIELDS = (Q, Field.prime(7), Field.prime(2**31 - 1))


# --- the dense reference ---


def _first_nonzero_column(M):
    for col in M.columns():
        if not col.is_zero():
            return col
    raise DegenerateSplit("idempotent is zero")


def _tridiagonal(sys, star):
    target = sys.A if star else sys.Astar
    try:
        W = Matrix.from_columns(sys.field, [_first_nonzero_column(E) for E in (sys.Estar if star else sys.E)])
        return is_irreducible_tridiagonal(W.inverse() * target * W), None
    except (SingularMatrix, DegenerateSplit) as exc:
        return False, {"error": str(exc)}


def _orthogonal(mats):
    n = mats[0].nrows
    for i in range(n):
        for j in range(n):
            if mats[i] * mats[j] != (mats[i] if i == j else Matrix.zeros(mats[0].field, n)):
                return False, {"i": i, "j": j}
    return True, None


def _rank_one(mats):
    ranks = [M.rank() for M in mats]
    ok = all(r == 1 for r in ranks)
    return ok, None if ok else {"ranks": ranks}


def _trace(X, Y):
    return (X * Y).trace()


def _split_projectors(sys):
    """F_i = nu tau_i(A) E*_0 E_0 tau*_i(A*) / (varphi_1 ... varphi_i), densely."""
    pa = sys.parameter_array
    nu, middle, denom, out = nu_scalars(pa)[0], sys.Estar[0] * sys.E[0], sys.field.one(), []
    for i, (left, right) in enumerate(zip(sys.root_family("tau"), sys.root_family("tau", True))):
        if i > 0:
            denom = denom * pa.varphi[i - 1]
        out.append((left * middle * right).scale(nu / denom))
    return out


def _split_projectors_by_intersection(sys):
    """C e_i e_i^T C^-1 as three dense n x n products."""
    f, n = sys.field, sys.d + 1
    spans = [split_subspace(sys, i) for i in range(n)]
    if any(S.ncols != 1 for S in spans):
        raise DegenerateSplit("split component is not one-dimensional")
    C = Matrix.from_columns(f, [S.column(0) for S in spans])
    Cinv = C.inverse()
    unit = lambda i: Matrix(f, ((f.one() if r == c == i else f.zero() for c in range(n)) for r in range(n)))
    return [C * unit(i) * Cinv for i in range(n)]


def _split_checks(sys):
    f, n = sys.field, sys.d + 1
    try:
        F = _split_projectors(sys)
        match = F == _split_projectors_by_intersection(sys)
        ok = all(F[i] * F[j] == (F[i] if i == j else Matrix.zeros(f, n)) for i in range(n) for j in range(n))
        total = Matrix.zeros(f, n)
        for Fi in F:
            total = total + Fi
        return (match, None), (ok and total == Matrix.identity(f, n), None)
    except (DegenerateSplit, SingularMatrix) as exc:
        return ((False, {"error": str(exc)}),) * 2


def _split_pairing(sys):
    pa, f, n = sys.parameter_array, sys.field, sys.d + 1
    Es0, E0 = sys.Estar[0], sys.E[0]
    for i in range(n):
        for j in range(n):
            lhs = Es0 * sys.root_family("tau")[i] * sys.root_family("tau", True)[j] * E0
            rhs = (Es0 * E0).scale(prod(pa.varphi[:i], start=f.one())) if i == j else Matrix.zeros(f, n)
            if lhs != rhs:
                return False, {"i": i, "j": j}
    return True, None


def _trace_products(sys):
    pa, d = sys.parameter_array, sys.d
    for r in range(d + 1):
        direct = (
            _trace(sys.E[r], sys.Estar[0]), _trace(sys.E[r], sys.Estar[d]),
            _trace(sys.Estar[r], sys.E[0]), _trace(sys.Estar[r], sys.E[d]),
        )
        if direct != trace_products_closed_form(pa, r) or not all(direct):
            return False, {"r": r}
    return True, None


def _nu_traces(sys):
    d, one = sys.d, sys.field.one()
    values = nu_scalars(sys.parameter_array)
    traces = [_trace(sys.E[a], sys.Estar[b]) for a, b in ((0, 0), (0, d), (d, 0), (d, d))]
    ok = all(t * v == one for t, v in zip(traces, values))
    names = ("nu", "nu_down", "nu_ddown", "nu_down_ddown")
    return ok, None if ok else {"scalars": dict(zip(names, map(sys.field.encode_scalar, values)))}


def _dagger_fixes_idempotents(sys):
    try:
        return all(sys.dagger(E) == E for E in sys.E + sys.Estar), None
    except (NonUniqueForm, SingularMatrix) as exc:
        return False, {"error": str(exc)}


def dense_checks(sys) -> dict:
    """name -> thunk of (passed, witness) for every check that now runs on the factors."""
    nu = lambda: nu_scalars(sys.parameter_array)[0]
    E0, Es0 = sys.E[0], sys.Estar[0]
    split = cache(lambda: _split_checks(sys))
    return {
        "tridiagonal_Astar_in_A_eigenbasis": lambda: _tridiagonal(sys, False),
        "tridiagonal_A_in_Astar_eigenbasis": lambda: _tridiagonal(sys, True),
        "idempotents_E_orthogonal": lambda: _orthogonal(sys.E),
        "idempotents_Estar_orthogonal": lambda: _orthogonal(sys.Estar),
        "idempotents_E_rank_one": lambda: _rank_one(sys.E),
        "idempotents_Estar_rank_one": lambda: _rank_one(sys.Estar),
        "nu_sandwich_E0": lambda: ((E0 * Es0 * E0).scale(nu()) == E0, None),
        "nu_sandwich_E0star": lambda: ((Es0 * E0 * Es0).scale(nu()) == Es0, None),
        "trace_products_closed_form": lambda: _trace_products(sys),
        "nu_closed_forms_match_traces": lambda: _nu_traces(sys),
        "split_projectors_match_intersection": lambda: split()[0],
        "split_projectors_resolution": lambda: split()[1],
        "split_pairing_delta": lambda: _split_pairing(sys),
        "dagger_fixes_idempotents": lambda: _dagger_fixes_idempotents(sys),
    }


def assert_matches_dense(report, dense):
    """Each check equals its dense form (name, verdict, witness); the others
    run the same code on both routes and are taken as they are."""
    got = [(c.name, c.passed, c.witness) for c in report.checks]
    want = [(c.name, *dense[c.name]()) if c.name in dense else (c.name, c.passed, c.witness) for c in report.checks]
    assert got == want


def assert_both_reports_match(sys):
    dense = dense_checks(sys)
    assert_matches_dense(verify_axioms(sys), dense)
    report = standard_identity_suite(sys)
    assert_matches_dense(report, dense)
    return report


# --- inputs ---


def _conjugator(field, n):
    """Upper unitriangular ones times its transpose: dense, determinant 1."""
    upper = Matrix(field, ((field.one() if c >= r else field.zero() for c in range(n)) for r in range(n)))
    return upper * upper.transpose()


def krawtchouk(field, d):
    """theta_i = theta*_i = d - 2i, varphi_i = i(i-d-1), phi_i = -3 i(i-d-1)."""
    n = lambda x: field.from_int(x)
    theta = [n(d - 2 * i) for i in range(d + 1)]
    return ParameterArray(field, d, theta, theta, [n(i * (i - d - 1)) for i in range(1, d + 1)],
                          [n(-3 * i * (i - d - 1)) for i in range(1, d + 1)])


def perturbed_arrays():
    """Krawtchouk arrays at d <= 5 with varphi_bump raised by 1: not Leonard."""
    out = []
    for field in FIELDS:
        for d in range(1, 6):
            for bump in range(1, d + 1):
                pa = krawtchouk(field, d)
                varphi = list(pa.varphi)
                varphi[bump - 1] = varphi[bump - 1] + field.one()
                if all(varphi):
                    out.append(pytest.param(replace(pa, varphi=tuple(varphi)), id=f"{field.p or 'Q'}-d{d}-{bump}"))
    return out


# --- factor route == dense reference ---


def test_corpus_reports_match_dense(corpus):
    for pa in corpus.arrays:
        report = assert_both_reports_match(corpus.system(pa))
        assert report.all_pass


def test_conjugated_corpus_reports_match_dense(corpus):
    for pa in corpus.arrays:
        s = corpus.system(pa)
        conj = s.conjugated(_conjugator(pa.field, s.d + 1))
        report = assert_both_reports_match(conj)
        assert report.all_pass


@pytest.mark.parametrize("field", [Q, Field.prime(2**31 - 1)], ids=["Q", "GF(2^31-1)"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_generated_reports_match_dense(field, data):
    """Beyond the corpus (d <= 6): the factor checks, and the Gram form in the
    eigenbasis, against their dense references on generated arrays."""
    d = data.draw(st.integers(min_value=0, max_value=8), label="d")
    s = build_system(data.draw(leonard_arrays(field, d), label="pa"))
    for sys in (s, s.conjugated(_conjugator(field, d + 1))):
        assert assert_both_reports_match(sys).all_pass
        G, _ = _gram_by_nullspace(sys.A, sys.Astar)
        assert solve_gram(sys) == (G, G.inverse())


@pytest.mark.parametrize("pa", perturbed_arrays())
def test_non_leonard_axioms_match_dense(pa):
    s = build_system(pa)
    assert_matches_dense(verify_axioms(s), dense_checks(s))


@pytest.mark.parametrize("pa", perturbed_arrays())
def test_non_leonard_reports_match_dense(pa):
    report = assert_both_reports_match(build_system(pa))
    assert not report.all_pass


# --- families that do not factor ---


def test_zero_idempotent_reports_true_ranks():
    s = build_system(krawtchouk(Q, 1))
    broken = LeonardSystem(s.A, s.Astar, (s.E[0], Matrix.zeros(Q, 2)), s.Estar, s.theta, s.theta_star, s.pa)
    assert broken.eigenbasis() is None and broken.eigenbasis(star=True) is not None
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
    s = build_system(krawtchouk(Q, 2))
    broken = LeonardSystem(s.A, s.Astar, (s.E[0] + s.E[1], s.E[1], s.E[2]), s.Estar, s.theta, s.theta_star, s.pa)
    assert broken.eigenbasis() is None
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
    for pa in corpus.arrays:
        s = corpus.system(pa)
        for star, mats in ((False, s.E), (True, s.Estar)):
            W, U = s.eigenbasis(star)
            assert s.eigenbasis(star) is s.eigenbasis(star)
            for i, E in enumerate(mats):
                assert W.column(i) == _first_nonzero_column(E) == s.eigencolumn(i, star)
                assert E == Matrix.from_columns(pa.field, [W.column(i)]) * Matrix(pa.field, [U[i]])
            assert U * W == Matrix.identity(pa.field, s.d + 1)


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
