"""The memoised change of basis W_a^-1 X W_b against Gauss-Jordan products.

`systems.change_of_basis(sys, a, X, b)` is the one constructor of W_a^-1 X W_b for the
eigenbases W_a, W_b of E (a, b False) or E* (True) and X one of I, A and A*.  It reads W^-1
as U once U W = I is checked (`systems._orthogonality_witness`, memoised per family), else
runs Gauss-Jordan on W, and W_a^-1 W_a is I.  The reference below inverts W_a by Gauss-Jordan
every time and multiplies out; the two must agree matrix for matrix and raise SingularMatrix
on the same systems.  The witness of U W != I is compared with the first entry, row-major,
where u_i^T w_j differs from delta_ij.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leonard import systems
from leonard.errors import SingularMatrix
from leonard.fields import Field
from leonard.linalg import Matrix
from leonard.systems import build_system

from conftest import conjugator, krawtchouk, leonard_arrays
from reference import hand_built, w_inverse_conjugate

Q, GFP = Field.rational(), Field.prime(2**31 - 1)
CHANGES = [(a, X, b) for a in (False, True) for X in (None, "A", "Astar") for b in (False, True)]


def reference(sys, a, X, b) -> Matrix:
    """W_a^-1 X W_b with W_a inverted by Gauss-Jordan (SingularMatrix when it is singular)."""
    M = Matrix.identity(sys.field, sys.d + 1) if X is None else getattr(sys, X)
    return sys.eigenbasis(a)[0].inverse() * M * sys.eigenbasis(b)[0]


def reference_witness(sys, star):
    """The first (i, j), row-major, with u_i^T w_j != delta_ij."""
    W, U = sys.eigenbasis(star)
    f, n = sys.field, sys.d + 1
    return next(({"i": i, "j": j} for i in range(n) for j in range(n)
                 if U.row(i).dot(W.column(j)) != (f.one() if i == j else f.zero())), None)


def assert_memo_matches_reference(sys) -> set:
    """The memo against the reference on every change of basis; returns the singular families."""
    singular = set()
    for a, X, b in CHANGES:
        try:
            want = reference(sys, a, X, b)
        except SingularMatrix:
            singular.add(a)
            with pytest.raises(SingularMatrix):
                systems.change_of_basis(sys, a, X, b)
        else:
            assert systems.change_of_basis(sys, a, X, b) == want, (a, X, b)
    for star in (False, True):
        assert systems._orthogonality_witness(sys, star) == reference_witness(sys, star), star
    return singular


@pytest.mark.parametrize("field", [Q, GFP], ids=["Q", "GF(2^31-1)"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_memo_matches_gauss_jordan(field, data):
    """On split systems, their conjugates and their W^-1 conjugates every W_a is invertible."""
    d = data.draw(st.integers(min_value=0, max_value=8), label="d")
    s = build_system(data.draw(leonard_arrays(field, d), label="pa"))
    for sys in (s, s.conjugated(conjugator(field, d + 1)), w_inverse_conjugate(s)):
        assert assert_memo_matches_reference(sys) == set()
        assert systems._orthogonality_witness(sys) is None


@pytest.mark.parametrize("field", [Q, Field.prime(7), GFP], ids=["Q", "GF(7)", "GF(2^31-1)"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_memo_matches_gauss_jordan_where_UW_is_not_I(field, d):
    """E_0 twice (W singular), and the sheared E_0 and doubled E*_d (W, resp. W*, invertible with an inverse
    other than U) of `reference.hand_built`."""
    built = hand_built(field, d)
    cases = ((built["E_0 twice"], False, {False}), (built["E_0 sheared"], False, set()),
             (built["Estar_d doubled"], True, set()))
    for sys, star, singular in cases:
        assert systems._orthogonality_witness(sys, star) is not None
        assert assert_memo_matches_reference(sys) == singular
        W, U = sys.eigenbasis(star)
        if not singular:
            assert systems.change_of_basis(sys, star, None, star) == Matrix.identity(field, d + 1) != U * W


def test_each_change_of_basis_is_formed_once(monkeypatch):
    """A second read of every change of basis and witness forms no product."""
    s = build_system(krawtchouk(Q, 4))
    first = {key: systems.change_of_basis(s, *key) for key in CHANGES}
    witnesses = [systems._orthogonality_witness(s, star) for star in (False, True)]
    monkeypatch.setattr(Matrix, "__mul__", lambda self, other: pytest.fail("formed a product"))
    assert all(systems.change_of_basis(s, *key) is value for key, value in first.items())
    assert [systems._orthogonality_witness(s, star) for star in (False, True)] == witnesses
