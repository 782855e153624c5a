import random
from fractions import Fraction as F
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leonard.errors import DuplicateEigenvalue, SingularMatrix
from leonard.fields import Field, PrimeFieldElement
from leonard.linalg import (
    Matrix,
    Vector,
    _reduce_ints,
    _to_ints,
    bidiagonal,
    bidiagonal_eigenbasis,
    eval_root_product,
    intersect_column_spaces,
    is_irreducible_tridiagonal,
    lagrange_idempotent,
    outer,
    rank_one_factors,
    root_product_family,
    same_column_space,
    trace_of_product,
    transition_matrix,
    unpivoted_column_reduction,
)

from reference import bidiagonal_idempotents, flat_rank

Q = Field.rational()
G7 = Field.prime(7)
KERNEL_FIELDS = (Q, Field.prime(2), G7, Field.prime(2**31 - 1))


def mat(rows):
    return Matrix.from_ints(Q, rows)


def test_inverse_examples():
    eye3 = Matrix.identity(Q, 3)
    assert eye3.inverse() == eye3
    diag = mat([[2, 0], [0, 3]])
    assert diag.inverse() == Matrix(Q, [[F(1, 2), F(0)], [F(0), F(1, 3)]])
    m = mat([[1, 1], [0, 1]])
    inv = m.inverse()
    # oracle: multiply and compare to the identity
    assert m * inv == Matrix.identity(Q, 2)
    assert inv == mat([[1, -1], [0, 1]])


def test_inverse_singular():
    with pytest.raises(SingularMatrix):
        mat([[1, 2], [2, 4]]).inverse()
    with pytest.raises(SingularMatrix):
        mat([[1, 2, 3]]).inverse()


def test_inverse_over_prime_field():
    m = Matrix.from_ints(G7, [[2, 3], [1, 4]])
    assert m * m.inverse() == Matrix.identity(G7, 2)


def test_eval_root_product():
    m = mat([[3, 1], [0, 2]])
    assert eval_root_product([], m) == Matrix.identity(Q, 2)
    diag = mat([[2, 0], [0, 5]])
    assert eval_root_product([F(2)], diag) == mat([[0, 0], [0, 3]])
    # (x-3)(x-2) annihilates a matrix with spectrum {3, 2}
    assert eval_root_product([F(3), F(2)], m).is_zero()
    # the family holds every prefix product, the last one being eval_root_product
    roots = [F(3), F(-1), F(2)]
    family = root_product_family(m, roots)
    assert len(family) == 4
    for i, P in enumerate(family):
        assert P == eval_root_product(roots[:i], m)
    assert root_product_family(m, []) == [Matrix.identity(Q, 2)]


def _split_pair_oracle(field, theta, theta_star, varphi):
    # the explicit split-form construction: ones below the diagonal of A,
    # varphi above the diagonal of A*
    n = len(theta)
    zero, one = field.zero(), field.one()
    A = [[zero] * n for _ in range(n)]
    As = [[zero] * n for _ in range(n)]
    for i in range(n):
        A[i][i], As[i][i] = theta[i], theta_star[i]
    for i in range(1, n):
        A[i][i - 1] = one
        As[i - 1][i] = varphi[i - 1]
    return Matrix(field, A), Matrix(field, As)


@pytest.mark.parametrize("field", [Q, G7])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_bidiagonal_reproduces_split_pair(field, n):
    rng = random.Random(n)
    draw = lambda k: [field.from_int(rng.randint(1, 6)) for _ in range(k)]
    theta, theta_star, varphi = draw(n), draw(n), draw(n - 1)
    A, As = _split_pair_oracle(field, theta, theta_star, varphi)
    assert bidiagonal(field, theta) == A
    assert bidiagonal(field, theta_star, varphi) == As


def test_lagrange_idempotent_examples():
    diag = mat([[1, 0], [0, 2]])
    assert lagrange_idempotent(diag, [F(1), F(2)], 0) == mat([[1, 0], [0, 0]])
    assert lagrange_idempotent(diag, [F(1), F(2)], 1) == mat([[0, 0], [0, 1]])
    m = mat([[1, 0], [1, -1]])
    # oracle: (M - (-1)I) / (1 - (-1)) computed directly
    expected = (m + Matrix.identity(Q, 2)).scale(F(1, 2))
    got = lagrange_idempotent(m, [F(1), F(-1)], 0)
    assert got == expected == Matrix(Q, [[F(1), F(0)], [F(1, 2), F(0)]])
    assert got * got == got


def test_lagrange_idempotent_partition():
    m = mat([[1, 0], [1, -1]])
    eigs = [F(1), F(-1)]
    total = Matrix.zeros(Q, 2)
    spectral = Matrix.zeros(Q, 2)
    for i, th in enumerate(eigs):
        Ei = lagrange_idempotent(m, eigs, i)
        total = total + Ei
        spectral = spectral + Ei.scale(th)
    assert total == Matrix.identity(Q, 2)
    assert spectral == m


def test_lagrange_duplicate_eigenvalue():
    with pytest.raises(DuplicateEigenvalue):
        lagrange_idempotent(mat([[1, 0], [0, 1]]), [F(1), F(1)], 0)
    with pytest.raises(DuplicateEigenvalue):
        bidiagonal_eigenbasis(Q, [F(1), F(2), F(1)])


def _scalars(field, n, nonzero=False, unique=False):
    if field.is_rational:
        elems = st.builds(F, st.integers(-9, 9), st.integers(1, 4))
    else:
        elems = st.integers(0, field.p - 1).map(lambda r: PrimeFieldElement(field.p, r))
    return st.lists(elems.filter(bool) if nonzero else elems, min_size=n, max_size=n, unique=unique)


@st.composite
def _bidiagonal_case(draw):
    """Distinct diagonal, and ones below it (upper None) or any nonzero superdiagonal."""
    field = draw(st.sampled_from((Q, G7, Field.prime(2**31 - 1))))
    n = draw(st.integers(1, 6))
    diag = draw(_scalars(field, n, unique=True))
    upper = draw(st.one_of(st.none(), _scalars(field, n - 1, nonzero=True)))
    return field, diag, upper


def _bidiagonal_idempotents_by_elements(field, diag, upper=None) -> list:
    """The reference: each eigenvector by its two-term recurrence in field operations, then w_i u_i^T."""
    n = len(diag)
    c = [field.one()] * (n - 1) if upper is None else upper
    out = []
    for i, th in enumerate(diag):
        below, above = [field.zero()] * n, [field.zero()] * n  # supported on k >= i, k <= i
        below[i] = above[i] = field.one()
        for k in range(i + 1, n):
            below[k] = c[k - 1] * below[k - 1] / (th - diag[k])
        for k in range(i - 1, -1, -1):
            above[k] = c[k] * above[k + 1] / (th - diag[k])
        w, u = (below, above) if upper is None else (above, below)
        out.append(outer(Vector(field, w), Vector(field, u)))
    return out


@settings(max_examples=200, deadline=None)
@given(_bidiagonal_case())
def test_bidiagonal_idempotents_match_lagrange(case):
    """Random diagonals and off-diagonals with mixed denominators over Q, and residues over GF(7) and GF(2^31-1):
    the idempotents w_i u_i^T of `bidiagonal_eigenbasis` are the Lagrange projectors and the dense closed form
    (`reference.bidiagonal_idempotents`), and the eigenbasis is the one `rank_one_factors` reads off them."""
    field, diag, upper = case
    M = bidiagonal(field, diag, upper)
    ones = [field.one()] * (len(diag) - 1)
    assert M == _split_pair_oracle(field, diag, diag, ones if upper is None else upper)[upper is not None]
    expected = [lagrange_idempotent(M, diag, i) for i in range(len(diag))]
    W, U = bidiagonal_eigenbasis(field, diag, upper)
    got = [outer(W.column(i), U.row(i)) for i in range(len(diag))]
    assert got == expected == bidiagonal_idempotents(field, diag, upper)
    assert got == _bidiagonal_idempotents_by_elements(field, diag, upper)
    assert (W, U) == rank_one_factors(got)
    for X in (M, *got, W, U):
        _assert_canonical_form(X)


def test_is_irreducible_tridiagonal():
    assert not is_irreducible_tridiagonal(Matrix.identity(Q, 3))
    assert is_irreducible_tridiagonal(mat([[1, 1], [1, 1]]))
    assert is_irreducible_tridiagonal(mat([[5]]))
    # lower bidiagonal with zero superdiagonal fails for d >= 1
    assert not is_irreducible_tridiagonal(mat([[1, 0], [1, -1]]))
    # a nonzero entry beyond the band fails
    assert not is_irreducible_tridiagonal(mat([[1, 1, 1], [1, 1, 1], [0, 1, 1]]))


def test_transition_matrix_examples():
    e0, e1 = Vector(Q, (F(1), F(0))), Vector(Q, (F(0), F(1)))
    basis = [e0, e1]
    assert transition_matrix(basis, basis) == Matrix.identity(Q, 2)
    doubled = [v.scale(F(2)) for v in basis]
    assert transition_matrix(basis, doubled) == Matrix.identity(Q, 2).scale(F(1, 2))


def test_transition_matrix_expresses_columns():
    # split basis to eigenbasis of A for the d=1 worked example: the ambient
    # basis is the split basis and the eigenvectors are (1, 1/2), (0, 1)
    u0, u1 = Vector(Q, (F(1), F(0))), Vector(Q, (F(0), F(1)))
    w0, w1 = Vector(Q, (F(1), F(1, 2))), Vector(Q, (F(0), F(1)))
    T = transition_matrix([u0, u1], [w0, w1])
    assert T == Matrix(Q, [[F(1), F(0)], [F(-1, 2), F(1)]])
    # oracle: from_basis[j] must equal sum_i T[i][j] * to_basis[i]
    for j, u in enumerate([u0, u1]):
        acc = w0.scale(T[0][j]) + w1.scale(T[1][j])
        assert acc == u


def test_transition_matrix_round_trip_random():
    rng = random.Random(42)
    for _ in range(10):
        entries = [[PrimeFieldElement(7, rng.randrange(7)) for _ in range(3)] for _ in range(3)]
        M = Matrix(G7, entries)
        if M.rank() != 3:
            continue
        N = Matrix.from_ints(G7, [[1, 0, 0], [2, 1, 0], [3, 1, 1]])
        b1, b2 = M.columns(), N.columns()
        assert transition_matrix(b1, b2) * transition_matrix(b2, b1) == Matrix.identity(G7, 3)


def test_transition_matrix_singular_rejected():
    v = Vector(Q, (F(1), F(1)))
    with pytest.raises(SingularMatrix):
        transition_matrix([v, v], [Vector(Q, (F(1), F(0))), Vector(Q, (F(0), F(1)))])


def test_nullspace_and_rank():
    m = mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert m.rank() == 2
    for v in m.nullspace():
        assert (m * v).is_zero()
    assert len(m.nullspace()) == 1


def test_intersection_and_span_equality():
    a = Matrix.from_columns(Q, [Vector(Q, (F(1), F(0), F(0))), Vector(Q, (F(0), F(1), F(0)))])
    b = Matrix.from_columns(Q, [Vector(Q, (F(0), F(1), F(0))), Vector(Q, (F(0), F(0), F(1)))])
    meet = intersect_column_spaces(a, b)
    assert meet.ncols == 1
    assert same_column_space(meet, Matrix.from_columns(Q, [Vector(Q, (F(0), F(1), F(0)))]))
    assert not same_column_space(a, b)


def test_matrix_vector_arithmetic():
    m = mat([[1, 2], [3, 4]])
    v = Vector(Q, (F(1), F(1)))
    assert m * v == Vector(Q, (F(3), F(7)))
    assert (m + m) == m.scale(F(2)) == F(2) * m
    assert m - m == Matrix.zeros(Q, 2)
    assert (-m) + m == Matrix.zeros(Q, 2)
    assert m.transpose().transpose() == m
    assert m.trace() == F(5)
    assert v + v == v.scale(F(2))
    assert (v - v).is_zero()
    assert v.dot(v) == F(2)


def test_vector_normalization():
    v = Vector(Q, (F(0), F(3), F(6)))
    n = v.normalized()
    assert n == Vector(Q, (F(0), F(1), F(2)))
    assert n.first_nonzero_index() == 1
    with pytest.raises(ValueError):
        Vector(Q, (F(0),)).normalized()


# --- reference implementations: elementwise field arithmetic, no integer rows ---


def _ref_dot(field, a, b):
    total = field.zero()
    for x, y in zip(a, b):
        total = total + x * y
    return total


def _ref_mul(A, B):
    cols = list(zip(*B.rows))
    return Matrix(A.field, [[_ref_dot(A.field, row, col) for col in cols] for row in A.rows])


def _ref_echelon(M, augment=None):
    """Gauss-Jordan with first-nonzero pivots, one field operation at a time."""
    rows = [list(r) for r in M.rows]
    aug = [list(r) for r in augment] if augment is not None else None
    n, pivots, r = len(rows), [], 0
    for c in range(M.ncols):
        pivot_row = next((i for i in range(r, n) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        if aug is not None:
            aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        inv = M.field.invert(rows[r][c])
        rows[r] = [inv * a for a in rows[r]]
        if aug is not None:
            aug[r] = [inv * a for a in aug[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
                if aug is not None:
                    aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return rows, pivots, aug


def _ref_nullspace(M, echelon=None):
    rows, pivots, _ = (echelon or _ref_echelon)(M)
    basis = []
    for fc in (c for c in range(M.ncols) if c not in pivots):
        v = [M.field.zero()] * M.ncols
        v[fc] = M.field.one()
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(Vector(M.field, v))
    return basis


def _ref_solve(M, rhs):
    _, pivots, aug = _ref_echelon(M, rhs.rows)
    if len(pivots) != M.nrows:
        raise SingularMatrix("matrix has zero determinant")
    return Matrix(M.field, aug)


def _assert_canonical(field, entries):
    for x in entries:
        if field.is_rational:
            assert type(x) is F and x.denominator > 0 and gcd(x.numerator, x.denominator) == 1
        else:
            assert type(x) is PrimeFieldElement and x.p == field.p and 0 <= x.r < field.p


@st.composite
def _matrix(draw, field, n, m):
    """An n x m matrix, sometimes with a zero row, a zero column or a repeated row."""
    size = n * m
    if field.is_rational:  # mixed and negative denominators
        nums = draw(st.lists(st.integers(-9, 9), min_size=size, max_size=size))
        dens = draw(st.lists(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]), min_size=size, max_size=size))
        flat = [F(a, b) for a, b in zip(nums, dens)]
    else:
        residues = draw(st.lists(st.integers(0, field.p - 1), min_size=size, max_size=size))
        flat = [PrimeFieldElement(field.p, r) for r in residues]
    rows = [flat[i * m:(i + 1) * m] for i in range(n)]
    shape = draw(st.sampled_from(["dense", "zero row", "zero column", "repeated row", "zero"]))
    if shape == "zero":
        rows = [[field.zero()] * m for _ in range(n)]
    elif shape == "zero row" and n:
        rows[draw(st.integers(0, n - 1))] = [field.zero()] * m
    elif shape == "zero column" and m:
        j = draw(st.integers(0, m - 1))
        for row in rows:
            row[j] = field.zero()
    elif shape == "repeated row" and n > 1:
        rows[-1] = list(rows[0])
    return Matrix(field, rows)


@st.composite
def _kernel_case(draw):
    field = draw(st.sampled_from(KERNEL_FIELDS))
    # a matrix without rows has no columns either, so only k (B's columns) may be 0
    n, m, k = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(0, 5))
    return field, draw(_matrix(field, n, m)), draw(_matrix(field, m, k)), draw(_matrix(field, n, n))


@settings(max_examples=300, deadline=None)
@given(_kernel_case())
def test_integer_kernels_match_elementwise_reference(case):
    field, A, B, S = case
    AB = A * B
    assert AB == _ref_mul(A, B)
    _assert_canonical(field, (x for row in AB.rows for x in row))
    if B.ncols:
        col = B.column(0)
        Av = A * col
        assert Av == Vector(field, (_ref_dot(field, row, col) for row in A.rows))
        _assert_canonical(field, Av)
        dot = col.dot(col)
        assert dot == _ref_dot(field, col, col)
        _assert_canonical(field, [dot])
    for M in (A, B, S):
        R, pivots = M.rref()
        ref_rows, ref_pivots, _ = _ref_echelon(M)
        assert (R, pivots) == (Matrix(field, ref_rows), ref_pivots)
        assert M.rank() == len(ref_pivots)
        _assert_canonical(field, (x for row in R.rows for x in row))
        null = M.nullspace()
        assert null == _ref_nullspace(M)
        _assert_canonical(field, (x for v in null for x in v))
    rhs = A if A.nrows == S.nrows and A.ncols else Matrix.identity(field, S.nrows)
    for got, want in ((S.inverse, lambda: _ref_solve(S, Matrix.identity(field, S.nrows))),
                      (lambda: S.solve(rhs), lambda: _ref_solve(S, rhs))):
        try:
            expected = want()
        except SingularMatrix:
            with pytest.raises(SingularMatrix):
                got()
            continue
        X = got()
        assert X == expected
        _assert_canonical(field, (x for row in X.rows for x in row))


@pytest.mark.parametrize("field", KERNEL_FIELDS)
def test_kernels_on_empty_shapes(field):
    # n x 0 matrices come out of intersect_column_spaces; empty rows must not divide by 0
    assert _to_ints(field, []) == ([], 1)
    assert _to_ints(field, [[]]) == ([[]], 1)
    assert _reduce_ints(field, []) == []
    assert _reduce_ints(field, [0, 0]) == [0, 0]
    empty3 = Matrix(field, ((), (), ()))
    assert empty3.ncols == 0 and empty3.rank() == 0
    assert empty3.rref() == (empty3, [])
    assert empty3.nullspace() == []
    assert empty3.column_space_basis().ncols == 0
    M = Matrix.identity(field, 3)
    assert M * empty3 == empty3
    assert empty3 * Vector(field, ()) == Vector(field, [field.zero()] * 3)
    assert Vector(field, ()).dot(Vector(field, ())) == field.zero()
    assert Matrix(field, ()).inverse() == Matrix(field, ())
    meet = intersect_column_spaces(M, empty3)
    assert (meet.nrows, meet.ncols) == (3, 0)
    assert intersect_column_spaces(empty3, M) == meet


@pytest.mark.parametrize("field", (Q, G7))
def test_column_space_basis_keeps_rows_at_rank_zero(field):
    for n, m in ((3, 2), (3, 0), (1, 1)):
        basis = Matrix.zeros(field, n, m).column_space_basis()
        assert (basis.nrows, basis.ncols) == (n, 0)
    M = Matrix.from_ints(field, [[0, 2], [0, 0], [0, 4]])
    assert M.column_space_basis() == Matrix.from_ints(field, [[1], [0], [2]])
    # col(e0) ∩ col(e1) = 0: a nonempty stack with an empty kernel
    e = Matrix.identity(field, 3)
    meet = intersect_column_spaces(Matrix(field, (r[:1] for r in e.rows)), Matrix(field, (r[1:2] for r in e.rows)))
    assert (meet.nrows, meet.ncols) == (3, 0)


@st.composite
def _trace_case(draw):
    """n x m and m x n operands, n, m >= 1, or the 0 x 0 pair."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    n, m = draw(st.just((0, 0)) | st.tuples(st.integers(1, 5), st.integers(1, 5)))
    return field, draw(_matrix(field, n, m)), draw(_matrix(field, m, n))


@settings(max_examples=300, deadline=None)
@given(_trace_case())
def test_trace_of_product_is_the_trace_of_the_product(case):
    field, X, Y = case
    t = trace_of_product(X, Y)
    assert t == (X * Y).trace()
    _assert_canonical(field, [t])


def _rank_one_factors_by_elements(mats):
    """The reference: w_i and u_i^T cut from mats[i] and kept when their outer product gives it back."""
    factors = []
    for M in mats:
        k, j = next(((k, j) for k, row in enumerate(M.rows) for j, x in enumerate(row) if x), (0, None))
        if j is None:
            return None
        factors.append((M.column(j), M.row(k).normalized()))
        if outer(*factors[-1]) != M:
            return None
    cols, rows = zip(*factors)
    return Matrix.from_columns(mats[0].field, cols), Matrix.from_columns(mats[0].field, rows).transpose()


@st.composite
def _rank_one_family(draw):
    """n x n matrices, each w u^T (w, u of mixed denominators, one may be zero) or any matrix."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    mats = []
    for _ in range(k):
        w, u, S = draw(_matrix(field, 1, n)).row(0), draw(_matrix(field, 1, n)).row(0), draw(_matrix(field, n, n))
        mats.append(draw(st.sampled_from([outer(w, u), S])))
    return mats


@settings(max_examples=300, deadline=None)
@given(_rank_one_family())
def test_rank_one_factors_match_the_element_route(mats):
    found = rank_one_factors(mats)
    assert found == _rank_one_factors_by_elements(mats)
    for X in found or ():
        _assert_canonical_form(X)


@pytest.mark.parametrize("p", [7, 2**31 - 1])
def test_rank_one_factors_on_rows_proportional_only_mod_p(p):
    """Over GF(p) the second row is k times the first only mod p: rank one, though the stored integers are not."""
    field, k = Field.prime(p), (p + 1) // 2  # 2k = 1 mod p
    M = Matrix.from_ints(field, [[2, 3], [1, 3 * k % p]])
    assert M.rank() == 1
    W, U = rank_one_factors([M])
    assert (W.nums, U.nums) == (((2,), (1,)), ((1, 3 * k % p),))
    assert outer(W.column(0), U.row(0)) == M
    assert rank_one_factors([Matrix.from_ints(field, [[2, 3], [1, 3 * k % p + 1]])]) is None


@settings(max_examples=200, deadline=None)
@given(_kernel_case())
def test_rank_one_factors_exactly_the_rank_one_matrices(case):
    field, _, _, S = case
    for M in (S, outer(S.column(0), Vector(field, S[0]))):
        found = rank_one_factors([M])
        assert (found is not None) == (M.rank() == 1)
        if found is not None:
            W, U = found
            assert W.column(0) == next(c for c in M.columns() if not c.is_zero())
            assert outer(W.column(0), Vector(field, U[0])) == M
            assert M == Matrix.from_columns(field, [W.column(0)]) * Matrix(field, [U[0]])


# --- mismatched shapes are rejected, never truncated ---


@pytest.mark.parametrize("field", (Q, G7))
def test_mismatched_shapes_raise(field):
    v3, v2 = Vector(field, [field.from_int(x) for x in (1, 2, 3)]), Vector(field, [field.one()] * 2)
    M22, M13 = Matrix.from_ints(field, [[1, 2], [3, 4]]), Matrix.from_ints(field, [[1, 2, 3]])
    for bad in (lambda: v3.dot(v2), lambda: v3 + v2, lambda: v3 - v2, lambda: M22 + M13, lambda: M22 - M13,
                lambda: M22 * v3, lambda: M22 * M13.transpose(), lambda: trace_of_product(M22, M13),
                lambda: M22.solve(M13), lambda: intersect_column_spaces(M22, M13.transpose())):
        with pytest.raises(ValueError, match="incompatible shapes"):
            bad()
    with pytest.raises(ValueError, match="unequal length"):
        Matrix(field, [[field.one(), field.one()], [field.one()]])
    assert M22 * v2 == Vector(field, [field.from_int(3), field.from_int(7)])
    # operands over different fields, and scalars outside the field (an int included)
    other = Field.prime(11)
    N22, w2 = Matrix.from_ints(other, [[1, 2], [3, 4]]), Vector(other, [other.one()] * 2)
    for bad in (lambda: M22 + N22, lambda: M22 - N22, lambda: M22 * N22, lambda: M22 * w2, lambda: v2 + w2,
                lambda: v2.dot(w2), lambda: M22.beside(N22), lambda: M22.solve(N22), lambda: outer(v2, w2),
                lambda: trace_of_product(M22, N22)):
        with pytest.raises(ValueError, match="different fields"):
            bad()
    for c in (other.from_int(10), 2, F(1, 2) if not field.is_rational else G7.one()):
        for bad in (lambda: M22.scale(c), lambda: M22 * c, lambda: c * M22, lambda: v2.scale(c)):
            with pytest.raises(ValueError, match="not an element"):
                bad()
    # an equal field is accepted whether or not it is the same object
    same = Field.from_json(field.to_json())
    assert M22 + Matrix.from_ints(same, [[1, 2], [3, 4]]) == M22.scale(field.from_int(2))


# --- the canonical integer form against the element-row kernels it replaced ---


def _ref_products(field, left, right):
    """Rows of dot products of the element rows left with the element columns right:
    the rows go to integers (`linalg._to_ints`) and each entry back to a field element (`Field.fraction`)."""
    a_rows, da = _to_ints(field, left)
    b_cols, db = _to_ints(field, right)
    return [[field.fraction(sum(map(mul, a, b)), da * db) for b in b_cols] for a in a_rows]


def _ref_int_echelon(M, augment=None):
    """Gauss-Jordan on the element rows of [M | augment] through one `to_ints`,
    each output row back to field elements."""
    field, m = M.field, M.ncols
    extra = augment if augment is not None else [()] * M.nrows
    rows, _ = _to_ints(field, [r + tuple(a) for r, a in zip(M.rows, extra, strict=True)])
    pivots = []
    for c in range(m):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        top, pv = rows[r], rows[r][c]
        for i, row in enumerate(rows):
            g = row[c]
            if g and i != r:
                rows[i] = _reduce_ints(field, [pv * a - g * b for a, b in zip(row, top)])
        pivots.append(c)
    out = [[field.fraction(a, row[c]) for a in row] for row, c in zip(rows, pivots)]
    out += [[field.fraction(a, 1) for a in row] for row in rows[len(pivots):]]
    return [row[:m] for row in out], pivots, [row[m:] for row in out] if augment is not None else None


def _assert_canonical_form(X):
    """den > 0 and gcd(den, every numerator) = 1 over Q; residues and den = 1 over GF(p)."""
    flat = [a for row in X.nums for a in row]
    if X.field.is_rational:
        assert X.den > 0 and gcd(X.den, *flat) == 1
    else:
        assert X.den == 1 and all(0 <= a < X.field.p for a in flat)


ORACLE_FIELDS = (Q, Field.prime(2**31 - 1))


@st.composite
def _oracle_case(draw):
    """Same-shape A, A2 (n x m), B (m x k), square S, a vector of length m and a scalar."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    n, m, k = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(0, 4))
    A, A2, B, S = (draw(_matrix(field, r, c)) for r, c in ((n, m), (n, m), (m, k), (n, n)))
    c = draw(_scalars(field, 1))[0]
    return field, A, A2, B, S, draw(_matrix(field, 1, m)).row(0), c


@settings(max_examples=250, deadline=None)
@given(_oracle_case())
def test_canonical_form_matches_element_row_reference(case):
    field, A, A2, B, S, v, c = case
    el = lambda rows: Matrix(field, rows)  # a matrix rebuilt from element rows
    expected = {
        "mul": el(_ref_products(field, A.rows, list(zip(*B.rows)))),
        "add": el([[a + b for a, b in zip(r, s)] for r, s in zip(A.rows, A2.rows)]),
        "sub": el([[a - b for a, b in zip(r, s)] for r, s in zip(A.rows, A2.rows)]),
        "scale": el([[c * a for a in r] for r in A.rows]),
        "transpose": el(list(zip(*A.rows))),
        "outer": el(_ref_products(field, [[a] for a in A.column(0)], [[b] for b in v])),
    }
    got = {"mul": A * B, "add": A + A2, "sub": A - A2, "scale": A.scale(c), "transpose": A.transpose(),
           "outer": outer(A.column(0), v)}
    assert got == expected
    Av = A * v
    assert Av == Vector(field, (r[0] for r in _ref_products(field, A.rows, [v.entries])))
    assert trace_of_product(A, A2.transpose()) == _ref_products(
        field, [[x for r in A.rows for x in r]], [[x for r in A2.rows for x in r]])[0][0]
    assert (A == A2) == (A.rows == A2.rows)
    i = v.first_nonzero_index()
    if i is not None:
        assert v.normalized() == Vector(field, [x / v.entries[i] for x in v.entries])
        _assert_canonical_form(v.normalized())
    assert flat_rank([A, A2]) == Matrix(field, [[x for r in X.rows for x in r] for X in (A, A2)]).rank()
    for M in (A, B, S):
        rows, pivots, _ = _ref_int_echelon(M)
        assert M.rref() == (el(rows), pivots) and M.rank() == len(pivots)
        assert M.nullspace() == _ref_nullspace(M, _ref_int_echelon)
        rows_t, pivots_t, _ = _ref_int_echelon(M.transpose())
        basis = rows_t[: len(pivots_t)]
        assert M.column_space_basis() == el([[b[i] for b in basis] for i in range(M.nrows)])
    for rhs in (Matrix.identity(field, S.nrows), A):
        _, pivots, X = _ref_int_echelon(S, rhs.rows)
        if len(pivots) != S.nrows:
            with pytest.raises(SingularMatrix):
                S.solve(rhs)
            with pytest.raises(SingularMatrix):
                S.inverse()
            continue
        assert S.solve(rhs) == el(X)
        assert S.inverse() == el(_ref_int_echelon(S, Matrix.identity(field, S.nrows).rows)[2])

    # one value, one form: built from rows or reached by arithmetic, equal values hash alike
    reached = (A + A2 - A2, A.scale(c).scale(field.invert(c)) if c else A, A * Matrix.identity(field, A.ncols))
    for N in reached:
        assert N == el(A.rows) and hash(N) == hash(el(A.rows))
    for X in (*got.values(), Av, A + A2 - A2, *A.nullspace(), A.column_space_basis(), S.rref()[0]):
        _assert_canonical_form(X)

    # slices copy the stored rows: each equals the cut of the element rows and is in canonical form
    n, m = A.shape
    cuts = [(A.row(i), Vector(field, A.rows[i])) for i in range(-n, n)]
    cuts += [(A.column(j), Vector(field, [r[j] for r in A.rows])) for j in range(m)]
    for rs, cs in ((slice(None), slice(None)), (slice(1, None), slice(None, -1)), (slice(None, None, -1), slice(1, 3))):
        cuts.append((A.submatrix(rs, cs), el([r[cs] for r in A.rows[rs]])))
    for X, want in cuts:
        assert X == want
        _assert_canonical_form(X)


def test_slices_over_q_keep_the_gcd_pass():
    """[[1, 0], [0, 2]] / 2 is canonical, but its column 1, row 1 and lower right entry are 1 over 1."""
    A = mat([[1, 0], [0, 2]]).scale(F(1, 2))
    assert (A.nums, A.den) == (((1, 0), (0, 2)), 2)
    for X, nums in ((A.column(1), ((0, 1),)), (A.row(1), ((0, 1),)), (A.submatrix(slice(1, 2), slice(1, 2)), ((1,),))):
        assert (X.nums, X.den) == (nums, 1)
    assert (A.transpose().nums, A.transpose().den) == (((1, 0), (0, 2)), 2)


# --- constructors and JSON on the integer form, against the element and canonical-pass routes ---


@settings(max_examples=300, deadline=None)
@given(_oracle_case())
def test_constructors_and_json_match_their_references(case):
    """from_columns, beside, identity and zeros give the form of `_of`'s pass, with mixed denominators and zero
    columns over Q; to_json gives the element route's encoding, with negative, zero and mixed-denominator entries."""
    field, A, A2, _, S, v, _ = case
    cols = A.columns()
    den = lcm(*(c.den for c in cols))
    by_pass = Matrix._of(field, list(zip(*([a * (den // c.den) for a in c.nums[0]] for c in cols))), den)
    den = lcm(A.den, A2.den)
    beside = Matrix._of(field, [[a * (den // A.den) for a in r] + [b * (den // A2.den) for b in s]
                                for r, s in zip(A.nums, A2.nums)], den)
    n, m = A.shape
    built = {
        "from_columns": (Matrix.from_columns(field, cols), by_pass),
        "beside": (A.beside(A2), beside),
        "identity": (Matrix.identity(field, n), Matrix._of(field, [[int(i == j) for j in range(n)] for i in range(n)])),
        "zeros": (Matrix.zeros(field, n, m), Matrix._of(field, [[0] * m] * n)),
    }
    for name, (got, want) in built.items():
        assert (got.den, got.nums) == (want.den, want.nums), name
        _assert_canonical_form(got)
    enc = field.encode_scalar
    for X in (A, S, A * A2.transpose()):
        assert X.to_json() == [[enc(a) for a in row] for row in X.rows]
    assert v.to_json() == [enc(a) for a in v.entries]


def test_json_examples():
    assert Matrix(Q, [[F(-6, 4), F(0)], [F(2, 3), F(5)]]).to_json() == [["-3/2", "0/1"], ["2/3", "5/1"]]
    assert Vector(Q, [F(0), F(-4, 2)]).to_json() == ["0/1", "-2/1"]
    assert Matrix.from_ints(G7, [[-1, 8]]).to_json() == [[6, 1]]
    assert Matrix.zeros(Q, 0).to_json() == [] and Matrix.zeros(G7, 2, 0).to_json() == [[], []]


# --- the fused root-product step against the step-by-step reference ---


def _root_product_family_by_steps(M, roots, start=None):
    """The reference: each step is a product, a scale and a difference, Y = M * Y - Y.scale(r)."""
    Y = Matrix.identity(M.field, M.nrows) if start is None else start
    out = [Y]
    for r in roots:
        Y = M * Y - Y.scale(r)
        out.append(Y)
    return out


@st.composite
def _root_product_case(draw):
    """n x n M (1 x 1 included), up to four roots (none included) and a start: None, an n x k matrix or a
    vector, zero ones included (`_matrix` draws the zero shape)."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    n = draw(st.integers(1, 4))
    roots = draw(_scalars(field, draw(st.integers(0, 4))))
    kind = draw(st.sampled_from(["none", "matrix", "vector"]))
    if kind == "none":
        start = None
    elif kind == "matrix":
        start = draw(_matrix(field, n, draw(st.integers(1, 3))))
    else:
        start = draw(_matrix(field, 1, n)).row(0)
    return draw(_matrix(field, n, n)), roots, start


@settings(max_examples=300, deadline=None)
@given(_root_product_case())
def test_root_product_family_matches_step_by_step_reference(case):
    M, roots, start = case
    family = root_product_family(M, roots, start)
    assert family == _root_product_family_by_steps(M, roots, start)
    assert len(family) == len(roots) + 1 and {type(Y) for Y in family} == {type(family[0])}
    for Y in family:
        _assert_canonical_form(Y)


def test_root_product_family_examples_and_refusals():
    # 1 x 1: 3 - 1 = 2, then (3 - 5/2) 2 = 1; a vector start and a zero start keep their type
    assert root_product_family(mat([[3]]), [F(1), F(5, 2)]) == [mat([[1]]), mat([[2]]), mat([[1]])]
    v = Vector(Q, [F(-1, 2), F(3, 4)])
    assert root_product_family(mat([[1, 2], [0, 3]]), [F(3)], v) == [v, Vector(Q, [F(5, 2), F(0)])]
    zero = Vector(G7, [G7.zero()] * 2)
    assert root_product_family(Matrix.from_ints(G7, [[1, 2], [3, 4]]), [G7.one()] * 2, zero) == [zero] * 3
    square = mat([[1, 2], [3, 4]])
    refused = (
        (square, Vector(G7, [G7.one()] * 2), [F(1)]),  # a start over another field
        (square, Matrix.from_ints(G7, [[1], [1]]), [F(1)]),
        (square, Vector(Q, [F(1)] * 3), [F(1)]),  # a start of the wrong shape
        (square, mat([[1, 2, 3]]), [F(1)]),
        (mat([[1, 2, 3], [4, 5, 6]]), mat([[1], [2], [3]]), [F(1)]),  # M not square
        (square, None, [G7.one()]),  # a root over another field
    )
    for M, start, roots in refused:
        with pytest.raises(ValueError):
            root_product_family(M, roots, start)
        with pytest.raises(ValueError):
            _root_product_family_by_steps(M, roots, start)


# --- colinearity on the stored integers against normalized vectors ---


def _colinear_by_normalizing(u, v):
    return not u.is_zero() and not v.is_zero() and u.normalized() == v.normalized()


@st.composite
def _colinear_case(draw):
    """(u, v) with v a multiple of u (negative, fractional and zero factors), u with one entry changed,
    u shifted by one place (the same entries from another first nonzero index) or any vector."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    n = draw(st.integers(1, 5))
    u = draw(_matrix(field, 1, n)).row(0)
    kind = draw(st.sampled_from(["multiple", "near miss", "shifted", "any"]))
    if kind == "multiple":
        v = u.scale(draw(_scalars(field, 1))[0])
    elif kind == "near miss":
        k, entries = draw(st.integers(0, n - 1)), list(u.entries)
        entries[k] += draw(_scalars(field, 1, nonzero=True))[0]
        v = Vector(field, entries)
    elif kind == "shifted":
        v = Vector(field, u.entries[-1:] + u.entries[:-1])
    else:
        v = draw(_matrix(field, 1, n)).row(0)
    return u, v


@settings(max_examples=400, deadline=None)
@given(_colinear_case())
def test_is_colinear_matches_normalized_vectors(case):
    u, v = case
    assert u.is_colinear(v) == _colinear_by_normalizing(u, v)
    assert v.is_colinear(u) == _colinear_by_normalizing(v, u)


def test_is_colinear_examples():
    u = Vector(Q, [F(1), F(2)])
    assert u.is_colinear(u.scale(F(-3, 2))) and u.is_colinear(Vector(Q, [F(1, 3), F(2, 3)]))
    # equal support, or one entry off, from the first nonzero index on
    assert not Vector(Q, [F(0), F(1)]).is_colinear(Vector(Q, [F(1), F(1)]))
    assert not u.is_colinear(Vector(Q, [F(1), F(3)]))
    # another length: False both ways, where a zip cut to the shorter vector would find a multiple
    longer = Vector(Q, [F(2), F(4), F(5)])
    assert not u.is_colinear(longer) and not longer.is_colinear(u)
    # another field, with the same stored integers
    G11 = Field.prime(11)
    w7, w11 = Vector(G7, [G7.one(), G7.from_int(2)]), Vector(G11, [G11.one(), G11.from_int(2)])
    assert w7.is_colinear(w7.scale(G7.from_int(3)))
    assert not w7.is_colinear(w11) and not w7.is_colinear(u) and not u.is_colinear(w7)
    zero = Vector(Q, [F(0), F(0)])
    assert not zero.is_colinear(zero) and not u.is_colinear(zero) and not zero.is_colinear(u)


# --- entries outside the field are rejected ---


def test_entries_outside_the_field_raise():
    G11 = Field.prime(11)
    for bad in (lambda: Matrix(G7, [[G11.from_int(10)]]), lambda: Matrix(G7, [[F(1, 2)]]),
                lambda: Vector(G7, [G7.one(), G11.one()]), lambda: Matrix(Q, [[G7.one()]]), lambda: Vector(Q, [1])):
        with pytest.raises(ValueError, match="not an element"):
            bad()
    with pytest.raises(ValueError, match="field other than"):
        Matrix.from_columns(G7, [Vector(G11, [G11.from_int(10)])])
    assert Matrix(G7, [[G7.from_int(10)]]) == Matrix.from_ints(G7, [[3]])
    assert Matrix.from_columns(G7, [Vector(Field.prime(7), [G7.from_int(3)])]) == Matrix.from_ints(G7, [[3]])


# --- column reduction without pivoting ---


def _in_span(basis: Matrix, v: Vector) -> bool:
    return basis.beside(Matrix.from_columns(v.field, [v])).rank() == basis.rank()


@st.composite
def _unpivoted_case(draw):
    field = draw(st.sampled_from((Q, G7, Field.prime(2**31 - 1))))
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return field, draw(_matrix(field, n, n)), draw(_matrix(field, k, n))


@settings(max_examples=300, deadline=None)
@given(_unpivoted_case())
def test_unpivoted_column_reduction(case):
    """None exactly when a leading principal minor of M is 0; otherwise, run on M
    over [I; X], column j is (v_j, X v_j) with v_j in span(e_0..e_j) but not
    span(e_0..e_{j-1}), and M v_j in span(e_j..e_{n-1})."""
    field, M, X = case
    n, eye = M.nrows, Matrix.identity(field, M.nrows)
    minor_vanishes = any(M.submatrix(slice(0, k), slice(0, k)).rank() < k for k in range(1, n + 1))
    assert (unpivoted_column_reduction(M, X) is None) == minor_vanishes
    cols = unpivoted_column_reduction(M, Matrix(field, eye.rows + X.rows))
    assert (cols is None) == minor_vanishes
    if cols is None:
        return
    reduced = unpivoted_column_reduction(M, X)
    for j, col in enumerate(cols):
        v, xv = Vector(field, col.entries[:n]), Vector(field, col.entries[n:])
        assert xv == X * v
        assert reduced[j].is_zero() == xv.is_zero() and (xv.is_zero() or reduced[j].normalized() == xv.normalized())
        assert _in_span(eye.submatrix(cols=slice(0, j + 1)), v) and not _in_span(eye.submatrix(cols=slice(0, j)), v)
        assert _in_span(eye.submatrix(cols=slice(j, n)), M * v)


def test_unpivoted_column_reduction_examples():
    for rows in ([[0, 1], [1, 0]], [[1, 1], [1, 1]], [[0]]):  # a row swap needed, singular, zero
        assert unpivoted_column_reduction(mat(rows), Matrix.identity(Q, len(rows))) is None
    X = mat([[1, 2], [3, 4], [5, 6]])
    assert unpivoted_column_reduction(Matrix.identity(Q, 2), X) == X.columns()
    # M = [[2, 1], [4, 3]]: v_0 = e_0, v_1 = e_1 - e_0 / 2 (times 2), so X v_1 = 2 X e_1 - X e_0
    v1 = unpivoted_column_reduction(mat([[2, 1], [4, 3]]), X)[1]
    assert v1.normalized() == Vector(Q, [F(3), F(5), F(7)]).normalized()
    with pytest.raises(ValueError, match="incompatible shapes"):
        unpivoted_column_reduction(mat([[1, 2]]), mat([[1, 2]]))
