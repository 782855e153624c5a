import random
from fractions import Fraction as F

import pytest

from leonard.errors import DuplicateEigenvalue, SingularMatrix
from leonard.fields import Field, PrimeFieldElement
from leonard.linalg import (
    Matrix,
    Vector,
    bidiagonal,
    eval_root_product,
    intersect_column_spaces,
    is_irreducible_tridiagonal,
    lagrange_idempotent,
    root_product_family,
    same_column_space,
    transition_matrix,
)

Q = Field.rational()
G7 = Field.prime(7)


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
