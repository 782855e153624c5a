"""Dense exact linear algebra over a ground field.

Matrices and vectors are immutable values holding one canonical integer form,
which all arithmetic reads: integer rows `nums` over one denominator `den` > 0
with gcd(den, nums) = 1 over Q, residues in [0, p) with den = 1 over GF(p).
A product entry is one exact integer dot product, each result is made
canonical with one gcd pass, and equality compares canonical forms.  Field
elements are read in by `_to_ints` and made by `Field.fraction` only at the
edges (indexing, scalars, JSON), once per instance.  Every entry, both
operands of an operation and every scalar must lie in one field (ValueError
otherwise).  Gauss-Jordan elimination is fraction-free with first-nonzero
pivoting (GF(p) has no magnitude order); `unpivoted_column_reduction` runs the
same update on columns without pivoting, and `flag_decomposition` decomposes a
pair of flags with it.  Indexing is 0-based.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import mul

from .errors import DuplicateEigenvalue, SingularMatrix
from .fields import Field


def _check_operands(a, b, shapes_fit: bool = True) -> None:
    """ValueError unless a and b lie over one field and shapes_fit."""
    if a.field is not b.field and a.field != b.field:
        raise ValueError(f"operands over different fields {a.field} and {b.field}")
    if not shapes_fit:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")


def _to_ints(field: Field, rows):
    """(nums, den) with rows[i][k] = nums[i][k] / den for a list of element rows: den is the lcm
    of the denominators over Q, and 1 over GF(p).  ValueError for an entry not in field."""
    for x in chain.from_iterable(rows):
        if not field.contains(x):
            raise ValueError(f"{x!r} is not an element of {field}")
    if not field.is_rational:
        return [[x.r for x in row] for row in rows], 1
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def _reduce_ints(field: Field, nums):
    """nums times a nonzero scalar, kept small: over Q the content (gcd)
    is divided out, over GF(p) each entry is taken mod p."""
    if not field.is_rational:
        return [a % field.p for a in nums]
    g = gcd(*nums)
    return [a // g for a in nums] if g > 1 else nums


class _Exact:
    """The canonical integer form that Matrix and Vector hold (a Vector has
    one row), and the arithmetic they share."""

    __slots__ = ("field", "nums", "den", "_elements")

    def __init__(self, field: Field, rows):
        rows = [tuple(row) for row in rows]
        if len({len(row) for row in rows}) > 1:
            raise ValueError("rows of unequal length")
        nums, self.den = _to_ints(field, rows)
        self.field, self.nums, self._elements = field, tuple(map(tuple, nums)), None

    @classmethod
    def _of(cls, field: Field, rows, den: int = 1):
        """The object rows / den in canonical form, for a list or tuple of integer rows and den != 0."""
        out = object.__new__(cls)
        out.field, out._elements = field, None
        if not field.is_rational:
            p, s = field.p, (pow(den, -1, field.p) if den != 1 else 1)
            out.nums, out.den = tuple([tuple([a * s % p for a in row]) for row in rows]), 1
            return out
        g = gcd(den, *chain.from_iterable(rows)) * (-1 if den < 0 else 1)
        out.nums = tuple([tuple([a // g for a in row]) for row in rows]) if g != 1 else tuple(map(tuple, rows))
        out.den = den // g
        return out

    @property
    def shape(self) -> tuple:
        return (len(self.nums), len(self.nums[0]) if self.nums else 0)

    @property
    def rows(self) -> tuple:
        """The entries as rows of field elements, made from the integer form on first use."""
        if self._elements is None:
            fraction, den = self.field.fraction, self.den
            self._elements = tuple(tuple(fraction(a, den) for a in row) for row in self.nums)
        return self._elements

    def __eq__(self, other):
        return type(other) is type(self) and (self.field, self.den, self.nums) == (other.field, other.den, other.nums)

    def __hash__(self):
        return hash((self.field, self.nums, self.den))

    def is_zero(self) -> bool:
        return not any(map(any, self.nums))

    def _combine(self, other, sign: int):
        _check_operands(self, other, self.shape == other.shape)
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, sign * (den // other.den)
        rows = [[a * sa + b * sb for a, b in zip(r, s)] for r, s in zip(self.nums, other.nums)]
        return self._of(self.field, rows, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._of(self.field, [[-a for a in r] for r in self.nums], self.den)

    def scale(self, c):
        [[num]], den = _to_ints(self.field, [[c]])
        return self._of(self.field, [[num * a for a in r] for r in self.nums], self.den * den)


class Vector(_Exact):
    """An exact column vector with entries in a fixed field."""

    __slots__ = ()

    def __init__(self, field: Field, entries):
        super().__init__(field, [entries])

    entries = property(lambda self: self.rows[0], doc="The coordinates as field elements.")

    def __len__(self):
        return len(self.nums[0])

    def __getitem__(self, i):
        return self.field.fraction(self.nums[0][i], self.den)

    def __iter__(self):
        return iter(self.entries)

    def dot(self, other) -> object:
        _check_operands(self, other, self.shape == other.shape)
        return self.field.fraction(sum(map(mul, self.nums[0], other.nums[0])), self.den * other.den)

    def first_nonzero_index(self) -> int | None:
        return next((i for i, a in enumerate(self.nums[0]) if a), None)

    def normalized(self) -> "Vector":
        """Scale so the first nonzero coordinate equals 1."""
        i = self.first_nonzero_index()
        if i is None:
            raise ValueError("cannot normalize the zero vector")
        return Vector._of(self.field, self.nums, self.nums[0][i])

    def to_json(self):
        enc = self.field.encode_scalar
        return [enc(a) for a in self.entries]

    def __repr__(self):
        return f"Vector({list(self.entries)})"


class Matrix(_Exact):
    """An exact dense matrix with entries in a fixed field."""

    __slots__ = ()

    # bound on Matrix itself: perfbench/tracing.py wraps them by name in Matrix.__dict__
    __add__, __sub__, scale = _Exact.__add__, _Exact.__sub__, _Exact.scale

    # --- constructors ---

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls._of(field, [[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, n: int, m: int | None = None) -> "Matrix":
        return cls._of(field, [(0,) * (n if m is None else m)] * n)

    @classmethod
    def from_columns(cls, field: Field, columns) -> "Matrix":
        cols = list(columns)
        if any(c.field is not field and c.field != field for c in cols):
            raise ValueError(f"columns over a field other than {field}")
        den = lcm(*(c.den for c in cols))
        return cls._of(field, list(zip(*([a * (den // c.den) for a in c.nums[0]] for c in cols))), den)

    @classmethod
    def from_ints(cls, field: Field, rows) -> "Matrix":
        return cls._of(field, [tuple(row) for row in rows])

    # --- shape and access ---

    @property
    def nrows(self) -> int:
        return len(self.nums)

    @property
    def ncols(self) -> int:
        return len(self.nums[0]) if self.nums else 0

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, i):
        return self.rows[i]

    def column(self, j: int) -> Vector:
        return Vector._of(self.field, [[row[j] for row in self.nums]], self.den)

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def row(self, i: int) -> Vector:
        return Vector._of(self.field, self.nums[i:i + 1], self.den)

    def submatrix(self, rows=slice(None), cols=slice(None)) -> "Matrix":
        """The block on the given row and column slices."""
        return Matrix._of(self.field, [row[cols] for row in self.nums[rows]], self.den)

    def beside(self, other: "Matrix") -> "Matrix":
        """[self | other]: the columns of self, then those of other."""
        _check_operands(self, other, self.nrows == other.nrows)
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        rows = [[a * sa for a in r] + [b * sb for b in s] for r, s in zip(self.nums, other.nums)]
        return Matrix._of(self.field, rows, den)

    # --- arithmetic ---

    def __rmul__(self, c):
        return self.scale(c)

    def __mul__(self, other):
        if not isinstance(other, _Exact):
            return self.scale(other)
        vec = isinstance(other, Vector)  # a Vector's one row is the one column to multiply
        _check_operands(self, other, self.ncols == (len(other) if vec else other.nrows))
        cols = other.nums if vec else list(zip(*other.nums))
        rows = [[sum(map(mul, a, b)) for b in cols] for a in self.nums]
        return type(other)._of(self.field, [[r[0] for r in rows]] if vec else rows, self.den * other.den)

    def transpose(self) -> "Matrix":
        return Matrix._of(self.field, list(zip(*self.nums)), self.den)

    def trace(self):
        return self.field.fraction(sum(self.nums[i][i] for i in range(self.nrows)), self.den)

    # --- elimination-based operations ---

    def _echelon(self, augment=None):
        """Row-reduce [self | augment] (`_gauss_jordan` on the integer rows), then
        divide each pivot row by its pivot.  Returns (reduced self, pivot column
        list, reduced augment or None)."""
        field, m = self.field, self.ncols
        rows = [list(r) for r in (self if augment is None else self.beside(augment)).nums]
        pivots = _gauss_jordan(field, rows, m)
        heads = [rows[r][c] for r, c in enumerate(pivots)]
        den = lcm(*heads)  # over GF(p) an lcm of residues in [1, p), so prime to p
        rows = [[a * (den // pv) for a in row] for row, pv in zip(rows, heads)] + rows[len(pivots):]
        reduced = Matrix._of(field, [row[:m] for row in rows], den)
        return reduced, pivots, Matrix._of(field, [row[m:] for row in rows], den) if augment is not None else None

    def rref(self):
        return self._echelon()[:2]

    def rank(self) -> int:
        return len(_gauss_jordan(self.field, [list(r) for r in self.nums], self.ncols))

    def inverse(self) -> "Matrix":
        """Exact inverse; raises SingularMatrix when the determinant is 0."""
        if not self.is_square:
            raise SingularMatrix("only square matrices are invertible")
        _, pivots, inv = self._echelon(augment=Matrix.identity(self.field, self.nrows))
        if len(pivots) != self.nrows:
            raise SingularMatrix("matrix has zero determinant")
        return inv

    def solve(self, rhs: "Matrix") -> "Matrix":
        """X with self*X = rhs; raises SingularMatrix when not uniquely solvable."""
        if not self.is_square:
            raise SingularMatrix("solve requires a square matrix")
        _, pivots, X = self._echelon(augment=rhs)
        if len(pivots) != self.nrows:
            raise SingularMatrix("matrix has zero determinant")
        return X

    def nullspace(self) -> list[Vector]:
        """Canonical nullspace basis (one vector per free column)."""
        R, pivots, _ = self._echelon()
        basis = []
        for fc in (c for c in range(self.ncols) if c not in pivots):
            v = [0] * self.ncols
            v[fc] = R.den
            for r, pc in enumerate(pivots):
                v[pc] = -R.nums[r][fc]
            basis.append(Vector._of(self.field, [v], R.den))
        return basis

    def column_space_basis(self) -> "Matrix":
        """Canonical basis of the column space, returned as matrix columns."""
        R, pivots, _ = self.transpose()._echelon()
        basis = R.nums[: len(pivots)]
        return Matrix._of(self.field, [[v[i] for v in basis] for i in range(self.nrows)], R.den)

    def to_json(self):
        enc = self.field.encode_scalar
        return [[enc(a) for a in row] for row in self.rows]

    def __repr__(self):
        return "Matrix([" + ",\n        ".join(str(list(r)) for r in self.rows) + "])"


def _gauss_jordan(field: Field, rows: list, m: int) -> list:
    """Reduce the integer rows in place on their first m columns; returns the
    pivot columns.  A row update pv*a - g*b is kept small by `_reduce_ints`."""
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
    return pivots


def unpivoted_column_reduction(M: Matrix, X: Matrix):
    """The columns of X V, each up to a nonzero scalar, for the upper triangular V
    with M V lower triangular, by column operations without pivoting: the update of
    `_gauss_jordan` on the integer columns of M stacked over those of X (scaling M or
    X scales every column of M V or X V alike).  None when a pivot is 0, that is,
    when some leading principal minor of M is 0."""
    _check_operands(M, X, M.is_square and X.ncols == M.ncols)
    field, n = M.field, M.nrows
    cols = [list(m + x) for m, x in zip(zip(*M.nums), zip(*X.nums))]
    for k, top in enumerate(cols):  # cols[k] is final once reached
        pv = top[k]
        if not pv:
            return None
        for j in range(k + 1, n):
            g = cols[j][k]
            if g:
                cols[j] = _reduce_ints(field, [pv * a - g * b for a, b in zip(cols[j], top)])
    return [Vector._of(field, [col[n:]]) for col in cols]


def flag_decomposition(F_inverse: Matrix, G: Matrix):
    """x_0..x_d with x_i spanning F_i ∩ G_{d-i}, for the flags with ordered bases F
    and G (component i: the first i+1 columns), when they are opposite, else None.

    They are opposite exactly when C' (C = F^-1 G with its rows reversed) has an LU
    factorisation without pivoting.  The column operations C' V = L (V upper
    triangular), done on the columns of G as well, leave x_i = G V[:, d-i]
    (`unpivoted_column_reduction`; each x_i up to a nonzero scalar)."""
    cols = unpivoted_column_reduction((F_inverse * G).submatrix(slice(None, None, -1)), G)
    return None if cols is None else tuple(reversed(cols))


def outer(u: Vector, v: Vector) -> Matrix:
    """The rank-one matrix u v^T, one integer product per entry."""
    _check_operands(u, v)
    return Matrix._of(u.field, [[a * b for b in v.nums[0]] for a in u.nums[0]], u.den * v.den)


def trace_of_product(X: Matrix, Y: Matrix):
    """tr(XY) for n x m X and m x n Y as one exact integer dot product, O(nm)."""
    _check_operands(X, Y, X.shape == Y.shape[::-1])
    total = sum(map(mul, chain.from_iterable(X.nums), chain.from_iterable(zip(*Y.nums))))
    return X.field.fraction(total, X.den * Y.den)


def flat_rank(mats) -> int:
    """dim span(mats), each matrix read as one vector of its entries; the integer
    rows serve, as each is the matrix times its nonzero denominator."""
    return Matrix.from_ints(mats[0].field, (chain.from_iterable(M.nums) for M in mats)).rank()


def rank_one_factors(mats):
    """(W, U) with mats[i] == w_i u_i^T, w_i (column i of W) the first nonzero
    column of mats[i] and u_i^T (row i of U) the row through its first nonzero
    entry, divided by that entry; None when some matrix is not of rank one."""
    factors = []
    for M in mats:
        k, j = next(((k, j) for k, row in enumerate(M.nums) for j, x in enumerate(row) if x), (0, None))
        if j is None:
            return None
        factors.append((M.column(j), M.row(k).normalized()))
        if outer(*factors[-1]) != M:
            return None
    cols, rows = zip(*factors)
    return Matrix.from_columns(M.field, cols), Matrix.from_columns(M.field, rows).transpose()


def bidiagonal(field: Field, diag, upper=None) -> Matrix:
    """Diagonal diag with upper on the superdiagonal, or ones on the
    subdiagonal when upper is None."""
    n = len(diag)
    rows = [[diag[i] if i == j else field.zero() for j in range(n)] for i in range(n)]
    for i in range(1, n):
        if upper is None:
            rows[i][i - 1] = field.one()
        else:
            rows[i - 1][i] = upper[i - 1]
    return Matrix(field, rows)


def bidiagonal_idempotents(field: Field, diag, upper=None) -> list:
    """The primitive idempotents E_i = w_i u_i^T of bidiagonal(field, diag, upper).

    w_i and u_i^T are the right and left diag[i]-eigenvectors, triangular with
    w_i[i] = u_i[i] = 1 (so u_i^T w_i = 1); the eigenvalue equations are
    two-term recurrences, so each E_i takes O(n^2) field operations and no
    elimination.  Equal to lagrange_idempotent(bidiagonal(...), diag, i).
    """
    n = len(diag)
    if len(set(diag)) != n:
        raise DuplicateEigenvalue("diagonal entries must be mutually distinct")
    c = [field.one()] * (n - 1) if upper is None else upper  # the off-diagonal entries
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


# --- polynomial evaluation at a matrix ---


def root_product_family(M: Matrix, roots, start=None) -> list:
    """[p_0(M) X, ..., p_k(M) X] where p_i is the product of (x - r) over the first i roots
    and X is start (a Matrix or a Vector; the identity when None), each step M Y - r Y."""
    out = [Matrix.identity(M.field, M.nrows) if start is None else start]
    for r in roots:
        out.append(M * out[-1] - out[-1].scale(r))
    return out


def eval_root_product(roots, M: Matrix) -> Matrix:
    """The product over r in roots of (M - r*I); the empty product is I."""
    return root_product_family(M, roots)[-1]


def lagrange_idempotent(M: Matrix, eigenvalues, i: int) -> Matrix:
    """The spectral projector prod_{j != i} (M - theta_j I) / (theta_i - theta_j).

    When M is multiplicity-free with the listed spectrum these satisfy
    E_i E_j = delta_ij E_i, sum E_i = I and M = sum theta_i E_i.
    """
    ev = list(eigenvalues)
    for a, b in ((a, b) for a in range(len(ev)) for b in range(a + 1, len(ev)) if ev[a] == ev[b]):
        raise DuplicateEigenvalue(f"eigenvalues {a} and {b} coincide")
    others, c = ev[:i] + ev[i + 1:], M.field.one()
    for theta_j in others:
        c = c * (ev[i] - theta_j)
    return root_product_family(M, others)[-1].scale(M.field.invert(c))


def is_irreducible_tridiagonal(M: Matrix) -> bool:
    """True iff M is tridiagonal with every sub- and superdiagonal entry nonzero."""
    rows, n = M.nums, M.nrows
    return all(i == j or bool(rows[i][j]) == (abs(i - j) == 1) for i in range(n) for j in range(n))


def transition_matrix(from_basis, to_basis) -> Matrix:
    """Columns express from_basis vectors in to_basis coordinates; raises
    SingularMatrix when either vector list is not a basis."""
    to_basis = list(to_basis)
    from_mat, to_mat = (Matrix.from_columns(to_basis[0].field, b) for b in (from_basis, to_basis))
    if not (from_mat.is_square and to_mat.is_square):
        raise SingularMatrix("basis lists must be square")
    from_mat.inverse()  # existence check for the source list
    return to_mat.solve(from_mat)


def intersect_column_spaces(A: Matrix, B: Matrix) -> Matrix:
    """Canonical basis (as columns) of col(A) ∩ col(B)."""
    kernel = A.beside(-B).nullspace()
    den = lcm(*(v.den for v in kernel))
    X = Matrix._of(A.field, [[v.nums[0][j] * (den // v.den) for v in kernel] for j in range(A.ncols)], den)
    return (A * X).column_space_basis()


def same_column_space(A: Matrix, B: Matrix) -> bool:
    """Subspace equality via ranks of the stacked generators."""
    ra = A.rank()
    return ra == B.rank() and A.beside(B).rank() == ra
