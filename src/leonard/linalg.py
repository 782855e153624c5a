"""Dense exact linear algebra over a ground field.

Matrices and vectors are immutable value types; every operation returns a
new object.  Products and elimination run on integer rows (`Field.to_ints`)
and convert back to field elements once per output entry: a product entry is
one exact integer dot product, and Gauss-Jordan elimination is fraction-free
with first-nonzero pivoting (GF(p) has no magnitude order).
Indexing is 0-based on rows and columns 0..d.
"""

from __future__ import annotations

from operator import mul

from .errors import DuplicateEigenvalue, SingularMatrix
from .fields import Field


class Vector:
    """An exact column vector with entries in a fixed field."""

    __slots__ = ("field", "entries")

    def __init__(self, field: Field, entries):
        self.field = field
        self.entries = tuple(entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, Vector)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.entries))

    def __add__(self, other):
        return Vector(self.field, (a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other):
        return Vector(self.field, (a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self):
        return Vector(self.field, (-a for a in self.entries))

    def scale(self, c):
        return Vector(self.field, (c * a for a in self.entries))

    def dot(self, other) -> object:
        return _products(self.field, [self.entries], [other.entries])[0][0]

    def is_zero(self) -> bool:
        return not any(self.entries)

    def first_nonzero_index(self) -> int | None:
        for i, a in enumerate(self.entries):
            if a:
                return i
        return None

    def normalized(self) -> "Vector":
        """Scale so the first nonzero coordinate equals 1."""
        i = self.first_nonzero_index()
        if i is None:
            raise ValueError("cannot normalize the zero vector")
        return self.scale(self.field.invert(self.entries[i]))

    def to_json(self):
        enc = self.field.encode_scalar
        return [enc(a) for a in self.entries]

    def __repr__(self):
        return f"Vector({list(self.entries)})"


class Matrix:
    """An exact dense matrix with entries in a fixed field."""

    __slots__ = ("field", "rows")

    def __init__(self, field: Field, rows):
        self.field = field
        self.rows = tuple(tuple(row) for row in rows)

    # --- constructors ---

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        return cls(field, ((one if i == j else zero for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, field: Field, n: int, m: int | None = None) -> "Matrix":
        zero = field.zero()
        m = n if m is None else m
        return cls(field, ((zero for _ in range(m)) for _ in range(n)))

    @classmethod
    def from_columns(cls, field: Field, columns) -> "Matrix":
        cols = [list(c) for c in columns]
        return cls(field, zip(*cols)) if cols else cls(field, ())

    @classmethod
    def from_ints(cls, field: Field, rows) -> "Matrix":
        return cls(field, ((field.from_int(a) for a in row) for row in rows))

    # --- shape and access ---

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, i):
        return self.rows[i]

    def column(self, j: int) -> Vector:
        return Vector(self.field, (row[j] for row in self.rows))

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows))

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.rows)

    # --- arithmetic ---

    def __add__(self, other):
        return Matrix(
            self.field,
            ((a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)),
        )

    def __sub__(self, other):
        return Matrix(
            self.field,
            ((a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)),
        )

    def __neg__(self):
        return Matrix(self.field, ((-a for a in row) for row in self.rows))

    def scale(self, c) -> "Matrix":
        return Matrix(self.field, ((c * a for a in row) for row in self.rows))

    def __rmul__(self, c):
        return self.scale(c)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("incompatible shapes")
            return Matrix(self.field, _products(self.field, self.rows, zip(*other.rows)))
        if isinstance(other, Vector):
            return Vector(self.field, (row[0] for row in _products(self.field, self.rows, [other.entries])))
        return self.scale(other)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, zip(*self.rows))

    def trace(self):
        total = self.field.zero()
        for i in range(self.nrows):
            total = total + self.rows[i][i]
        return total

    # --- elimination-based operations ---

    def _echelon(self, augment=None):
        """Row-reduce [self | augment]: fraction-free Gauss-Jordan, first-nonzero pivot.

        A row update pv*a - g*b on integer rows is kept small by
        `Field.reduce_ints`; each pivot row is divided by its pivot at the end.
        Returns (reduced rows, pivot column list, reduced augment rows).
        """
        field, m = self.field, self.ncols
        extra = augment if augment is not None else [()] * self.nrows
        rows, _ = field.to_ints(r + tuple(a) for r, a in zip(self.rows, extra, strict=True))
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
                    rows[i] = field.reduce_ints([pv * a - g * b for a, b in zip(row, top)])
            pivots.append(c)
        out = [field.from_ints(row, row[c]) for row, c in zip(rows, pivots)]
        out += [field.from_ints(row, 1) for row in rows[len(pivots):]]
        return [row[:m] for row in out], pivots, [row[m:] for row in out] if augment is not None else None

    def rref(self):
        rows, pivots, _ = self._echelon()
        return Matrix(self.field, rows), pivots

    def rank(self) -> int:
        return len(self._echelon()[1])

    def inverse(self) -> "Matrix":
        """Exact inverse; raises SingularMatrix when the determinant is 0."""
        if not self.is_square:
            raise SingularMatrix("only square matrices are invertible")
        ident = Matrix.identity(self.field, self.nrows)
        _, pivots, aug = self._echelon(augment=ident.rows)
        if len(pivots) != self.nrows:
            raise SingularMatrix("matrix has zero determinant")
        return Matrix(self.field, aug)

    def solve(self, rhs: "Matrix") -> "Matrix":
        """X with self*X = rhs; raises SingularMatrix when not uniquely solvable."""
        if not self.is_square:
            raise SingularMatrix("solve requires a square matrix")
        _, pivots, aug = self._echelon(augment=rhs.rows)
        if len(pivots) != self.nrows:
            raise SingularMatrix("matrix has zero determinant")
        return Matrix(self.field, aug)

    def nullspace(self) -> list[Vector]:
        """Canonical nullspace basis (one vector per free column)."""
        rows, pivots, _ = self._echelon()
        zero, one = self.field.zero(), self.field.one()
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for fc in free:
            v = [zero] * self.ncols
            v[fc] = one
            for r, pc in enumerate(pivots):
                v[pc] = -rows[r][fc]
            basis.append(Vector(self.field, v))
        return basis

    def column_space_basis(self) -> "Matrix":
        """Canonical basis of the column space, returned as matrix columns."""
        rows, pivots, _ = self.transpose()._echelon()
        basis = rows[: len(pivots)]
        return Matrix(self.field, (tuple(v[i] for v in basis) for i in range(self.nrows)))

    def to_json(self):
        enc = self.field.encode_scalar
        return [[enc(a) for a in row] for row in self.rows]

    def __repr__(self):
        return "Matrix([" + ",\n        ".join(str(list(r)) for r in self.rows) + "])"


def _products(field: Field, left, right):
    """Rows of dot products of each left row with each right column, one
    exact integer dot product per entry."""
    a_rows, da = field.to_ints(left)
    b_cols, db = field.to_ints(right)
    return [field.from_ints([sum(map(mul, a, b)) for b in b_cols], da * db) for a in a_rows]


def outer(u: Vector, v: Vector) -> Matrix:
    """The rank-one matrix u v^T, one integer product per entry."""
    return Matrix(u.field, _products(u.field, [[a] for a in u], [[b] for b in v]))


def trace_of_product(X: Matrix, Y: Matrix):
    """tr(XY) for n x m X and m x n Y as one exact integer dot product, O(nm)."""
    flat = lambda rows: [[x for row in rows for x in row]]
    return _products(X.field, flat(X.rows), flat(zip(*Y.rows)))[0][0]


def rank_one_factors(mats):
    """(W, U) with mats[i] == w_i u_i^T, w_i (column i of W) the first nonzero
    column of mats[i] and u_i^T (row i of U) the row through its first nonzero
    entry, divided by that entry; None when some matrix is not of rank one."""
    cols, rows = [], []
    for M in mats:
        k, j = next(((k, j) for k, row in enumerate(M.rows) for j, x in enumerate(row) if x), (0, None))
        if j is None:
            return None
        w, u = M.column(j), Vector(M.field, M[k]).scale(M.field.invert(M[k][j]))
        if outer(w, u) != M:
            return None
        cols.append(w)
        rows.append(u)
    return Matrix.from_columns(mats[0].field, cols), Matrix(mats[0].field, rows)


def rank_one_sum(lefts, mid: Matrix, rights) -> Matrix:
    """sum_i lefts[i] mid rights[i] for a rank-one mid = w u^T, as one product:
    the columns lefts[i] w times the rows u^T rights[i]."""
    found = rank_one_factors([mid])
    if found is None:
        raise ValueError("the middle factor is not of rank one")
    (W, U), f = found, mid.field
    return Matrix.from_columns(f, [L * W.column(0) for L in lefts]) * Matrix(f, ((U * R)[0] for R in rights))


def bidiagonal(field: Field, diag, upper=None) -> Matrix:
    """Diagonal diag with upper on the superdiagonal, or ones on the
    subdiagonal when upper is None."""
    n = len(diag)
    rows = [[field.zero()] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = diag[i]
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
        out.append(Matrix(field, ((a * b for b in u) for a in w)))
    return out


# --- polynomial evaluation at a matrix ---


def root_product_family(M: Matrix, roots, start=None) -> list:
    """[p_0(M) X, ..., p_k(M) X] where p_i is the product of (x - r) over the
    first i roots and X is start (a Matrix or a Vector; the identity when None)."""
    out = [Matrix.identity(M.field, M.nrows) if start is None else start]
    for r in roots:  # M - r I: only the diagonal moves
        shifted = Matrix(M.field, (row[:i] + (row[i] - r,) + row[i + 1:] for i, row in enumerate(M.rows)))
        out.append(shifted * out[-1])
    return out


def eval_root_product(roots, M: Matrix) -> Matrix:
    """The product over r in roots of (M - r*I); the empty product is I."""
    return root_product_family(M, roots)[-1]


def lagrange_idempotent(M: Matrix, eigenvalues, i: int) -> Matrix:
    """The spectral projector prod_{j != i} (M - theta_j I) / (theta_i - theta_j).

    When M is multiplicity-free with the listed spectrum these satisfy
    E_i E_j = delta_ij E_i, sum E_i = I and M = sum theta_i E_i.
    """
    eigenvalues = list(eigenvalues)
    for a in range(len(eigenvalues)):
        for b in range(a + 1, len(eigenvalues)):
            if eigenvalues[a] == eigenvalues[b]:
                raise DuplicateEigenvalue(f"eigenvalues {a} and {b} coincide")
    out = Matrix.identity(M.field, M.nrows)
    ident = out
    for j, theta_j in enumerate(eigenvalues):
        if j == i:
            continue
        out = out * (M - ident.scale(theta_j))
        out = out.scale(M.field.invert(eigenvalues[i] - theta_j))
    return out


def is_irreducible_tridiagonal(M: Matrix) -> bool:
    """True iff M is tridiagonal with every sub- and superdiagonal entry nonzero."""
    n = M.nrows
    for i in range(n):
        for j in range(n):
            if abs(i - j) > 1 and M[i][j]:
                return False
    for i in range(1, n):
        if not M[i][i - 1] or not M[i - 1][i]:
            return False
    return True


def transition_matrix(from_basis, to_basis) -> Matrix:
    """Columns express from_basis vectors in to_basis coordinates.

    Raises SingularMatrix when either vector list is not a basis.
    """
    from_basis = list(from_basis)
    to_basis = list(to_basis)
    field = to_basis[0].field
    from_mat = Matrix.from_columns(field, from_basis)
    to_mat = Matrix.from_columns(field, to_basis)
    if not (from_mat.is_square and to_mat.is_square):
        raise SingularMatrix("basis lists must be square")
    from_mat.inverse()  # existence check for the source list
    return to_mat.solve(from_mat)


def intersect_column_spaces(A: Matrix, B: Matrix) -> Matrix:
    """Canonical basis (as columns) of col(A) ∩ col(B)."""
    field = A.field
    stacked = Matrix(field, (ra + tuple(-b for b in rb) for ra, rb in zip(A.rows, B.rows)))
    kernel = stacked.nullspace()
    X = Matrix(field, (tuple(v[j] for v in kernel) for j in range(A.ncols)))
    return (A * X).column_space_basis()


def same_column_space(A: Matrix, B: Matrix) -> bool:
    """Subspace equality via ranks of the stacked generators."""
    ra, rb = A.rank(), B.rank()
    if ra != rb:
        return False
    joined = Matrix(A.field, (x + y for x, y in zip(A.rows, B.rows)))
    return joined.rank() == ra
