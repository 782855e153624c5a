"""Dense exact linear algebra over a ground field.

Matrices and vectors are immutable value types; every operation returns a
new object.  Elimination uses first-nonzero pivoting (GF(p) has no magnitude
order) and exact division, so results are exact over both field kinds.
Indexing is 0-based on rows and columns 0..d.
"""

from __future__ import annotations

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
        total = self.field.zero()
        for a, b in zip(self.entries, other.entries):
            total = total + a * b
        return total

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
            cols = list(zip(*other.rows))
            zero = self.field.zero()
            out = []
            for row in self.rows:
                out_row = []
                for col in cols:
                    total = zero
                    for a, b in zip(row, col):
                        total = total + a * b
                    out_row.append(total)
                out.append(out_row)
            return Matrix(self.field, out)
        if isinstance(other, Vector):
            zero = self.field.zero()
            out = []
            for row in self.rows:
                total = zero
                for a, b in zip(row, other.entries):
                    total = total + a * b
                out.append(total)
            return Vector(self.field, out)
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
        """Row-reduce (Gauss-Jordan, first-nonzero pivot).

        Returns (reduced rows, pivot column list, reduced augment rows).
        """
        rows = [list(r) for r in self.rows]
        aug = [list(r) for r in augment] if augment is not None else None
        n, m = len(rows), self.ncols
        pivots = []
        r = 0
        for c in range(m):
            pivot_row = None
            for i in range(r, n):
                if rows[i][c]:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            if aug is not None:
                aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
            inv = self.field.invert(rows[r][c])
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
        return Matrix.from_columns(self.field, (Vector(self.field, rows[i]) for i in range(len(pivots))))

    def to_json(self):
        enc = self.field.encode_scalar
        return [[enc(a) for a in row] for row in self.rows]

    @classmethod
    def from_json(cls, field: Field, obj) -> "Matrix":
        dec = field.decode_scalar
        return cls(field, ((dec(a) for a in row) for row in obj))

    def __repr__(self):
        return "Matrix([" + ",\n        ".join(str(list(r)) for r in self.rows) + "])"


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


# --- polynomial evaluation at a matrix ---


def root_product_family(M: Matrix, roots) -> list:
    """[p_0(M), ..., p_k(M)] where p_i is the product of (x - r) over the first i roots."""
    out = [Matrix.identity(M.field, M.nrows)]
    ident = out[0]
    for r in roots:
        out.append(out[-1] * (M - ident.scale(r)))
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
    if A.ncols == 0 or B.ncols == 0:
        return Matrix(field, tuple(() for _ in range(A.nrows)))
    stacked = Matrix(field, (ra + tuple(-b for b in rb) for ra, rb in zip(A.rows, B.rows)))
    vectors = []
    for v in stacked.nullspace():
        x = Vector(field, v.entries[: A.ncols])
        vectors.append(A * x)
    if not vectors:
        return Matrix(field, tuple(() for _ in range(A.nrows)))
    return Matrix.from_columns(field, vectors).column_space_basis()


def same_column_space(A: Matrix, B: Matrix) -> bool:
    """Subspace equality via ranks of the stacked generators."""
    ra, rb = A.rank(), B.rank()
    if ra != rb:
        return False
    joined = Matrix(A.field, (x + y for x, y in zip(A.rows, B.rows)))
    return joined.rank() == ra
