"""Dense exact linear algebra over a ground field.

Matrices and vectors are immutable values holding one canonical integer form,
which all arithmetic reads: integer rows `nums` over one denominator `den` > 0
with gcd(den, nums) = 1 over Q, residues in [0, p) with den = 1 over GF(p).
Each result is made canonical in one pass, the gcd pass over Q and `% p` over
GF(p), where a product reduces each dot product as it forms it; a step
M Y - r Y of `root_product_family` is one integer pass, then that pass.  A
transpose, `beside`, `from_columns`, `identity`, `zeros`, and a slice (`row`,
`column`, `submatrix`) with den = 1 make rows canonical by construction and
run no pass; with den > 1 a slice may drop the entries that kept
gcd(den, nums) = 1, so it keeps the pass.  Equality compares forms.  Field
elements are read in by `_to_ints` and made by `Field.fraction` only for
indexing and scalars; JSON is read off the integer form.  Every entry, both
operands of an operation and every scalar must lie in one field (ValueError
otherwise).  Gauss-Jordan elimination is fraction-free with first-nonzero
pivoting (GF(p) has no magnitude order); `unpivoted_column_reduction` runs the
same update on columns without pivoting, and `flag_decomposition` decomposes a
pair of flags with it.  The split form's eigenbasis (W, U) comes from
`bidiagonal_eigenbasis` as triangular integer vectors, without any dense
idempotent E_i = w_i u_i^T.  Indexing is 0-based.
"""

from __future__ import annotations

from itertools import accumulate, chain
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

    __slots__ = ("field", "nums", "den", "_elements", "_hash")

    def __init__(self, field: Field, rows):
        rows = [tuple(row) for row in rows]
        if len({len(row) for row in rows}) > 1:
            raise ValueError("rows of unequal length")
        nums, self.den = _to_ints(field, rows)
        self.field, self.nums, self._elements, self._hash = field, tuple(map(tuple, nums)), None, None

    @classmethod
    def _of(cls, field: Field, rows, den: int = 1):
        """The object rows / den in canonical form, for a list or tuple of integer rows and den != 0."""
        if not field.is_rational:
            p, s = field.p, (pow(den, -1, field.p) if den != 1 else 1)
            return cls._canonical(field, tuple([tuple([a * s % p for a in row]) for row in rows]))
        g = gcd(den, *chain.from_iterable(rows)) * (-1 if den < 0 else 1)
        nums = tuple([tuple([a // g for a in row]) for row in rows]) if g != 1 else tuple(map(tuple, rows))
        return cls._canonical(field, nums, den // g)

    @classmethod
    def _canonical(cls, field: Field, nums, den: int = 1):
        """The object nums / den for a tuple of integer row tuples already in canonical form: no pass."""
        out = object.__new__(cls)
        out.field, out.nums, out.den, out._elements, out._hash = field, nums, den, None, None
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
        """hash((nums, den)), computed on first use: memo keys and the dicts of the suites hash one object often."""
        if self._hash is None:
            self._hash = hash((self.nums, self.den))
        return self._hash

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

    def to_json(self):
        """The rows for JSON, read off the integer form: residues over GF(p), "n/d" in lowest terms over Q."""
        if not self.field.is_rational:
            return [list(row) for row in self.nums]
        return [[f"{a // g}/{self.den // g}" for a in row for g in (gcd(a, self.den),)] for row in self.nums]


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

    def is_colinear(self, other) -> bool:
        """True iff self and other are nonzero multiples of each other: one field and length, and for i the first
        nonzero index of self, v_i != 0 and u_k v_i = v_k u_i (mod p over GF(p)) on the stored integers, every k."""
        i = self.first_nonzero_index()
        if i is None or type(other) is not Vector or (other.field, len(other)) != (self.field, len(self)):
            return False
        (u,), (v,) = self.nums, other.nums
        cross = (a * v[i] - b * u[i] for a, b in zip(u, v))
        return bool(v[i]) and not any(cross if self.field.is_rational else (x % self.field.p for x in cross))

    def normalized(self) -> "Vector":
        """Scale so the first nonzero coordinate equals 1."""
        i = self.first_nonzero_index()
        if i is None:
            raise ValueError("cannot normalize the zero vector")
        return Vector._of(self.field, self.nums, self.nums[0][i])

    def to_json(self):
        return _Exact.to_json(self)[0]

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
        return cls._canonical(field, tuple([tuple([int(i == j) for j in range(n)]) for i in range(n)]))

    @classmethod
    def zeros(cls, field: Field, n: int, m: int | None = None) -> "Matrix":
        return cls._canonical(field, ((0,) * (n if m is None else m),) * n)

    @classmethod
    def from_columns(cls, field: Field, columns) -> "Matrix":
        cols = list(columns)
        if any(c.field is not field and c.field != field for c in cols):
            raise ValueError(f"columns over a field other than {field}")
        den = lcm(*(c.den for c in cols))
        return cls._canonical(field, tuple(zip(*([a * (den // c.den) for a in c.nums[0]] for c in cols))), den)

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

    def _slice(self, cls, nums):
        """nums, integer rows cut from self, as a cls: no pass when den = 1, else the gcd pass."""
        return cls._canonical(self.field, nums) if self.den == 1 else cls._of(self.field, nums, self.den)

    def column(self, j: int) -> Vector:
        return self._slice(Vector, (tuple([row[j] for row in self.nums]),))

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def row(self, i: int) -> Vector:
        return self._slice(Vector, (self.nums[i],))

    def submatrix(self, rows=slice(None), cols=slice(None)) -> "Matrix":
        """The block on the given row and column slices."""
        return self._slice(Matrix, tuple([row[cols] for row in self.nums[rows]]))

    def beside(self, other: "Matrix") -> "Matrix":
        """[self | other]: the columns of self, then those of other."""
        _check_operands(self, other, self.nrows == other.nrows)
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        rows = tuple([tuple([a * sa for a in r] + [b * sb for b in s]) for r, s in zip(self.nums, other.nums)])
        return Matrix._canonical(self.field, rows, den)

    # --- arithmetic ---

    def __rmul__(self, c):
        return self.scale(c)

    def __mul__(self, other):
        if not isinstance(other, _Exact):
            return self.scale(other)
        vec = isinstance(other, Vector)  # a Vector's one row is the one column to multiply
        _check_operands(self, other, self.ncols == (len(other) if vec else other.nrows))
        cols = other.nums if vec else list(zip(*other.nums))
        if not self.field.is_rational:  # each dot product reduced here is canonical as it stands
            p = self.field.p
            rows = tuple([tuple([sum(map(mul, a, b)) % p for b in cols]) for a in self.nums])
            return type(other)._canonical(self.field, tuple(zip(*rows)) if vec else rows)
        rows = [[sum(map(mul, a, b)) for b in cols] for a in self.nums]
        return type(other)._of(self.field, list(zip(*rows)) if vec else rows, self.den * other.den)

    def scale_columns(self, c) -> "Matrix":
        """self diag(c): column j times c[j], in one integer pass."""
        (cs,), den = _to_ints(self.field, [c])
        return Matrix._of(self.field, [[a * x for a, x in zip(row, cs)] for row in self.nums], self.den * den)

    def transpose(self) -> "Matrix":
        return Matrix._canonical(self.field, tuple(zip(*self.nums)), self.den)

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


def flag_decomposition(C: Matrix, G: Matrix):
    """x_0..x_d with x_i spanning F_i ∩ G_{d-i}, for the flags with ordered bases F
    and G (component i: the first i+1 columns) and C = F^-1 G, when they are opposite, else None.

    They are opposite exactly when C' (C with its rows reversed) has an LU
    factorisation without pivoting.  The column operations C' V = L (V upper
    triangular), done on the columns of G as well, leave x_i = G V[:, d-i]
    (`unpivoted_column_reduction`; each x_i up to a nonzero scalar)."""
    cols = unpivoted_column_reduction(C.submatrix(slice(None, None, -1)), G)
    return None if cols is None else tuple(reversed(cols))


def outer(u: Vector, v: Vector) -> Matrix:
    """The rank-one matrix u v^T, one integer product per entry."""
    _check_operands(u, v)
    return Matrix._of(u.field, [[a * b for b in v.nums[0]] for a in u.nums[0]], u.den * v.den)


def rank_one_factors(mats):
    """(W, U) with mats[i] == w_i u_i^T, w_i (column i of W) the first nonzero column of mats[i] and u_i^T
    (row i of U) the row k through its first nonzero entry pv = row_k[j], divided by pv; None when some matrix
    is not of rank one, decided on the integer rows: row_r pv = row_r[j] row_k (mod p over GF(p)) for every r."""
    field, heads = mats[0].field, []
    for M in mats:
        _check_operands(M, mats[0])
        k, j = next(((k, j) for k, row in enumerate(M.nums) for j, x in enumerate(row) if x), (0, None))
        if j is None:
            return None
        top, pv = M.nums[k], M.nums[k][j]
        cross = (a * pv - row[j] * b for row in M.nums for a, b in zip(row, top))
        if any(cross if field.is_rational else (x % field.p for x in cross)):
            return None
        heads.append((M, k, j))
    pvs = [M.nums[k][j] for M, k, j in heads]
    wden, uden = lcm(*(M.den for M, _, _ in heads)), lcm(*pvs)
    W = [[M.nums[r][j] * (wden // M.den) for M, _, j in heads] for r in range(heads[0][0].nrows)]
    U = [[b * (uden // pv) for b in M.nums[k]] for (M, k, _), pv in zip(heads, pvs)]
    return Matrix._of(field, W, wden), Matrix._of(field, U, uden)


def bidiagonal(field: Field, diag, upper=None) -> Matrix:
    """Diagonal diag with upper on the superdiagonal, or ones on the
    subdiagonal when upper is None."""
    n, k = len(diag), (1 if upper is None else -1)  # c_i sits at (i + 1, i) below the diagonal, (i, i + 1) above
    (t, c), den = _to_ints(field, [diag, [field.one()] * (n - 1) if upper is None else upper])
    return Matrix._of(field, [[t[i] if i == j else c[min(i, j)] if i - j == k else 0 for j in range(n)]
                              for i in range(n)], den)


def bidiagonal_eigenbasis(field: Field, diag, upper=None) -> tuple:
    """(W, U): the eigenbasis of bidiagonal(field, diag, upper), whose primitive idempotents are E_i = w_i u_i^T for
    w_i column i of W and u_i^T row i of U, in the normalization `rank_one_factors(E)` gives; no E_i is formed.

    w_i and u_i^T are the right and left diag[i]-eigenvectors, triangular; the eigenvalue equations are two-term
    recurrences in c_h / (t_i - t_h), where the one denominator of the integers t and c cancels: entry k of the
    vector below the diagonal is c_i..c_{k-1} prod_{h>k} g_h / prod_{h>i} g_h (g_h = t_i - t_h), of the one above
    it c_k..c_{i-1} prod_{h<k} g_h / prod_{h<i} g_h.  For these integer lists w and u, E_i = w u^T / (w[i] u[i])
    (equal to lagrange_idempotent(bidiagonal(...), diag, i)), so with j the first nonzero entry of u, w_i (column j
    of E_i) is w u[j] / (w[i] u[i]) and u_i^T is u / u[j]: one canonical pass per vector.
    """
    n = len(diag)
    if len(set(diag)) != n:
        raise DuplicateEigenvalue("diagonal entries must be mutually distinct")
    (t, c), _ = _to_ints(field, [diag, [field.one()] * (n - 1) if upper is None else upper])
    ws, us = [], []
    for i, ti in enumerate(t):
        g = [ti - th for th in t]
        pre = list(accumulate(g[:i], mul, initial=1))  # pre[k] = prod_{h < k} g_h, k <= i
        suf = list(accumulate(reversed(g[i + 1:]), mul, initial=1))[::-1]  # suf[k - i] = prod_{h > k} g_h, k >= i
        below = [0] * i + list(map(mul, accumulate(c[i:], mul, initial=1), suf))
        above = list(map(mul, list(accumulate(reversed(c[:i]), mul, initial=1))[::-1], pre)) + [0] * (n - 1 - i)
        w, u = (below, above) if upper is None else (above, below)
        pv = next(a for a in u if a)
        ws.append(Vector._of(field, [[a * pv for a in w]], w[i] * u[i]))
        us.append(Vector._of(field, [u], pv))
    return Matrix.from_columns(field, ws), Matrix.from_columns(field, us).transpose()


# --- polynomial evaluation at a matrix ---


def root_product_family(M: Matrix, roots, start=None) -> list:
    """[p_0(M) X, ..., p_k(M) X], where p_i is the product of (x - r) over the first i roots and X is
    start (a Matrix or a Vector; the identity when None).  A step M Y - r Y is the one integer pass
    (rd Mn Yn - rn Md Yn) / (Md Yd rd), for M = Mn / Md, Y = Yn / Yd and r = rn / rd, then one canonical pass."""
    Y = Matrix.identity(M.field, M.nrows) if start is None else start
    vec = isinstance(Y, Vector)  # a Vector's one row is the one column to multiply
    _check_operands(M, Y, M.is_square and M.ncols == (len(Y) if vec else Y.nrows))
    out = [Y]
    for [[rn]], rd in (_to_ints(M.field, [[r]]) for r in roots):
        c, (cols, ys) = rn * M.den, (Y.nums, list(zip(*Y.nums))) if vec else (list(zip(*Y.nums)), Y.nums)
        rows = [[rd * sum(map(mul, a, b)) - c * y for b, y in zip(cols, yr)] for a, yr in zip(M.nums, ys)]
        out.append(Y := type(Y)._of(M.field, list(zip(*rows)) if vec else rows, M.den * Y.den * rd))
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
