"""Exact dense linear algebra over prime fields F_p, 2 <= p <= 97.

`Matrix` is the boundary type: an immutable numpy int64 array with entries
reduced mod p, so every product of two entries fits in int64 and all
arithmetic is exact.  Elimination runs on Python int rows instead
(`_rref_rows`, Gauss-Jordan in place), because the systems here are tiny
and numpy's per-call overhead would cost more than the arithmetic.  Every
routine that row-reduces (rref, rank, kernel_basis, solve, solve_matrix)
goes through that one elimination; the quiver layer calls it on its own
constraint rows.  The reduced row echelon form is unique, so every result
is deterministic.  No sparse formats, no extension fields.
"""

from __future__ import annotations

import numpy as np

_SMALL_PRIMES = {
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
    47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
}


class Field:
    """Prime field F_p.  Only primes between 2 and 97 are accepted."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p not in _SMALL_PRIMES:
            raise ValueError(f"field order must be a prime in [2, 97], got {p!r}")
        self.p = p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return f"Field({self.p})"


class Matrix:
    """Immutable matrix over a Field; data stored row-major mod p."""

    __slots__ = ("field", "a")

    def __init__(self, field: Field, data):
        a = np.asarray(data, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError(f"matrix data must be 2-dimensional, got shape {a.shape}")
        a = np.mod(a, field.p)
        a.setflags(write=False)
        self.field = field
        self.a = a

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def entries(self) -> tuple:
        """Tuple of row tuples; canonical encoding for hashing/files."""
        return tuple(map(tuple, self.a.tolist()))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.a.shape} @ {other.a.shape}")
        return Matrix(self.field, (self.a @ other.a) % self.field.p)

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix(self.field, self.a + other.a)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix(self.field, self.a - other.a)

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, -self.a)

    def is_zero(self) -> bool:
        return not self.a.any()

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.a.shape == other.a.shape
            and np.array_equal(self.a, other.a)
        )

    def __hash__(self):
        return hash((self.field.p, self.a.shape, self.a.tobytes()))

    def __repr__(self):
        return f"Matrix(F{self.field.p}, {self.a.tolist()})"


def _matrix_of_rows(field: Field, rows, r: int, c: int) -> Matrix:
    """The r x c Matrix whose entries() are `rows` (a list may be empty)."""
    return Matrix(field, np.array(rows, dtype=np.int64).reshape(r, c))


def _rref_rows(rows: list[list[int]], ncols: int, p: int) -> tuple[int, ...]:
    """Bring `rows`, lists of ncols ints in [0, p), to reduced row echelon
    form in place; return the pivot columns.

    Gauss-Jordan elimination: in each column the first row at or below the
    current one with a nonzero entry is swapped up, scaled to a leading 1
    and cleared from every other row.  The reduced form of a matrix is
    unique, so the choice of pivot row does not change the result.
    """
    n = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == n:
            break
        for i in range(r, n):
            if rows[i][c]:
                break
        else:
            continue
        row = rows[i]
        if i != r:
            rows[i] = rows[r]
        v = row[c]
        if v != 1:
            inv = pow(v, p - 2, p)
            row = [x * inv % p for x in row]
        rows[r] = row
        for j in range(n):
            if j != r:
                f = rows[j][c]
                if f:
                    rows[j] = [(x - f * y) % p for x, y in zip(rows[j], row)]
        pivots.append(c)
        r += 1
    return tuple(pivots)


def _kernel_rows(red: list[list[int]], piv: tuple[int, ...], ncols: int, p: int) -> list[list[int]]:
    """Basis of the null space of a matrix, read off its reduced rows `red`.

    Each vector has a 1 in one free column and the pivot coordinates filled
    by back-substitution; vectors come out in increasing free-column order.
    """
    pivset = set(piv)
    basis = []
    for fc in range(ncols):
        if fc in pivset:
            continue
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(piv):
            x = red[r][fc]
            if x:
                v[pc] = p - x
        basis.append(v)
    return basis


def _solve_rows(a: list[list[int]], b: list[list[int]], acols: int, bcols: int, p: int):
    """One solution X (acols rows of bcols ints) of a X = b over F_p, or
    None if the system is inconsistent; a and b are rows with entries in
    [0, p), acols and bcols wide."""
    aug = [ra + rb for ra, rb in zip(a, b)]
    piv = _rref_rows(aug, acols + bcols, p)
    if piv and piv[-1] >= acols:
        return None
    x = [[0] * bcols for _ in range(acols)]
    for r, pc in enumerate(piv):
        x[pc] = aug[r][acols:]
    return x


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    rows = m.a.tolist()
    piv = _rref_rows(rows, m.cols, m.field.p)
    return _matrix_of_rows(m.field, rows, m.rows, m.cols), piv


def rank(m: Matrix) -> int:
    return len(_rref_rows(m.a.tolist(), m.cols, m.field.p))


def kernel_basis(m: Matrix) -> list[np.ndarray]:
    """Basis of the right null space {x : m x = 0}, deterministic order:
    the vectors _kernel_rows reads off the reduced form."""
    p = m.field.p
    rows = m.a.tolist()
    piv = _rref_rows(rows, m.cols, p)
    return [np.array(v, dtype=np.int64) for v in _kernel_rows(rows, piv, m.cols, p)]


def solve(m: Matrix, b: np.ndarray) -> np.ndarray | None:
    """One solution x of m x = b, or None if the system is inconsistent."""
    b = np.asarray(b, dtype=np.int64).reshape(-1) % m.field.p
    if b.shape[0] != m.rows:
        raise ValueError("right-hand side length mismatch")
    x = _solve_rows(m.a.tolist(), [[y] for y in b.tolist()], m.cols, 1, m.field.p)
    return None if x is None else np.array(x, dtype=np.int64).reshape(m.cols)


def solve_matrix(m: Matrix, b: Matrix) -> Matrix | None:
    """One solution X of m X = b (columnwise), or None if inconsistent."""
    if b.rows != m.rows:
        raise ValueError("shape mismatch in solve_matrix")
    x = _solve_rows(m.a.tolist(), b.a.tolist(), m.cols, b.cols, m.field.p)
    return None if x is None else _matrix_of_rows(m.field, x, m.cols, b.cols)


def block2x2(field: Field, tl: Matrix, tr: Matrix, bl: Matrix, br: Matrix) -> Matrix:
    top = np.concatenate([tl.a, tr.a], axis=1)
    bot = np.concatenate([bl.a, br.a], axis=1)
    return Matrix(field, np.concatenate([top, bot], axis=0))
