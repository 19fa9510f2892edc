"""Exact dense linear algebra over prime fields F_p, 2 <= p <= 97.

`Matrix` is the boundary type: an immutable value holding its field, its
stored shape (so 0 x c and r x 0 keep theirs) and a tuple of row tuples of
Python ints in [0, p).  Everything runs on plain ints: the matrices here
have a handful of rows, where a Python loop costs less than converting to
an array library and back.  Every routine that row-reduces (rref, rank,
kernel_basis, solve, solve_matrix) goes through one Gauss-Jordan
elimination on int rows, `_rref_rows`, which the quiver layer also calls
on its own constraint rows.  The reduced row echelon form is unique, so
every result is deterministic.  No sparse formats, no extension fields.
"""

from __future__ import annotations

from operator import add, sub

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
    """Immutable matrix over a Field: its shape and a tuple of row tuples of
    ints in [0, p).  `data` holds the rows (any ints, reduced mod p); `cols`
    is needed only when there are no rows to read the width off."""

    __slots__ = ("field", "rows", "cols", "_e")

    def __init__(self, field: Field, data, cols: int | None = None):
        p = field.p
        e = tuple([tuple([x % p for x in row]) for row in data])
        if cols is None:
            cols = len(e[0]) if e else 0
        if any(len(row) != cols for row in e):
            raise ValueError(f"matrix rows must all have {cols} entries")
        self.field = field
        self.rows = len(e)
        self.cols = cols
        self._e = e

    @classmethod
    def _of_reduced(cls, field: Field, rows, cols: int) -> "Matrix":
        """The cols-wide Matrix on rows whose entries are already ints in
        [0, p), e.g. entries gathered from other Matrix values: the entries
        are not reduced again, only the widths are checked.  Row tuples are
        kept as they are."""
        e = tuple(map(tuple, rows))
        for row in e:
            if len(row) != cols:
                raise ValueError(f"matrix rows must all have {cols} entries")
        m = object.__new__(cls)
        m.field = field
        m.rows = len(e)
        m.cols = cols
        m._e = e
        return m

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, [(0,) * cols] * rows, cols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, [[int(i == j) for j in range(n)] for i in range(n)], n)

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    def entries(self) -> tuple:
        """Tuple of row tuples; canonical encoding for hashing/files."""
        return self._e

    def _zip(self, other: "Matrix", op) -> "Matrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return Matrix(self.field, [list(map(op, r, s)) for r, s in zip(self._e, other._e)], self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        return Matrix(self.field, _mul(self._e, other._e, other.cols), other.cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._zip(other, add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._zip(other, sub)

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, [[-x for x in r] for r in self._e], self.cols)

    def is_zero(self) -> bool:
        return not any(map(any, self._e))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.cols == other.cols
            and self._e == other._e
        )

    def __hash__(self):
        return hash((self.field.p, self.rows, self.cols, self._e))

    def __repr__(self):
        return f"Matrix(F{self.field.p}, {list(map(list, self._e))})"


def _columns(rows, ncols: int) -> list[tuple]:
    """The ncols columns of the matrix with these rows, as tuples (ncols
    empty ones when there are no rows)."""
    return list(zip(*rows)) or [()] * ncols


def _mul(a, b, ncols: int) -> list[list[int]]:
    """Rows of the product of the row sequences a and b (b ncols wide),
    entries not reduced.  Each row of the product adds up the rows of b
    that the row of a picks, so zero entries cost one test each."""
    out = []
    for r in a:
        acc = [0] * ncols
        for x, row in zip(r, b):
            if x:
                acc = [u + x * v for u, v in zip(acc, row)]
        out.append(acc)
    return out


def _rref_rows(rows: list, ncols: int, p: int) -> tuple[int, ...]:
    """Bring `rows`, a list of rows of ncols ints in [0, p), to reduced row
    echelon form in place; return the pivot columns.  The list is changed,
    the rows never are (they may be tuples): a changed row is a new list.

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


def _solve_rows(a, b, acols: int, bcols: int, p: int):
    """One solution X (acols rows of bcols ints) of a X = b over F_p, or
    None if the system is inconsistent; a and b are row sequences with
    entries in [0, p), acols and bcols wide."""
    aug = [[*ra, *rb] for ra, rb in zip(a, b)]
    piv = _rref_rows(aug, acols + bcols, p)
    if piv and piv[-1] >= acols:
        return None
    x = [[0] * bcols for _ in range(acols)]
    for r, pc in enumerate(piv):
        x[pc] = aug[r][acols:]
    return x


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    rows = list(m._e)
    piv = _rref_rows(rows, m.cols, m.field.p)
    return Matrix(m.field, rows, m.cols), piv


def rank(m: Matrix) -> int:
    return len(_rref_rows(list(m._e), m.cols, m.field.p))


def kernel_basis(m: Matrix) -> list[list[int]]:
    """Basis of the right null space {x : m x = 0} as int lists,
    deterministic order: the vectors _kernel_rows reads off the reduced
    form."""
    p = m.field.p
    rows = list(m._e)
    piv = _rref_rows(rows, m.cols, p)
    return _kernel_rows(rows, piv, m.cols, p)


def solve(m: Matrix, b) -> list[int] | None:
    """One solution x (an int list) of m x = b, or None if the system is
    inconsistent; b is a sequence of m.rows ints."""
    p = m.field.p
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    x = _solve_rows(m._e, [(y % p,) for y in b], m.cols, 1, p)
    return None if x is None else [r[0] for r in x]


def solve_matrix(m: Matrix, b: Matrix) -> Matrix | None:
    """One solution X of m X = b (columnwise), or None if inconsistent."""
    if b.rows != m.rows:
        raise ValueError("shape mismatch in solve_matrix")
    x = _solve_rows(m._e, b._e, m.cols, b.cols, m.field.p)
    return None if x is None else Matrix(m.field, x, b.cols)


def block2x2(field: Field, tl: Matrix, tr: Matrix, bl: Matrix, br: Matrix) -> Matrix:
    rows = [r + s for r, s in zip(tl._e, tr._e)] + [r + s for r, s in zip(bl._e, br._e)]
    return Matrix(field, rows, tl.cols + tr.cols)
