"""Exact dense linear algebra over prime fields F_p, 2 <= p <= 97.

Matrices wrap numpy int64 arrays with entries reduced mod p.  Every product
of two entries fits comfortably in int64, so all arithmetic is exact.
Elimination always picks the first nonzero pivot, making every routine
deterministic.  No sparse formats, no extension fields.
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
        return tuple(tuple(int(x) for x in row) for row in self.a)

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


def _rref_array(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    m = a % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        # first nonzero entry below/at row r is the pivot
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        col = m[:, c].copy()
        col[r] = 0
        m = (m - np.outer(col, m[r])) % p
        pivots.append(c)
        r += 1
    return m, tuple(pivots)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    red, piv = _rref_array(np.array(m.a, dtype=np.int64), m.field.p)
    return Matrix(m.field, red), piv


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Matrix) -> list[np.ndarray]:
    """Basis of the right null space {x : m x = 0}, deterministic order.

    Each basis vector has a 1 in one free column and the pivot rows filled
    by back-substitution; vectors come out in increasing free-column order.
    """
    red, piv = rref(m)
    p = m.field.p
    free = [c for c in range(m.cols) if c not in piv]
    basis = []
    for fc in free:
        v = np.zeros(m.cols, dtype=np.int64)
        v[fc] = 1
        for r, pc in enumerate(piv):
            v[pc] = (-int(red.a[r, fc])) % p
        basis.append(v)
    return basis


def solve(m: Matrix, b: np.ndarray) -> np.ndarray | None:
    """One solution x of m x = b, or None if the system is inconsistent."""
    b = np.asarray(b, dtype=np.int64).reshape(-1) % m.field.p
    if b.shape[0] != m.rows:
        raise ValueError("right-hand side length mismatch")
    aug = np.concatenate([m.a, b.reshape(-1, 1)], axis=1)
    red, piv = _rref_array(aug, m.field.p)
    if m.cols in piv:
        return None
    x = np.zeros(m.cols, dtype=np.int64)
    for r, pc in enumerate(piv):
        x[pc] = red[r, m.cols]
    return x % m.field.p


def solve_matrix(m: Matrix, b: Matrix) -> Matrix | None:
    """One solution X of m X = b (columnwise), or None if inconsistent."""
    if b.rows != m.rows:
        raise ValueError("shape mismatch in solve_matrix")
    aug = np.concatenate([m.a, b.a], axis=1)
    red, piv = _rref_array(aug, m.field.p)
    if any(pc >= m.cols for pc in piv):
        return None
    x = np.zeros((m.cols, b.cols), dtype=np.int64)
    for r, pc in enumerate(piv):
        x[pc, :] = red[r, m.cols:]
    return Matrix(m.field, x)


def block2x2(field: Field, tl: Matrix, tr: Matrix, bl: Matrix, br: Matrix) -> Matrix:
    top = np.concatenate([tl.a, tr.a], axis=1)
    bot = np.concatenate([bl.a, br.a], axis=1)
    return Matrix(field, np.concatenate([top, bot], axis=0))
