"""Exact F_p linear algebra, checked against brute-force enumeration and
against the numpy elimination it replaced."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallforge.linalg import (
    Field,
    Matrix,
    block2x2,
    kernel_basis,
    rank,
    rref,
    solve,
    solve_matrix,
)


def mat(p, rows):
    return Matrix(Field(p), rows)


def arr(m):
    """A Matrix's entries as an int64 array of its shape."""
    return np.array(m.entries(), dtype=np.int64).reshape(m.shape)


def from_arr(field, a):
    """The Matrix of a 2-d integer array, its shape kept."""
    return Matrix(field, a.tolist(), a.shape[1])


def test_field_validates_prime():
    Field(2), Field(97)
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(1)


def test_field_inverse():
    f = Field(7)
    for a in range(1, 7):
        assert (a * f.inv(a)) % 7 == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_rref_frozen_example():
    # over F_3 the second row is 2x the first, so rank 1
    m = mat(3, [[1, 2], [2, 1]])
    red, piv = rref(m)
    assert red.entries() == ((1, 2), (0, 0))
    assert piv == (0,)
    assert rank(m) == 1


def test_entries_are_row_tuples():
    m = mat(5, [[1, 2, 3], [4, 0, 1]])
    assert m.entries() == ((1, 2, 3), (4, 0, 1))


def test_kernel_frozen_example():
    # kernel of [[1,1],[1,1]] over F_2: checked against all 4 vectors
    m = mat(2, [[1, 1], [1, 1]])
    ker = kernel_basis(m)
    assert len(ker) == 1
    assert tuple(ker[0]) == (1, 1)
    members = [
        v
        for v in itertools.product(range(2), repeat=2)
        if tuple(np.dot(arr(m), v) % 2) == (0, 0)
    ]
    assert members == [(0, 0), (1, 1)]


def test_solve_frozen_example():
    m = mat(2, [[1, 1]])
    x = solve(m, [1])
    assert x is not None and tuple(np.dot(arr(m), x) % 2) == (1,)
    # all solutions over F_2, by enumeration: (1,0) and (0,1)
    sols = [
        v
        for v in itertools.product(range(2), repeat=2)
        if tuple(np.dot(arr(m), v) % 2) == (1,)
    ]
    assert tuple(x) in sols


def test_solve_inconsistent():
    m = mat(2, [[1, 1], [1, 1]])
    assert solve(m, [1, 0]) is None


def test_solve_matrix_multi_rhs():
    m = mat(3, [[1, 0], [0, 1], [1, 1]])
    b = mat(3, [[1], [2], [0]])
    x = solve_matrix(m, b)
    assert x is not None
    assert (m @ x).entries() == b.entries()


def test_matrix_ops_mod_p():
    a = mat(5, [[2, 3], [4, 1]])
    b = mat(5, [[1, 1], [1, 1]])
    assert (a + b).entries() == ((3, 4), (0, 2))
    assert (a - b).entries() == ((1, 2), (3, 0))
    assert (a @ b).entries() == ((0, 0), (0, 0))


small_primes = st.sampled_from([2, 3, 5])
dims = st.integers(min_value=0, max_value=4)


@st.composite
def random_matrix(draw, p=None, rows=None, cols=None):
    p = p if p is not None else draw(small_primes)
    r = rows if rows is not None else draw(dims)
    c = cols if cols is not None else draw(dims)
    entries = draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
    return Matrix(Field(p), entries, c)


@given(random_matrix())
@settings(max_examples=120, deadline=None)
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@given(random_matrix())
@settings(max_examples=120, deadline=None)
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m):
        assert not np.any(np.dot(arr(m), v) % m.field.p)


@given(random_matrix(), st.data())
@settings(max_examples=100, deadline=None)
def test_solve_agrees_with_enumeration(m, data):
    p = m.field.p
    b = np.array(
        data.draw(st.lists(st.integers(0, p - 1), min_size=m.rows, max_size=m.rows)),
        dtype=np.int64,
    )
    x = solve(m, b.tolist())
    if x is not None:
        assert np.array_equal(np.dot(arr(m), np.array(x, dtype=np.int64)) % p, b % p)
    elif p**m.cols <= 625:
        for v in itertools.product(range(p), repeat=m.cols):
            assert not np.array_equal(
                np.dot(arr(m), np.array(v, dtype=np.int64)) % p, b % p
            )


@given(random_matrix())
@settings(max_examples=80, deadline=None)
def test_rref_is_row_equivalent_and_reduced(m):
    red, piv = rref(m)
    assert rank(red) == rank(m) == len(piv)
    a = arr(red)
    for k, c in enumerate(piv):
        row = k
        assert a[row, c] == 1
        assert not np.any(np.delete(a[:, c], row))
        if k:
            assert c > piv[k - 1]


# ---- the int-row elimination against the numpy one it replaced ----


def _rref_array(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The numpy per-column elimination linalg used before its int-row
    Gauss-Jordan; kept as the reference body."""
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


def _reference_kernel(a: np.ndarray, p: int) -> list[np.ndarray]:
    red, piv = _rref_array(a, p)
    basis = []
    for fc in [c for c in range(a.shape[1]) if c not in piv]:
        v = np.zeros(a.shape[1], dtype=np.int64)
        v[fc] = 1
        for r, pc in enumerate(piv):
            v[pc] = (-int(red[r, fc])) % p
        basis.append(v)
    return basis


def _reference_solve_matrix(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution X of a X = b, columnwise, or None if inconsistent."""
    n = a.shape[1]
    red, piv = _rref_array(np.concatenate([a, b], axis=1), p)
    if any(pc >= n for pc in piv):
        return None
    x = np.zeros((n, b.shape[1]), dtype=np.int64)
    for r, pc in enumerate(piv):
        x[pc, :] = red[r, n:]
    return x


@st.composite
def _system(draw):
    """(p, m, b, B): a matrix over F_p built from any ints, negative ones and
    ones >= p included, empty shapes included, with a right-hand side and a
    block of them; each is consistent or arbitrary."""
    p = draw(st.sampled_from([2, 3, 5, 97]))
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 30))
    entry = st.one_of(st.just(0), st.integers(-2 * p, 2 * p), st.integers(-(10**6), 10**6))
    a = np.array(
        draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)),
        dtype=np.int64,
    ).reshape(rows, cols)
    k = draw(st.integers(0, 4))
    if draw(st.booleans()):
        x = np.array(draw(st.lists(entry, min_size=cols * k, max_size=cols * k)), dtype=np.int64)
        rhs = a @ x.reshape(cols, k)
    else:
        rhs = np.array(draw(st.lists(entry, min_size=rows * k, max_size=rows * k)), dtype=np.int64)
    rhs = rhs.reshape(rows, k)
    return p, from_arr(Field(p), a), rhs


@given(_system())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_elimination_matches_numpy_reference(system):
    p, m, rhs = system
    ref, ref_piv = _rref_array(arr(m), p)
    red, piv = rref(m)
    assert piv == ref_piv
    assert red.entries() == from_arr(m.field, ref).entries()
    assert rank(m) == len(ref_piv)
    ker, ref_ker = kernel_basis(m), _reference_kernel(arr(m), p)
    assert len(ker) == len(ref_ker)
    for v, w in zip(ker, ref_ker):
        assert all(type(x) is int for x in v) and v == w.tolist()
    want = _reference_solve_matrix(arr(m), rhs % p, p)
    got = solve_matrix(m, from_arr(m.field, rhs))
    assert (got is None) == (want is None)
    if got is not None:
        assert got.entries() == from_arr(m.field, want).entries()
    for j in range(rhs.shape[1]):
        want = _reference_solve_matrix(arr(m), rhs[:, j:j + 1] % p, p)
        got = solve(m, rhs[:, j].tolist())
        assert (got is None) == (want is None)
        if got is not None:
            assert all(type(x) is int for x in got) and got == want[:, 0].tolist()


# ---- the boundary type against the numpy-backed Matrix it replaced ----


@st.composite
def _operands(draw):
    """(p, a, b, c): integer arrays, a and b of one shape (r, k) and c of
    shape (k, s), any of r, k, s possibly 0, entries of any sign and size
    (a Matrix reduces them mod p, as the numpy one did)."""
    p = draw(st.sampled_from([2, 3, 5, 97]))
    r, k, s = (draw(st.integers(0, 4)) for _ in range(3))
    entry = st.one_of(st.integers(0, p - 1), st.integers(-3 * p, 3 * p))

    def block(rows, cols):
        flat = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
        return np.array(flat, dtype=np.int64).reshape(rows, cols)

    return p, block(r, k), block(r, k), block(k, s)


@given(_operands())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_matrix_matches_numpy_reference(ops):
    p, a, b, c = ops
    f = Field(p)
    ma, mb, mc = (from_arr(f, x) for x in (a, b, c))

    def same(m, ref):
        assert m.field == f and m.shape == ref.shape
        assert m.entries() == tuple(map(tuple, (ref % p).tolist()))
        assert all(type(x) is int for row in m.entries() for x in row)

    same(ma, a)
    same(ma @ mc, a @ c)
    same(ma + mb, a + b)
    same(ma - mb, a - b)
    same(-ma, -a)
    same(block2x2(f, ma, ma @ mc, mb, mb @ mc),
         np.concatenate([np.concatenate([a, a @ c], axis=1), np.concatenate([b, b @ c], axis=1)]))
    same(Matrix.zeros(f, *a.shape), np.zeros(a.shape, dtype=np.int64))
    same(Matrix.identity(f, a.shape[0]), np.eye(a.shape[0], dtype=np.int64))
    assert ma.is_zero() == (not (a % p).any())
    assert (ma == mb) == np.array_equal(a % p, b % p)
    assert ma == from_arr(f, a % p + p) and hash(ma) == hash(from_arr(f, a % p + p))
    assert ma != from_arr(Field(7 if p != 7 else 5), a)
    # a 0 x k matrix has no rows at any k: the stored shape tells them apart
    assert Matrix.zeros(f, 0, a.shape[1]) != Matrix.zeros(f, 0, a.shape[1] + 1)
    assert Matrix.zeros(f, a.shape[0], 0).shape == (a.shape[0], 0)
    with pytest.raises(ValueError):
        ma @ from_arr(f, np.zeros((a.shape[1] + 1, 1), dtype=np.int64))
    with pytest.raises(ValueError):
        ma + from_arr(f, np.zeros((a.shape[0], a.shape[1] + 1), dtype=np.int64))
    ker, ref_ker = kernel_basis(ma), _reference_kernel(a % p, p)
    assert ker == [v.tolist() for v in ref_ker]
    for j in range(c.shape[1]):
        rhs = (a @ c[:, j:j + 1]) % p  # consistent: c's column solves it
        got, want = solve(ma, rhs[:, 0].tolist()), _reference_solve_matrix(a % p, rhs, p)
        assert want is not None and got == want[:, 0].tolist()
