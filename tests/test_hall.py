"""Hall products over both backends.

The structured computation (extension classes / hom cardinality) is
cross-checked against the classical filtration count: the coefficient of
[B] in [A][C] must equal g * |Aut A| * |Aut C| / |Aut B| where g counts
subrepresentations U of B with U iso C and B/U iso A.  The two routes share
no code.
"""

import copy
import functools
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallforge.complexes import (
    ComplexCategory,
    contractible_generators,
    direct_sum_cx,
    enumerate_complexes,
    is_minimal,
)
from hallforge.errors import EulerUndefined, SpecError
from hallforge.hall import (
    CxBackend,
    HallAlgebra,
    MemoryCache,
    RepBackend,
    SqrtExt,
    pair_key,
    verify_associativity,
)
from hallforge.linalg import Field, Matrix, rank
from hallforge.sdh import SDH
from hallforge.quiver import (
    Quiver,
    Rep,
    direct_sum,
    enumerate_reps,
    hom_basis,
    iso_test,
    proj_indec,
)


def arr(m):
    """A Matrix's entries as an int64 array of its shape."""
    return np.array(m.entries(), dtype=np.int64).reshape(m.shape)


def from_arr(field, a):
    """The Matrix of a 2-d integer array, its shape kept."""
    return Matrix(field, a.tolist(), a.shape[1])

F2 = Field(2)
F3 = Field(3)
A1 = Quiver(1, [])
A2 = Quiver(2, [(1, 2)])


# ---- scalar type ----


def test_sqrtext_arithmetic():
    v = SqrtExt(2, 0, 1)
    assert v * v == SqrtExt(2, 2)
    assert v + v == SqrtExt(2, 0, 2)
    assert (SqrtExt(2, 1, 1) * SqrtExt(2, 1, -1)) == SqrtExt(2, -1)
    assert SqrtExt(2, Fraction(1, 2)) + Fraction(1, 2) == 1
    assert -SqrtExt(2, 1, 1) == SqrtExt(2, -1, -1)
    assert SqrtExt(2, 3, 2) - SqrtExt(2, 1, 2) == SqrtExt(2, 2)


def _v_power(q, e):
    """v^e in closed form: q^(e/2) for even e, q^((e-1)/2) v for odd e."""
    if e % 2 == 0:
        return SqrtExt(q, Fraction(q) ** (e // 2))
    return SqrtExt(q, 0, Fraction(q) ** ((e - 1) // 2))


def test_sqrtext_v_powers():
    for q in (2, 3, 5):
        v = SqrtExt(q, 0, 1)
        acc = SqrtExt(q, 1)
        for e in range(8):
            assert _v_power(q, e) == acc == v**e
            acc = acc * v
        assert _v_power(q, -1) == SqrtExt(q, 0, Fraction(1, q)) == v**-1
        assert _v_power(q, -2) == SqrtExt(q, Fraction(1, q)) == v**-2
        assert _v_power(q, -1) * v == 1


def test_sqrtext_inverse_and_pow():
    x = SqrtExt(3, 2, 5)
    assert x * x.inverse() == 1
    assert x**3 == x * x * x
    assert x**-2 == (x * x).inverse()
    with pytest.raises(ZeroDivisionError):
        SqrtExt(3, 0, 0).inverse()
    assert SqrtExt(2, 1, 1) / SqrtExt(2, 1, 1) == 1


def test_sqrtext_rational_hashes_like_fraction():
    assert SqrtExt(2, 3, 0) == Fraction(3)
    assert len({SqrtExt(2, 3, 0), Fraction(3)}) == 1
    assert len({SqrtExt(2, Fraction(1, 2)), Fraction(1, 2), 0.5}) == 1
    table = {Fraction(3): "x"}
    table[SqrtExt(2, 3)] = "y"
    assert table == {Fraction(3): "y"}


def test_sqrtext_rejects_mixed_primes():
    with pytest.raises(ValueError):
        SqrtExt(2, 1) + SqrtExt(3, 1)


# ---- filtration-count oracle ----


def all_subspaces(p, d, k):
    """All k-dimensional subspaces of F_p^d, as canonical column matrices."""
    if k == 0:
        return [np.zeros((d, 0), dtype=np.int64)]
    from hallforge.linalg import rref

    seen = {}
    for flat in itertools.product(range(p), repeat=d * k):
        m = np.array(flat, dtype=np.int64).reshape(d, k)
        if rank(from_arr(Field(p), m)) != k:
            continue
        # canonicalize by the reduced row form of the transpose (row space)
        red, _ = rref(from_arr(Field(p), m.T % p))
        seen.setdefault(red.entries(), arr(red).T.copy())
    return list(seen.values())


def aut_count(m):
    p = m.field.p
    basis = hom_basis(m, m)
    if m.total_dim() == 0:
        return 1
    count = 0
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        mats = []
        ok = True
        for v in range(m.quiver.n):
            acc = np.zeros((m.dims[v], m.dims[v]), dtype=np.int64)
            for c, g in zip(coeffs, basis):
                if c:
                    acc += c * arr(g[v])
            mm = from_arr(m.field, acc % p)
            if rank(mm) != m.dims[v]:
                ok = False
                break
            mats.append(mm)
        if ok:
            count += 1
    return count


def filtration_count(b, a, c):
    """g = #{U <= B : U iso C, B/U iso A}, by enumerating subspace tuples."""
    p = b.field.p
    q = b.quiver
    field = b.field
    per_vertex = [all_subspaces(p, b.dims[v], c.dims[v]) for v in range(q.n)]
    from hallforge.linalg import solve_matrix

    g = 0
    for combo in itertools.product(*per_vertex):
        # U is a subrep iff every arrow image lands back in U; solve_matrix
        # returns None exactly when it does not
        sub_maps = []
        ok = True
        for i, (t, h) in enumerate(q.arrows):
            img = from_arr(field, np.dot(arr(b.maps[i]), combo[t - 1]) % p)
            sol = solve_matrix(from_arr(field, combo[h - 1]), img)
            if sol is None:
                ok = False
                break
            sub_maps.append(sol)
        if not ok:
            continue
        sub = Rep(q, field, [combo[v].shape[1] for v in range(q.n)], sub_maps)
        if not iso_test(sub, c):
            continue
        # quotient: extend to a basis, read the lower-right block
        quo_maps = []
        bases = []
        for v in range(q.n):
            cols = [combo[v][:, j] for j in range(combo[v].shape[1])]
            for e in range(b.dims[v]):
                cand = np.zeros(b.dims[v], dtype=np.int64)
                cand[e] = 1
                test = np.stack(cols + [cand], axis=1) if cols else cand.reshape(-1, 1)
                if rank(from_arr(field, test)) == len(cols) + 1:
                    cols.append(cand)
            bases.append(np.stack(cols, axis=1) if cols else np.zeros((b.dims[v], 0), dtype=np.int64))
        for i, (t, h) in enumerate(q.arrows):
            rhs = from_arr(field, np.dot(arr(b.maps[i]), bases[t - 1]) % p)
            sol = solve_matrix(from_arr(field, bases[h - 1]), rhs)
            k_h, k_t = c.dims[h - 1], c.dims[t - 1]
            quo_maps.append(from_arr(field, arr(sol)[k_h:, k_t:]))
        quo = Rep(
            q,
            field,
            [b.dims[v] - c.dims[v] for v in range(q.n)],
            quo_maps,
        )
        if iso_test(quo, a):
            g += 1
    return g


@pytest.mark.parametrize("p", [2, 3])
def test_product_matches_filtration_oracle(p):
    field = Field(p)
    bk = RepBackend(A2, field)
    alg = HallAlgebra(bk)
    s1 = Rep.simple(A2, field, 1)
    s2 = Rep.simple(A2, field, 2)
    p1 = proj_indec(A2, field, 1)
    pairs = [(s1, s2), (s2, s1), (s1, s1), (p1, s2), (s2, p1)]
    for a, c in pairs:
        prod = alg.product(alg.basis(a), alg.basis(c))
        aa, ac = aut_count(a), aut_count(c)
        for b_id, coeff in prod.items():
            b = bk.object(b_id)
            g = filtration_count(b, a, c)
            assert coeff == Fraction(g * aa * ac, aut_count(b)), (
                a.dims,
                c.dims,
                b.dims,
            )
        # classes not in the support must have filtration count zero
        split = direct_sum(c, a)
        if bk.classify(split) not in prod:
            assert filtration_count(split, a, c) == 0


# ---- frozen products ----


def test_a2_f2_product_frozen():
    bk = RepBackend(A2, F2)
    alg = HallAlgebra(bk)
    s1 = alg.basis(Rep.simple(A2, F2, 1))
    s2 = alg.basis(Rep.simple(A2, F2, 2))
    prod = alg.product(s1, s2)
    split_id = bk.classify(direct_sum(Rep.simple(A2, F2, 2), Rep.simple(A2, F2, 1)))
    p1_id = bk.classify(proj_indec(A2, F2, 1))
    assert prod == {split_id: Fraction(1), p1_id: Fraction(1)}
    assert alg.product(s2, s1) == {split_id: Fraction(1)}


def test_a2_f3_product_frozen():
    bk = RepBackend(A2, F3)
    alg = HallAlgebra(bk)
    s1 = alg.basis(Rep.simple(A2, F3, 1))
    s2 = alg.basis(Rep.simple(A2, F3, 2))
    prod = alg.product(s1, s2)
    split_id = bk.classify(direct_sum(Rep.simple(A2, F3, 2), Rep.simple(A2, F3, 1)))
    p1_id = bk.classify(proj_indec(A2, F3, 1))
    assert prod == {split_id: Fraction(1), p1_id: Fraction(2)}


def test_a1_self_product():
    bk = RepBackend(A1, F2)
    alg = HallAlgebra(bk)
    s = alg.basis(Rep.simple(A1, F2, 1))
    prod = alg.product(s, s)
    double = bk.classify(direct_sum(Rep.simple(A1, F2, 1), Rep.simple(A1, F2, 1)))
    assert prod == {double: Fraction(1, 2)}


def test_twisted_product_frozen():
    bk = RepBackend(A2, F2)
    alg = HallAlgebra(bk)
    s1 = alg.basis(Rep.simple(A2, F2, 1))
    s2 = alg.basis(Rep.simple(A2, F2, 2))
    tw = alg.twisted_product(s1, s2)
    split_id = bk.classify(direct_sum(Rep.simple(A2, F2, 2), Rep.simple(A2, F2, 1)))
    p1_id = bk.classify(proj_indec(A2, F2, 1))
    vinv = SqrtExt(2, 0, Fraction(1, 2))
    assert tw == {split_id: vinv, p1_id: vinv}
    # the twist exponent is symmetric-free: reverse has e = 0
    tw2 = alg.twisted_product(s2, s1)
    assert tw2 == {split_id: SqrtExt(2, 1)}


def test_bilinearity():
    bk = RepBackend(A2, F2)
    alg = HallAlgebra(bk)
    s1 = alg.basis(Rep.simple(A2, F2, 1))
    s2 = alg.basis(Rep.simple(A2, F2, 2))
    lhs = alg.product(alg.add(s1, alg.scale(Fraction(3), s2)), s2)
    rhs = alg.add(alg.product(s1, s2), alg.scale(Fraction(3), alg.product(s2, s2)))
    assert alg.equal(lhs, rhs)


def test_zero_class_is_unit():
    bk = RepBackend(A2, F2)
    alg = HallAlgebra(bk)
    one = {bk.zero_id(): Fraction(1)}
    s1 = alg.basis(Rep.simple(A2, F2, 1))
    assert alg.equal(alg.product(one, s1), s1)
    assert alg.equal(alg.product(s1, one), s1)


def test_associativity_a2_all_classes():
    bk = RepBackend(A2, F2)
    alg = HallAlgebra(bk)
    enumerate_reps(A2, F2, (1, 1), registry=bk.registry)
    ids = list(range(5))
    assert verify_associativity(alg, ids) == []
    assert verify_associativity(alg, ids, twisted=True) == []


# ---- complex backend ----


def test_complex_backend_periodic_frozen():
    cat = ComplexCategory(A1, F2, "periodic", period=2)
    bk = CxBackend(cat)
    alg = HallAlgebra(bk)
    X = alg.basis(cat.stalk(1, 0))
    Y = alg.basis(cat.stalk(1, 1))
    gens = contractible_generators(cat)
    split_id = bk.classify(direct_sum_cx(cat.stalk(1, 0), cat.stalk(1, 1)))
    k_id = bk.classify(gens["P1@0"])
    kp_id = bk.classify(gens["P1@1"])
    assert alg.product(X, Y) == {split_id: Fraction(1), k_id: Fraction(1)}
    assert alg.product(Y, X) == {split_id: Fraction(1), kp_id: Fraction(1)}
    with pytest.raises(EulerUndefined):
        alg.twisted_product(X, Y)


def test_complex_backend_periodic_f3_counts():
    cat = ComplexCategory(A1, F3, "periodic", period=2)
    bk = CxBackend(cat)
    alg = HallAlgebra(bk)
    X = alg.basis(cat.stalk(1, 0))
    Y = alg.basis(cat.stalk(1, 1))
    prod = alg.product(X, Y)
    k_id = bk.classify(contractible_generators(cat)["P1@0"])
    assert prod[k_id] == Fraction(2)  # q - 1 classes share the cone middle


def test_complex_backend_bounded_frozen():
    cat = ComplexCategory(A1, F2, "bounded", lo=0, hi=1)
    bk = CxBackend(cat)
    alg = HallAlgebra(bk)
    S0 = alg.basis(cat.stalk(1, 0))
    S1 = alg.basis(cat.stalk(1, 1))
    split_id = bk.classify(direct_sum_cx(cat.stalk(1, 0), cat.stalk(1, 1)))
    cone_id = bk.classify(cat.contractible_gen(1, 0))
    assert alg.product(S0, S1) == {split_id: Fraction(1), cone_id: Fraction(1)}
    assert alg.product(S1, S0) == {split_id: Fraction(1)}
    # twisted is defined on bounded windows
    tw = alg.twisted_product(S0, S1)
    assert tw[split_id] == SqrtExt(2, 0, Fraction(1, 2))


def test_complex_backend_associativity():
    cat = ComplexCategory(A1, F2, "periodic", period=2)
    bk = CxBackend(cat)
    alg = HallAlgebra(bk)
    ids = [
        bk.classify(cat.zero_complex()),
        bk.classify(cat.stalk(1, 0)),
        bk.classify(cat.stalk(1, 1)),
        bk.classify(contractible_generators(cat)["P1@0"]),
    ]
    assert verify_associativity(alg, ids) == []


def test_complex_backend_twisted_associativity_bounded():
    # regression: stalks in different degrees force Euler terms at negative
    # shifts; dropping them skewed one side of ((a b) c) = (a (b c)) by v
    cat = ComplexCategory(A2, F2, "bounded", lo=0, hi=1)
    bk = CxBackend(cat)
    alg = HallAlgebra(bk)
    ids = [
        bk.classify(cat.zero_complex()),
        bk.classify(cat.stalk(2, 0)),
        bk.classify(cat.stalk(2, 1)),
    ]
    assert verify_associativity(alg, ids) == []
    assert verify_associativity(alg, ids, twisted=True) == []


# ---- integer product loop against the Fraction / SqrtExt reference ----


def _reference_product(alg, x, y, twisted):
    """HallAlgebra._product as it was before it carried integers: every
    pair term a Fraction or SqrtExt product, summed term by term."""
    bk = alg.backend

    def twist(a_id, c_id):
        if not twisted:
            return 1
        return _v_power(alg.q, bk.euler_exp(bk.object(a_id), bk.object(c_id)))

    out = {}
    for a_id, ca in sorted(x.items()):
        for c_id, cc in sorted(y.items()):
            scale = ca * cc * twist(a_id, c_id)
            hom, middles = alg.ext_data(a_id, c_id)
            for b_id, n in middles:
                s = out.get(b_id, 0) + scale * Fraction(n, hom)
                if s == 0:
                    out.pop(b_id, None)
                else:
                    out[b_id] = s
    return out


def _assert_matches_reference(alg, x, y, twisted):
    got = (alg.twisted_product if twisted else alg.product)(x, y)
    want = _reference_product(alg, x, y, twisted)
    assert got.keys() == want.keys()
    for k, c in want.items():
        assert type(got[k]) is type(c) and got[k] == c, (x, y, twisted, k)
    return got


A3 = Quiver(3, [(1, 2), (2, 3)])
A3_INWARD = Quiver(3, [(1, 2), (3, 2)])
KRONECKER = Quiver(2, [(1, 2), (1, 2)])
F5 = Field(5)


def _rep_grid(quiver, field, cap):
    bk = RepBackend(quiver, field)
    enumerate_reps(quiver, field, cap, registry=bk.registry)
    return HallAlgebra(bk)


def _bounded_grid():
    cat = ComplexCategory(A2, F2, "bounded", lo=0, hi=1)
    bk = CxBackend(cat)
    enumerate_complexes(cat, max_degree_dim=1, registry=bk.registry)
    return HallAlgebra(bk)


_PRODUCT_GRIDS = {
    "a2-q2-cap22": lambda: _rep_grid(A2, F2, (2, 2)),
    "a2-q3-cap21": lambda: _rep_grid(A2, F3, (2, 1)),
    "a2-q5-cap11": lambda: _rep_grid(A2, F5, (1, 1)),
    "a3-q2-cap111": lambda: _rep_grid(A3, F2, (1, 1, 1)),
    "a3-inward-q2-cap111": lambda: _rep_grid(A3_INWARD, F2, (1, 1, 1)),
    "kronecker-q2-cap11": lambda: _rep_grid(KRONECKER, F2, (1, 1)),
    "bounded-01-q2": _bounded_grid,
}


@pytest.mark.parametrize("grid", sorted(_PRODUCT_GRIDS))
def test_product_matches_fraction_reference(grid):
    alg = _PRODUCT_GRIDS[grid]()
    q = alg.q
    ids = list(range(len(alg.backend.registry.objs)))
    exponents = set()
    for a, c in itertools.product(ids, repeat=2):
        for twisted in (False, True):
            _assert_matches_reference(alg, {a: Fraction(1)}, {c: Fraction(1)}, twisted)
        _assert_matches_reference(alg, {a: SqrtExt(q, 1)}, {c: SqrtExt(q, 1)}, True)
        exponents.add(alg.backend.euler_exp(alg.backend.object(a), alg.backend.object(c)))
    # the grid reaches odd and negative powers of v
    assert any(e % 2 for e in exponents) and min(exponents) < 0
    rng = np.random.default_rng(len(ids))
    coeffs = [Fraction(-7, 10), Fraction(1, 3), Fraction(2), Fraction(-5, 7), Fraction(q - 1, q)]
    for _ in range(12):
        x = {int(i): coeffs[int(j)] for i, j in zip(rng.choice(ids, 3), rng.choice(5, 3))}
        y = {int(i): coeffs[int(j)] for i, j in zip(rng.choice(ids, 3), rng.choice(5, 3))}
        for twisted in (False, True):
            _assert_matches_reference(alg, x, y, twisted)
        # SqrtExt inputs with a v part, into the plain product too
        xs = {k: SqrtExt(q, c, Fraction(1, 3) - c) for k, c in x.items()}
        for twisted in (False, True):
            _assert_matches_reference(alg, xs, y, twisted)
    # pair terms that cancel: [0][c] - [c][0] leaves no [c] coefficient
    zero = alg.backend.zero_id()
    for c in ids:
        if c == zero:
            continue
        for twisted in (False, True):
            got = _assert_matches_reference(
                alg, {zero: Fraction(1), c: Fraction(-1)}, {c: Fraction(1), zero: Fraction(1)}, twisted
            )
            assert c not in got and got[zero] == 1


# ---- cache behaviour ----


def test_cache_roundtrip_and_determinism():
    cache = MemoryCache()
    bk = RepBackend(A2, F2)
    alg = HallAlgebra(bk, cache=cache)
    s1 = alg.basis(Rep.simple(A2, F2, 1))
    s2 = alg.basis(Rep.simple(A2, F2, 2))
    first = alg.product(s1, s2)
    assert cache.misses > 0 and cache.hits == 0
    second = alg.product(s1, s2)
    assert cache.hits > 0
    assert alg.equal(first, second)

    # a fresh algebra sharing the cache reproduces identical ids/coeffs
    bk2 = RepBackend(A2, F2)
    alg2 = HallAlgebra(bk2, cache=cache)
    s1b = alg2.basis(Rep.simple(A2, F2, 1))
    s2b = alg2.basis(Rep.simple(A2, F2, 2))
    third = alg2.product(s1b, s2b)
    assert third == first


def test_ext_data_repeat_calls_resolve_once():
    cache = MemoryCache()
    bk = RepBackend(A2, F2)
    alg = HallAlgebra(bk, cache=cache)
    enumerate_reps(A2, F2, (1, 1), registry=bk.registry)
    ids = range(len(bk.registry))
    fresh_bk = RepBackend(A2, F2)
    enumerate_reps(A2, F2, (1, 1), registry=fresh_bk.registry)
    for a_id in ids:
        for c_id in ids:
            first = alg.ext_data(a_id, c_id)
            expected = (first[0], list(first[1]))
            first[1].append((99, 1))  # the caller's list is its own
            assert alg.ext_data(a_id, c_id) == expected
            # same as an algebra that never saw the pair
            assert HallAlgebra(fresh_bk).ext_data(a_id, c_id) == expected
    assert cache.hits + cache.misses == 2 * len(ids) ** 2
    assert cache.misses == len(ids) ** 2


def test_pair_key_content_addressed():
    bk = RepBackend(A2, F2)
    a = Rep.simple(A2, F2, 1)
    c = Rep.simple(A2, F2, 2)
    k1 = pair_key(bk.signature(), a.encoding(), c.encoding())
    k2 = pair_key(bk.signature(), a.encoding(), c.encoding())
    assert k1 == k2 and len(k1) == 64
    assert k1 != pair_key(bk.signature(), c.encoding(), a.encoding())


def test_builtin_sha256_gives_hashlib_digests():
    """Pair keys and spec hashes use the builtin SHA-256 module, not
    hashlib; the digests, and so every cache key and file name, are
    hashlib's."""
    import hashlib

    from hallforge import hall
    from hallforge.files import CategorySpec

    for blob in (b"", b"abc", bytes(range(256)) * 9):
        assert hall._sha256(blob).hexdigest() == hashlib.sha256(blob).hexdigest()
    bk = RepBackend(A2, F2)
    a, c = Rep.simple(A2, F2, 1), Rep.simple(A2, F2, 2)
    blob = json.dumps([bk.signature(), a.encoding(), c.encoding()], separators=(",", ":"))
    assert pair_key(bk.signature(), a.encoding(), c.encoding()) == hashlib.sha256(blob.encode()).hexdigest()
    spec = CategorySpec.from_dict({
        "format_version": 1, "field": {"q": 3}, "quiver": {"vertices": 2, "arrows": [[1, 2]]},
        "backend": "bounded", "window": [0, 1],
    })
    blob = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    assert spec.spec_hash == hashlib.sha256(blob.encode()).hexdigest()


def test_backend_decode_inverts_encode():
    bk = RepBackend(A2, F3)
    # S1, S2 and 0 have arrow matrices of shape (0, 1), (1, 0) and (0, 0);
    # Rep rejects a decoded matrix of the wrong shape
    for m in (
        proj_indec(A2, F3, 1),
        Rep.simple(A2, F3, 1),
        Rep.simple(A2, F3, 2),
        Rep.zero(A2, F3),
    ):
        assert bk.decode(bk.encode(m)).encoding() == m.encoding()
    periodic = ComplexCategory(A1, F2, "periodic", period=2)
    # P2 on A2 is zero at vertex 1, so its differential blocks there are 0 x 0
    bounded = ComplexCategory(A2, F2, "bounded", lo=0, hi=1)
    for cat, gen in ((periodic, "P1@0"), (bounded, "P2@0")):
        cbk = CxBackend(cat)
        K = contractible_generators(cat)[gen]
        back = cbk.decode(cbk.encode(K))
        assert back.encoding() == K.encoding()
        assert {n: [x.shape for x in d] for n, d in back.diffs.items()} == {
            n: [x.shape for x in d] for n, d in K.diffs.items()
        }


def _damage_first_component(change):
    """A record corruption that edits the first middle with a nonempty
    differential block: change(comps, blocks, rows) mutates its encoding,
    where blocks are that differential's per-vertex blocks and rows the
    nonempty block's rows."""

    def damage(rec):
        for (comps, diffs), _ in rec["middles"]:
            for _, blocks in diffs:
                for rows in blocks:
                    if rows and rows[0]:
                        change(comps, blocks, rows)
                        return rec
        return None

    return damage


def _set(seq, i, x):
    seq[i] = x


def _flip_at_vertex_1(rec):
    # on A2 1 -> 2 the target's arrow map carries vertex 1 injectively into
    # vertex 2, so changing one entry of a differential's vertex-1 block
    # leaves a map that is no representation morphism
    for (comps, diffs), _ in rec["middles"]:
        for _, blocks in diffs:
            if blocks[0] and blocks[0][0]:
                blocks[0][0][0] = 1 - blocks[0][0][0]
                return rec
    return None


_CX_CORRUPTIONS = {
    "degree-outside-window": _damage_first_component(lambda c, b, r: c.append([99, [1, 0]])),
    "mults-wrong-length": _damage_first_component(lambda c, b, r: c[0][1].append(1)),
    "mults-negative": _damage_first_component(lambda c, b, r: c.insert(0, [-3, [-1, 0]])),
    "mults-enlarged": _damage_first_component(lambda c, b, r: _set(c[-1][1], 0, 3)),
    "diff-wrong-shape": _damage_first_component(lambda c, b, r: r.pop()),
    "diff-missing-vertex": _damage_first_component(lambda c, b, r: b.pop()),
    "diff-entry-out-of-range": _damage_first_component(lambda c, b, r: _set(r[0], 0, 2)),
    "diff-not-a-morphism": _flip_at_vertex_1,
    "count-zero": lambda rec: dict(rec, middles=[[enc, 0] for enc, _ in rec["middles"]]),
    "no-middles": lambda rec: dict(rec, middles=[]),
    "hom-not-power-of-q": lambda rec: dict(rec, hom=3 * rec["hom"]),
}


@pytest.mark.parametrize("corruption", sorted(_CX_CORRUPTIONS))
def test_malformed_complex_records_are_recomputed(corruption):
    cat = ComplexCategory(A2, F2, "bounded", lo=0, hi=1)

    def resolved_all(cache):
        bk = CxBackend(cat)
        alg = HallAlgebra(bk, cache=cache)
        ids = [bk.classify(cat.stalk(v, n)) for v in (1, 2) for n in (0, 1)]
        return [
            (hom, [(bk.encode(bk.object(i)), n) for i, n in middles])
            for a, c in itertools.product(ids, repeat=2)
            for hom, middles in [alg.ext_data(a, c)]
        ]

    cache = MemoryCache()
    clean = resolved_all(cache)
    clean_records = copy.deepcopy(cache.data)
    damaged = 0
    for key, rec in cache.data.items():
        # the damages edit the record as a cache file holds it: JSON lists
        bad = _CX_CORRUPTIONS[corruption](json.loads(json.dumps(rec)))
        if bad is not None:
            cache.data[key] = bad
            damaged += 1
    assert damaged
    assert resolved_all(cache) == clean
    assert cache.data == clean_records  # each damaged record was replaced


# ---- single damages of pair records ----


@functools.lru_cache(maxsize=None)
def _fuzz_scalars(kind):
    """(algebra, [(record as a cache file holds it, middle head, path)]):
    one entry per int of a pair record, over every ordered pair of a small
    grid of one backend."""
    cat = ComplexCategory(A2, F2, "bounded", lo=0, hi=1)
    if kind == "stable":
        sdh = SDH(cat)
        alg, ids = sdh.derived, sdh.stable_sample(max_total_dim=2)
    else:
        alg = HallAlgebra(RepBackend(A2, F2) if kind == "reps" else CxBackend(cat))
        reg = alg.backend.registry
        if kind == "reps":
            enumerate_reps(A2, F2, (1, 1), registry=reg)
        else:
            enumerate_complexes(cat, max_total_dim=2, registry=reg)
        ids = range(len(reg))
    bk = alg.backend
    out = []
    for a_id, c_id in itertools.product(ids, repeat=2):
        alg.ext_data(a_id, c_id)
        a, c = bk.object(a_id), bk.object(c_id)
        key = pair_key(bk.signature(), a.encoding(), c.encoding())
        rec = json.loads(json.dumps(alg.cache.data[key]))
        out.extend((rec, bk._middle_head(a, c), path) for path in _int_paths(rec))
    return alg, out


def _int_paths(value, path=()):
    """The paths (list indices and object keys) to the ints of a JSON value."""
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _int_paths(value[k], path + (k,))
    elif isinstance(value, list):
        for i, x in enumerate(value):
            yield from _int_paths(x, path + (i,))
    elif type(value) is int:
        yield path


@pytest.mark.parametrize("kind", ["reps", "complexes", "stable"])
@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_a_damaged_record_names_only_objects_read_accepts(kind, data):
    # one scalar of a pair record (hom, a record field, a count, a degree,
    # a multiplicity, a dimension or a matrix entry) set to an int in
    # [-1, q] or a bool: the record is rejected, or each of its witnesses is
    # an object the one reader accepts (and minimal, for the stable backend)
    alg, scalars = _fuzz_scalars(kind)
    bk = alg.backend
    rec, head, (*outer, last) = data.draw(st.sampled_from(scalars))
    bad = copy.deepcopy(rec)
    target = bad
    for k in outer:
        target = target[k]
    target[last] = data.draw(st.one_of(st.integers(-1, alg.q), st.booleans()))
    resolved = alg._resolve(bad, head)
    if resolved is None:
        return
    for obj, _ in resolved[1]:
        assert bk.read(json.loads(json.dumps(bk.encode(obj)))) == obj
        if kind == "stable":
            assert is_minimal(obj)



def test_read_decodes_each_distinct_encoding_once(monkeypatch):
    # accepted and rejected encodings alike are decoded once per backend,
    # and a rejection raises the same SpecError every time
    cat = ComplexCategory(A2, F2, "bounded", lo=0, hi=1)
    bk = CxBackend(cat)
    decoded = []
    real = CxBackend.decode
    monkeypatch.setattr(CxBackend, "decode", lambda self, enc: decoded.append(enc) or real(self, enc))
    good = json.loads(json.dumps(bk.encode(cat.stalk(1, 0))))
    bad = [[[0, [1, -1]], [1, [1, 0]]], [[0, [[[0]], [[0]]]]]]
    messages = set()
    for _ in range(3):
        assert bk.read(good).encoding() == bk.encode(cat.stalk(1, 0))
        with pytest.raises(SpecError) as e:
            bk.read(bad)
        messages.add(str(e.value))
    assert len(decoded) == 2 and len(messages) == 1


def test_rejected_multiplicities_are_not_built_or_cached():
    # a multiplicity vector one entry too long, as an element file could
    # hold it: read rejects it before any representation is built for it,
    # so the category's cache of canonical reps does not keep it
    cat = ComplexCategory(A2, F2, "bounded", lo=0, hi=1)
    bk = CxBackend(cat)
    with pytest.raises(SpecError):
        bk.read([[[0, [1, 0, 5]], [1, [1, 0]]], [[0, [[[0]], [[0]]]]]])
    assert (1, 0, 5) not in cat._rep_cache
    with pytest.raises(SpecError):
        bk.read([[[0, [1, -1]], [1, [1, 0]]], [[0, [[[0]], [[0]]]]]])
    assert (1, -1) not in cat._rep_cache
