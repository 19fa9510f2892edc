"""Complexes of projectives: hom/ext spaces, stripping, enumeration.

Oracle strategy: chain-map and extension counts are re-derived by raw
enumeration over all per-degree matrix tuples (intertwiner + closure
conditions checked directly on numpy arrays), never through the solver
being tested.  Contractibility has two independent routes (stripping and
solving d h + h d = id) which must agree everywhere.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hallforge.complexes as cx
from hallforge.config import DEFAULT_CAPS, Caps
from hallforge.errors import EnumCapExceeded, SpecError, WindowOverflow
from hallforge.linalg import Field, Matrix, kernel_basis, rank, rref, solve
from hallforge.quiver import Quiver, Registry, Rep, direct_sum, hom_basis
from hallforge.complexes import (
    _cocycle_columns,
    _map_space,
    _merged_diff,
    Complex,
    ComplexCategory,
    contractible_generators,
    cx_registry,
    decompose_cx,
    direct_sum_cx,
    enumerate_complexes,
    ext1_classes,
    euler_exponent_cx,
    find_chain_iso,
    hom_card,
    hom_dim_cx,
    is_minimal,
    iso_test_cx,
    middle_term_cx,
    shift,
    stable_hom_card,
    stable_hom_dim,
    stable_iso_test,
    stable_registry,
    strip_contractibles,
)


def arr(m):
    """A Matrix's entries as an int64 array of its shape."""
    return np.array(m.entries(), dtype=np.int64).reshape(m.shape)


def from_arr(field, a):
    """The Matrix of a 2-d integer array, its shape kept."""
    return Matrix(field, a.tolist(), a.shape[1])


def cols_arr(cols, rows):
    """A list of columns, each `rows` ints long, as an int64 array."""
    return np.array(cols, dtype=np.int64).reshape(len(cols), rows).T


def rows_arr(rows, cols):
    """A list of rows, each `cols` ints long, as an int64 array."""
    return np.array(rows, dtype=np.int64).reshape(len(rows), cols)

F2 = Field(2)
F3 = Field(3)
A1 = Quiver(1, [])
A2 = Quiver(2, [(1, 2)])


def a1_periodic(p=2, period=2):
    return ComplexCategory(A1, Field(p), "periodic", period=period)


def a1_bounded(p=2, lo=0, hi=2):
    return ComplexCategory(A1, Field(p), "bounded", lo=lo, hi=hi)


def a2_bounded(p=2):
    return ComplexCategory(A2, Field(p), "bounded", lo=0, hi=1)


# ---- raw oracles ----


def _all_morphisms(src, tgt):
    """Every rep morphism src -> tgt, by raw enumeration."""
    p = src.field.p
    q = src.quiver
    sizes = [tgt.dims[v] * src.dims[v] for v in range(q.n)]
    total = sum(sizes)
    assert p**total <= 2**14, "oracle only runs on small spaces"
    out = []
    for flat in itertools.product(range(p), repeat=total):
        gs = []
        pos = 0
        for v in range(q.n):
            r, c = tgt.dims[v], src.dims[v]
            seg = np.array(flat[pos:pos + sizes[v]], dtype=np.int64)
            pos += sizes[v]
            gs.append(seg.reshape(r, c) if sizes[v] else np.zeros((r, c), dtype=np.int64))
        ok = True
        for i, (t, h) in enumerate(q.arrows):
            if not np.array_equal(
                np.dot(gs[h - 1], arr(src.maps[i])) % p,
                np.dot(arr(tgt.maps[i]), gs[t - 1]) % p,
            ):
                ok = False
                break
        if ok:
            out.append(tuple(gs))
    return out


def _deg_list(cat):
    return cat.degrees() if cat.kind == "periodic" else list(
        range(cat.lo - cat.headroom, cat.hi + cat.headroom + 1)
    )


def brute_degree_k_maps(x, y, k, condition):
    """All degree-k collections (f_n) of morphisms satisfying `condition`.

    condition(fdict) gets {degree: list of numpy vertex matrices} with zero
    matrices filled in for missing degrees.
    """
    cat = x.cat
    p = cat.field.p
    degs = [n for n in _deg_list(cat) if x.rep(n).total_dim() and (
        cat.wrap(n + k) in y.comps if cat.wrap(n + k) is not None else False
    )]
    per_deg = []
    for n in degs:
        per_deg.append(_all_morphisms(x.rep(n), y.rep(cat.wrap(n + k))))
    count = 1
    for opts in per_deg:
        count *= len(opts)
    assert count <= 2**14, "oracle only runs on small spaces"
    found = []
    for combo in itertools.product(*per_deg):
        fdict = dict(zip(degs, combo))
        if condition(fdict):
            found.append(fdict)
    return found


def np_mats(x, n):
    return [arr(m) for m in x.diff(n)]


def brute_chain_maps(x, y):
    cat = x.cat
    p = cat.field.p

    def get(fdict, n, shape_src, shape_tgt):
        if n in fdict:
            return fdict[n]
        return [
            np.zeros((shape_tgt.dims[v], shape_src.dims[v]), dtype=np.int64)
            for v in range(cat.quiver.n)
        ]

    def cond(fdict):
        for n in _deg_list(cat):
            if x.rep(n).total_dim() == 0:
                continue
            n1 = cat.next_deg(n)
            dy = np_mats(y, cat.wrap(n))
            dx = np_mats(x, n)
            fn = get(fdict, n, x.rep(n), y.rep(cat.wrap(n)))
            f1 = (
                get(fdict, n1, x.rep(n1), y.rep(cat.wrap(n1) if n1 is not None else None))
                if n1 is not None
                else [np.zeros((0, 0), dtype=np.int64)] * cat.quiver.n
            )
            for v in range(cat.quiver.n):
                lhs = np.dot(dy[v], fn[v]) % p
                rhs = (
                    np.dot(f1[v], dx[v]) % p
                    if n1 is not None and f1[v].shape[1] == dx[v].shape[0]
                    else np.zeros_like(lhs)
                )
                if lhs.shape != rhs.shape or not np.array_equal(lhs, rhs):
                    if lhs.size or rhs.size:
                        return False
        return True

    return brute_degree_k_maps(x, y, 0, cond)


def test_brute_chain_oracle_matches_hom_dim():
    cat = a1_periodic()
    gens = contractible_generators(cat)
    K, Kp = gens["P1@0"], gens["P1@1"]
    X, Y = cat.stalk(1, 0), cat.stalk(1, 1)
    for a in [X, Y, K, Kp]:
        for b in [X, Y, K, Kp]:
            assert len(brute_chain_maps(a, b)) == hom_card(a, b)


def test_brute_chain_oracle_bounded():
    cat = a2_bounded()
    objs = [cat.stalk(1, 0), cat.stalk(2, 0), cat.stalk(1, 1), cat.contractible_gen(2, 0)]
    for a in objs:
        for b in objs:
            assert len(brute_chain_maps(a, b)) == hom_card(a, b)


def brute_nullhomotopic_set(x, y):
    """Encodings of all chain maps d h + h d, h ranging over raw degree -1
    collections of morphisms."""
    cat = x.cat
    p = cat.field.p
    degs = [
        n
        for n in _deg_list(cat)
        if x.rep(n).total_dim()
        and cat.wrap(n - 1) is not None
        and cat.wrap(n - 1) in y.comps
    ]
    per_deg = [_all_morphisms(x.rep(n), y.rep(cat.wrap(n - 1))) for n in degs]
    out = set()
    for combo in itertools.product(*per_deg):
        h = dict(zip(degs, combo))
        enc = []
        for n in _deg_list(cat):
            if x.rep(n).total_dim() == 0 or cat.wrap(n) not in y.comps:
                continue
            acc = [
                np.zeros((y.rep(cat.wrap(n)).dims[v], x.rep(n).dims[v]), dtype=np.int64)
                for v in range(cat.quiver.n)
            ]
            hm = h.get(n)
            if hm is not None:
                dy = np_mats(y, cat.wrap(n - 1))
                for v in range(cat.quiver.n):
                    acc[v] = (acc[v] + np.dot(dy[v], hm[v])) % p
            n1 = cat.next_deg(n)
            h1 = h.get(n1) if n1 is not None else None
            if h1 is not None:
                dx = np_mats(x, n)
                for v in range(cat.quiver.n):
                    acc[v] = (acc[v] + np.dot(h1[v], dx[v])) % p
            enc.append((n, tuple(tuple(map(int, r)) for a in acc for r in a)))
        out.add(tuple(enc))
    return out


def test_stable_hom_matches_brute_force():
    cat = a1_periodic()
    gens = contractible_generators(cat)
    K = gens["P1@0"]
    X, Y = cat.stalk(1, 0), cat.stalk(1, 1)
    for a in [X, Y, K]:
        for b in [X, Y, K]:
            z = len(brute_chain_maps(a, b))
            nh = len(brute_nullhomotopic_set(a, b))
            assert stable_hom_card(a, b) * nh == z


def test_stable_hom_matches_brute_force_bounded():
    cat = a2_bounded()
    objs = [cat.stalk(1, 0), cat.stalk(2, 1), cat.contractible_gen(1, 0)]
    for a in objs:
        for b in objs:
            z = len(brute_chain_maps(a, b))
            nh = len(brute_nullhomotopic_set(a, b))
            assert stable_hom_card(a, b) * nh == z


# ---- frozen examples ----


def test_enumerate_a1_periodic_six_classes():
    reg = enumerate_complexes(a1_periodic(), max_degree_dim=1)
    assert len(reg) == 6
    got = [
        (
            tuple(sorted(reg.object(i).comps.items())),
            tuple(
                (n, tuple(m.entries() for m in d))
                for n, d in sorted(reg.object(i).diffs.items())
            ),
        )
        for i in range(6)
    ]
    assert got == [
        ((), ()),  # zero complex
        (((1, (1,)),), ()),  # stalk in degree 1
        (((0, (1,)),), ()),  # stalk in degree 0
        (((0, (1,)), (1, (1,))), ((0, (((0,),),)), (1, (((0,),),)))),  # X + Y
        (((0, (1,)), (1, (1,))), ((0, (((0,),),)), (1, (((1,),),)))),  # cone at 1
        (((0, (1,)), (1, (1,))), ((0, (((1,),),)), (1, (((0,),),)))),  # cone at 0
    ]


def test_enumerate_a1_periodic_dim2_twenty_classes():
    reg = enumerate_complexes(a1_periodic(), max_degree_dim=2)
    assert len(reg) == 20


def test_contractible_generator_listing():
    assert list(contractible_generators(a1_periodic())) == ["P1@0", "P1@1"]
    assert list(contractible_generators(a1_bounded(lo=0, hi=2))) == ["P1@0", "P1@1"]
    assert list(contractible_generators(a2_bounded())) == ["P1@0", "P2@0"]


def _raw_vector(space, n, mats):
    """Embed one degree-n component into the raw coordinate vector of a
    map space."""
    vec = np.zeros(space.raw_dim, dtype=np.int64)
    if n not in space.raw_offsets:
        # the component must be zero there; otherwise the layout is wrong
        assert all(m.is_zero() for m in mats)
        return vec
    offs = space.raw_offsets[n]
    for v, m in enumerate(mats):
        vec[offs[v]:offs[v + 1]] = arr(m).reshape(-1)
    return vec


def is_contractible(x):
    """Solve d h + h d = id directly (independent of the stripping route)."""
    if x.is_zero():
        return True
    field = x.cat.field
    hc = cx._HomComplex(x, x)
    space = hc.space(0)
    cols = rows_arr(hc.differential(-1), hc.space(-1).nvars)
    target = np.zeros(space.raw_dim, dtype=np.int64)
    for n in x.comps:
        ident = tuple(Matrix.identity(field, d) for d in x.rep(n).dims)
        target = (target + _raw_vector(space, n, ident)) % field.p
    if cols.shape[1] == 0:
        return not np.any(target)
    return solve(from_arr(field, cols), target.tolist()) is not None


def test_generators_are_contractible_both_routes():
    for cat in [a1_periodic(), a1_periodic(3), a1_bounded(), a2_bounded()]:
        for key, g in contractible_generators(cat).items():
            assert is_contractible(g)
            m, exps = strip_contractibles(g)
            assert m.is_zero()
            assert exps == {key: 1}


def test_contractibility_routes_agree_on_enumeration():
    for cat in [a1_periodic(), a2_bounded()]:
        reg = enumerate_complexes(cat, max_degree_dim=1)
        for i in range(len(reg)):
            x = reg.object(i)
            m, _ = strip_contractibles(x)
            assert is_contractible(x) == m.is_zero()


def test_pairings_frozen():
    cat = a1_periodic()
    gens = contractible_generators(cat)
    K, Kp = gens["P1@0"], gens["P1@1"]
    X = cat.stalk(1, 0)
    assert hom_card(K, Kp) == 2
    assert hom_card(K, K) == 2
    assert hom_card(Kp, K) == 2
    assert stable_hom_card(X, X) == 2
    assert stable_hom_card(K, X) == 1
    assert hom_card(K, X) == 2


def test_lemma_ext1_equals_stable_hom_of_shift():
    cat = a1_periodic()
    gens = contractible_generators(cat)
    objs = [cat.stalk(1, 0), cat.stalk(1, 1), gens["P1@0"], gens["P1@1"]]
    for a in objs:
        for b in objs:
            lhs = 2 ** ext1_classes(a, b, enumerate_reps=False).dim
            assert lhs == stable_hom_card(a, shift(b, 1))
    catb = a2_bounded()
    objs = [
        catb.stalk(1, 0),
        catb.stalk(2, 0),
        catb.stalk(1, 1),
        catb.contractible_gen(1, 0),
        catb.contractible_gen(2, 0),
    ]
    for a in objs:
        for b in objs:
            lhs = 2 ** ext1_classes(a, b, enumerate_reps=False).dim
            assert lhs == stable_hom_card(a, shift(b, 1))


def brute_ext1_counts(a, c, reg):
    """Oracle: enumerate raw cocycles, group middles by iso class, divide by
    the coboundary-set size."""
    cat = a.cat
    p = cat.field.p

    def cocycle(fdict):
        for n in _deg_list(cat):
            if a.rep(n).total_dim() == 0:
                continue
            n1 = cat.next_deg(n)
            ytop = cat.wrap(n + 2) if n1 is not None else None
            dcn = np_mats(c, cat.wrap(n + 1))
            dan = np_mats(a, n)
            fn = fdict.get(n)
            f1 = fdict.get(n1) if n1 is not None else None
            for v in range(cat.quiver.n):
                tgt_rows = c.rep(cat.wrap(n + 2)).dims[v] if cat.wrap(n + 2) is not None else 0
                lhs = np.zeros((tgt_rows, a.rep(n).dims[v]), dtype=np.int64)
                if fn is not None and dcn[v].shape[1] == fn[v].shape[0]:
                    lhs = (lhs + np.dot(dcn[v], fn[v])) % p
                if f1 is not None and f1[v].shape[1] == dan[v].shape[0]:
                    add = np.dot(f1[v], dan[v]) % p
                    if add.shape == lhs.shape:
                        lhs = (lhs + add) % p
                if np.any(lhs):
                    return False
        return True

    cocycles = brute_degree_k_maps(a, c, 1, cocycle)
    buckets = {}
    for fdict in cocycles:
        f = {
            n: tuple(from_arr(cat.field, m) for m in mats)
            for n, mats in fdict.items()
            if any(np.any(m) for m in mats)
        }
        b = middle_term_cx(a, c, f)
        i = reg.classify(b)
        buckets[i] = buckets.get(i, 0) + 1
    ext = ext1_classes(a, c, enumerate_reps=False)
    coset = len(cocycles) // (p**ext.dim)
    assert coset * (p**ext.dim) == len(cocycles)
    assert all(v % coset == 0 for v in buckets.values())
    return {k: v // coset for k, v in buckets.items()}


@pytest.mark.parametrize("p", [2, 3])
def test_ext_middles_match_raw_grouping_periodic(p):
    cat = a1_periodic(p)
    X, Y = cat.stalk(1, 0), cat.stalk(1, 1)
    reg = cx_registry(cat)
    oracle = brute_ext1_counts(X, Y, reg)
    ext = ext1_classes(X, Y)
    assert len(ext.reps) == p ** ext.dim
    mine = {}
    for f in ext.reps:
        i = reg.classify(middle_term_cx(X, Y, f))
        mine[i] = mine.get(i, 0) + 1
    assert mine == oracle
    # q - 1 classes have contractible middle, one is the split sum
    split = reg.classify(direct_sum_cx(Y, X))
    cone = reg.classify(cat.contractible_gen(1, 0))
    assert mine[split] == 1
    assert mine[cone] == p - 1


def test_ext_middles_match_raw_grouping_bounded():
    cat = a2_bounded()
    pairs = [
        (cat.stalk(1, 0), cat.stalk(1, 1)),
        (cat.stalk(1, 0), cat.stalk(2, 1)),
        (cat.stalk(2, 0), cat.stalk(1, 0)),
    ]
    for a, c in pairs:
        reg = cx_registry(cat)
        oracle = brute_ext1_counts(a, c, reg)
        ext = ext1_classes(a, c)
        mine = {}
        for f in ext.reps:
            i = reg.classify(middle_term_cx(a, c, f))
            mine[i] = mine.get(i, 0) + 1
        assert mine == oracle


def test_split_class_gives_direct_sum():
    cat = a1_periodic()
    X, Y = cat.stalk(1, 0), cat.stalk(1, 1)
    ext = ext1_classes(X, Y)
    split = middle_term_cx(X, Y, ext.reps[0])
    assert split.encoding() == direct_sum_cx(Y, X).encoding()


def test_strip_preserves_total_dimension():
    cat = a1_periodic()
    gens = contractible_generators(cat)
    K = gens["P1@0"]
    X = cat.stalk(1, 0)
    big = direct_sum_cx(direct_sum_cx(K, K), X)
    m, exps = strip_contractibles(big)
    assert exps == {"P1@0": 2}
    assert m.total_dim() + sum(
        e * gens[k].total_dim() for k, e in exps.items()
    ) == big.total_dim()
    assert is_minimal(m)
    m2, exps2 = strip_contractibles(m)
    assert exps2 == {} and m2.encoding() == m.encoding()


def test_strip_returns_a_minimal_complex_itself():
    cat = a1_bounded(lo=0, hi=2)
    x = direct_sum_cx(cat.stalk(1, 0), cat.stalk(1, 2))
    assert is_minimal(x)
    m, exps = strip_contractibles(x)
    assert m is x and exps == {}


def test_strip_mixed_generators_bounded():
    cat = a1_bounded(lo=0, hi=2)
    gens = contractible_generators(cat)
    big = direct_sum_cx(gens["P1@0"], gens["P1@1"])
    m, exps = strip_contractibles(big)
    assert m.is_zero()
    assert exps == {"P1@0": 1, "P1@1": 1}


# ---- Schur-complement stripping against the base-change reference ----


def _reference_strip(x):
    """strip_contractibles by explicit base change, as it was written before
    the Schur-complement step: per vertex it builds T on X_n and S on
    X_{n+1} (with their inverses), applies d_n <- S d_n T^-1,
    d_{n-1} <- T d_{n-1} and d_{n+1} <- d_{n+1} S^-1, and then deletes the
    two copies."""
    cat = x.cat
    field = cat.field
    p = field.p
    comps = {n: list(m) for n, m in x.comps.items()}
    diffs = {n: [arr(m) for m in d] for n, d in x.diffs.items()}
    exps: dict[str, int] = {}

    def mults_at(n):
        return tuple(comps.get(n, [0] * cat.quiver.n))

    def ensure_diff(n):
        """Materialize d_n as zero arrays if both ends exist but it's absent."""
        n1 = cat.next_deg(n)
        if n is None or n1 is None:
            return None
        if n not in comps or n1 not in comps:
            return None
        if n not in diffs:
            src = cat.rep_of(mults_at(n))
            tgt = cat.rep_of(mults_at(n1))
            diffs[n] = [
                np.zeros((tgt.dims[v], src.dims[v]), dtype=np.int64)
                for v in range(cat.quiver.n)
            ]
        return diffs[n]

    def find_unit():
        for n in sorted(comps):
            n1 = cat.next_deg(n)
            if n1 is None or n1 not in comps:
                continue
            d = ensure_diff(n)
            if d is None:
                continue
            src_m = mults_at(n)
            tgt_m = mults_at(n1)
            src_copies, offs_src = zip(*cat.copy_slots(src_m))
            tgt_copies, offs_tgt = zip(*cat.copy_slots(tgt_m))
            for i in range(1, cat.quiver.n + 1):
                vi = i - 1
                for s_pos, (gi, _) in enumerate(tgt_copies):
                    if gi != i:
                        continue
                    for r_pos, (gj, _) in enumerate(src_copies):
                        if gj != i:
                            continue
                        # scalar of the P_i -> P_i block: trivial-path coord
                        row = offs_tgt[s_pos][vi]
                        col = offs_src[r_pos][vi]
                        c0 = int(d[vi][row, col]) % p
                        if c0:
                            return n, i, s_pos, r_pos, c0
        return None

    def copy_slice(offs, copies, pos, v, gen_dims):
        i = copies[pos][0]
        start = offs[pos][v]
        return start, start + gen_dims[i - 1][v]

    gen_dims = [cat.proj(i).dims for i in range(1, cat.quiver.n + 1)]

    while True:
        hit = find_unit()
        if hit is None:
            break
        n, i, s_pos, r_pos, c0 = hit
        n1 = cat.next_deg(n)
        cinv = field.inv(c0)
        src_m = mults_at(n)
        tgt_m = mults_at(n1)
        src_copies, offs_src = zip(*cat.copy_slots(src_m))
        tgt_copies, offs_tgt = zip(*cat.copy_slots(tgt_m))
        d = diffs[n]

        # base-change matrices per vertex: T on X_n, S on X_{n+1}
        T = []
        Tinv = []
        S = []
        Sinv = []
        for v in range(cat.quiver.n):
            dim_src = sum(gen_dims[g - 1][v] for g, _ in src_copies)
            dim_tgt = sum(gen_dims[g - 1][v] for g, _ in tgt_copies)
            r0, r1 = copy_slice(offs_src, src_copies, r_pos, v, gen_dims)
            s0, s1 = copy_slice(offs_tgt, tgt_copies, s_pos, v, gen_dims)
            t = np.eye(dim_src, dtype=np.int64)
            # row block of copy r gains c^-1 * (row s of d restricted to other cols)
            beta = d[v][s0:s1, :].copy()
            beta[:, r0:r1] = 0
            t[r0:r1, :] = (t[r0:r1, :] + cinv * beta) % p
            tin = np.eye(dim_src, dtype=np.int64)
            tin[r0:r1, :] = (tin[r0:r1, :] - cinv * beta) % p
            # S = I - c^-1 gamma placed in the s-column block (other rows)
            gamma = d[v][:, r0:r1].copy()
            gamma[s0:s1, :] = 0
            sm_block = (-cinv * gamma) % p
            sm = np.eye(dim_tgt, dtype=np.int64)
            sm[:, s0:s1] = (sm[:, s0:s1] + sm_block) % p
            sinv = np.eye(dim_tgt, dtype=np.int64)
            sinv[:, s0:s1] = (sinv[:, s0:s1] - sm_block) % p
            T.append(t % p)
            Tinv.append(tin % p)
            S.append(sm % p)
            Sinv.append(sinv % p)

        # apply: d_n <- S d_n T^-1; d_{n-1} <- T d_{n-1}; d_{n+1} <- d_{n+1} S^-1
        left_updates: dict[int, list[np.ndarray]] = {}
        right_updates: dict[int, list[np.ndarray]] = {}
        nprev = cat.prev_deg(n)
        if nprev is not None and nprev in diffs:
            left_updates[nprev] = T
        if n1 in diffs and n1 != n:
            right_updates[n1] = Sinv
        for v in range(cat.quiver.n):
            d[v] = (S[v] @ d[v] @ Tinv[v]) % p
        for m0, L in left_updates.items():
            if m0 == n:
                continue
            dm = diffs[m0]
            for v in range(cat.quiver.n):
                dm[v] = (L[v] @ dm[v]) % p
        for m0, R in right_updates.items():
            if m0 == n:
                continue
            dm = diffs[m0]
            for v in range(cat.quiver.n):
                dm[v] = (dm[v] @ R[v]) % p

        # delete copy r_pos from degree n and copy s_pos from degree n+1
        def delete_copy(deg, pos):
            m = mults_at(deg)
            copies, offs = zip(*cat.copy_slots(m))
            gi = copies[pos][0]
            for v in range(cat.quiver.n):
                a0, a1 = copy_slice(offs, copies, pos, v, gen_dims)
                if deg in diffs:
                    diffs[deg][v] = np.delete(diffs[deg][v], np.s_[a0:a1], axis=1)
                pd = cat.prev_deg(deg)
                if pd is not None and pd in diffs:
                    diffs[pd][v] = np.delete(diffs[pd][v], np.s_[a0:a1], axis=0)
            comps[deg][gi - 1] -= 1
            if not any(comps[deg]):
                del comps[deg]
                diffs.pop(deg, None)
                pd = cat.prev_deg(deg)
                if pd is not None:
                    diffs.pop(pd, None)

        # degree n+1 first so offsets at degree n stay valid
        delete_copy(n1, s_pos)
        delete_copy(n, r_pos)
        key = cx.generator_key(i, n)
        exps[key] = exps.get(key, 0) + 1

    out_comps = {n: tuple(m) for n, m in comps.items()}
    out_diffs = {
        n: tuple(from_arr(field, a) for a in d)
        for n, d in diffs.items()
        if n in out_comps and cat.next_deg(n) in out_comps
    }
    return Complex(cat, out_comps, out_diffs), exps


A3 = Quiver(3, [(1, 2), (2, 3)])
A3_OP = Quiver(3, [(2, 1), (3, 2)])
KRONECKER = Quiver(2, [(1, 2), (1, 2)])



def _iterated_rep_of(cat, mults):
    """rep_of as it was written before the one-pass block diagonal: one
    direct_sum per copy, the copies of P_1 first."""
    rep = Rep.zero(cat.quiver, cat.field)
    for i in range(1, cat.quiver.n + 1):
        for _ in range(mults[i - 1]):
            rep = direct_sum(rep, cat.proj(i))
    return rep


@pytest.mark.parametrize(
    "quiver, cap", [(A2, (3, 3)), (A3, (2, 2, 2)), (A3_OP, (2, 2, 2))], ids=["a2", "a3", "a3-op"]
)
def test_rep_of_matches_iterated_direct_sum(quiver, cap):
    cat = ComplexCategory(quiver, F3, "bounded", lo=0, hi=1)
    for mults in itertools.product(*(range(c + 1) for c in cap)):
        got, want = cat.rep_of(mults), _iterated_rep_of(cat, mults)
        assert got.encoding() == want.encoding()
        assert [m.shape for m in got.maps] == [m.shape for m in want.maps]


# the enumerated objects (total dimension <= 3) and all their pairwise sums
_STRIP_GRIDS = {
    "a2-bounded-01-q2": lambda: ComplexCategory(A2, F2, "bounded", lo=0, hi=1),
    "a2-bounded-01-q3": lambda: ComplexCategory(A2, F3, "bounded", lo=0, hi=1),
    "a2-bounded-02-q2": lambda: ComplexCategory(A2, F2, "bounded", lo=0, hi=2),
    "a2-periodic-2-q2": lambda: ComplexCategory(A2, F2, "periodic", period=2),
    "a2-periodic-2-q3": lambda: ComplexCategory(A2, F3, "periodic", period=2),
    "a2-periodic-3-q2": lambda: ComplexCategory(A2, F2, "periodic", period=3),
    "a3-bounded-01": lambda: ComplexCategory(A3, F2, "bounded", lo=0, hi=1),
    "a3-op-bounded-01": lambda: ComplexCategory(A3_OP, F2, "bounded", lo=0, hi=1),
    "kronecker-bounded-01": lambda: ComplexCategory(KRONECKER, F2, "bounded", lo=0, hi=1),
}

# the extension middles between the first few enumerated classes, where
# nearly every object has cones to strip
_MIDDLE_GRIDS = {
    "a2-bounded-02-q3": lambda: ComplexCategory(A2, F3, "bounded", lo=0, hi=2),
    "a2-periodic-2-q3": lambda: ComplexCategory(A2, F3, "periodic", period=2),
    "a3-periodic-2-q2": lambda: ComplexCategory(A3, F2, "periodic", period=2),
}


def _assert_strip_matches_reference(objs):
    cones = 0
    for x in objs:
        m, exps = strip_contractibles(x)
        ref_m, ref_exps = _reference_strip(x)
        assert (m.encoding(), exps) == (ref_m.encoding(), ref_exps)
        assert is_minimal(x) == (not exps)
        cones += bool(exps)
    assert 0 < cones < len(objs)


@pytest.mark.parametrize("grid", sorted(_STRIP_GRIDS))
def test_strip_matches_base_change_reference(grid):
    reg = enumerate_complexes(_STRIP_GRIDS[grid](), max_total_dim=3)
    objs = [reg.object(i) for i in range(len(reg))]
    _assert_strip_matches_reference(
        objs + [direct_sum_cx(a, b) for a, b in itertools.product(objs, repeat=2)]
    )


@pytest.mark.parametrize("grid", sorted(_MIDDLE_GRIDS))
def test_strip_matches_base_change_reference_on_middles(grid):
    reg = enumerate_complexes(_MIDDLE_GRIDS[grid](), max_total_dim=3)
    classes = [reg.object(i) for i in range(min(len(reg), 15))]
    _assert_strip_matches_reference([
        middle_term_cx(a, c, f)
        for a, c in itertools.product(classes, repeat=2)
        for f in ext1_classes(a, c).reps
    ])


# ---- middles and strip remainders are complexes by construction ----


_CONSTRUCTION_GRIDS = {  # one grid over F_3, where a wrong sign in d_B shows
    "a2-bounded-01-q3": (lambda: ComplexCategory(A2, F3, "bounded", lo=0, hi=1),
                         {"max_degree_dim": 2, "max_total_dim": 3}),
    "a2-bounded-02": (lambda: ComplexCategory(A2, F2, "bounded", lo=0, hi=2),
                      {"max_degree_dim": 2, "max_total_dim": 3}),
    "a2-periodic-2": (lambda: ComplexCategory(A2, F2, "periodic", period=2),
                      {"max_total_dim": 3}),
}


@pytest.mark.parametrize("grid", sorted(_CONSTRUCTION_GRIDS))
def test_middles_and_strip_remainders_pass_validation(grid):
    """middle_term_cx and strip_contractibles skip Complex._validate; every
    middle of every pair of classes on the grid, and the remainder of
    stripping it, passes all of its checks when it is run explicitly."""
    make, caps = _CONSTRUCTION_GRIDS[grid]
    objs = list(enumerate_complexes(make(), **caps).objs)
    middles = remainders = 0
    for a, c in itertools.product(objs, repeat=2):
        for f in ext1_classes(a, c).reps:
            mid = middle_term_cx(a, c, f)
            mid._validate(mid.diffs)
            middles += 1
            rest, exps = strip_contractibles(mid)
            if exps:
                rest._validate(rest.diffs)
                remainders += 1
    assert middles > len(objs) ** 2 and remainders


def test_a_hom_basis_map_off_the_cocycles_fails_validation():
    """The negative control: a degree-1 map f_n: a_n -> c_{n+1} that is a
    hom-basis element gives a middle with d d = 0 exactly when it is a
    cocycle, i.e. d_c f_n = 0 and f_n d_a = 0; otherwise _validate rejects
    the middle."""
    cat = ComplexCategory(A2, F2, "bounded", lo=0, hi=2)  # f d_a and d_c f need three degrees
    objs = list(enumerate_complexes(cat, max_degree_dim=2, max_total_dim=3).objs)
    verdicts = set()
    for a, c in itertools.product(objs, repeat=2):
        for n in a.comps:
            n1 = cat.next_deg(n)
            if n1 not in c.comps:
                continue
            nprev = cat.prev_deg(n)
            for b in cat.map_layout(a.comps[n], c.comps[n1])[0]:
                cocycle = all((d @ g).is_zero() for d, g in zip(c.diff(n1), b))
                if nprev in a.comps:
                    cocycle &= all((g @ d).is_zero() for g, d in zip(b, a.diff(nprev)))
                mid = middle_term_cx(a, c, {n: b})
                if cocycle:
                    mid._validate(mid.diffs)
                else:
                    with pytest.raises(SpecError, match=r"d_.* d_.* != 0"):
                        mid._validate(mid.diffs)
                verdicts.add(cocycle)
    assert verdicts == {True, False}


def test_decompose_cx_frozen():
    cat = a1_periodic()
    gens = contractible_generators(cat)
    K = gens["P1@0"]
    X, Y = cat.stalk(1, 0), cat.stalk(1, 1)
    exps, facs = decompose_cx(direct_sum_cx(K, direct_sum_cx(X, Y)))
    assert exps == {"P1@0": 1}
    assert sorted(tuple(sorted(f.comps.items())) for f in facs) == [
        ((0, (1,)),),
        ((1, (1,)),),
    ]


def test_shift_frozen():
    cat = a1_periodic()
    X, Y = cat.stalk(1, 0), cat.stalk(1, 1)
    assert shift(X, 1).encoding() == Y.encoding()
    assert shift(Y, 1).encoding() == X.encoding()
    K = contractible_generators(cat)["P1@0"]
    assert shift(K, 2).encoding() == K.encoding()


def test_shift_negates_odd():
    cat = a1_periodic(3)
    K = contractible_generators(cat)["P1@0"]
    s = shift(K, 1)
    # the identity differential picks up a sign
    vals = sorted(
        m.entries() for d in s.diffs.values() for m in d if not m.is_zero()
    )
    assert vals == [((2,),)]
    assert shift(shift(K, 1), -1).encoding() == K.encoding()


def test_shift_window_overflow():
    cat = a1_bounded(lo=0, hi=1)
    X = cat.stalk(1, 0)
    with pytest.raises(WindowOverflow):
        shift(X, 100)


def test_shift_invariance_of_stable_hom():
    cat = a1_periodic()
    gens = contractible_generators(cat)
    objs = [cat.stalk(1, 0), cat.stalk(1, 1), gens["P1@0"]]
    for a in objs:
        for b in objs:
            assert stable_hom_card(a, b) == stable_hom_card(shift(a, 1), shift(b, 1))


def test_euler_frozen_and_additive():
    cat = a1_bounded(lo=0, hi=2)
    S0, S1 = cat.stalk(1, 0), cat.stalk(1, 1)
    assert euler_exponent_cx(S0, S0) == 1
    assert euler_exponent_cx(S1, S0) == -1  # lives entirely in shift -1
    assert euler_exponent_cx(S0, S1) == -1
    both = direct_sum_cx(S0, S1)
    for y in [S0, S1, both]:
        assert euler_exponent_cx(both, y) == euler_exponent_cx(S0, y) + euler_exponent_cx(S1, y)
        assert euler_exponent_cx(y, both) == euler_exponent_cx(y, S0) + euler_exponent_cx(y, S1)
    # the form must see only degreewise dims: the contractible cone and the
    # split sum share dims but not differentials
    cone = cat.contractible_gen(1, 0)
    for y in [S0, S1, both, cone]:
        assert euler_exponent_cx(cone, y) == euler_exponent_cx(both, y)
        assert euler_exponent_cx(y, cone) == euler_exponent_cx(y, both)


def test_euler_undefined_on_periodic():
    from hallforge.errors import EulerUndefined

    cat = a1_periodic()
    with pytest.raises(EulerUndefined):
        euler_exponent_cx(cat.stalk(1, 0), cat.stalk(1, 1))


def test_ext_cards_are_hom_complex_cohomology():
    cat = a1_bounded(lo=0, hi=2)
    p = cat.field.p
    S0, S1 = cat.stalk(1, 0), cat.stalk(1, 1)
    # ext^1(S0, S1) is one-dimensional: the cone conflation
    assert p ** cx._HomComplex(S0, S1).dim(1) == 2
    assert stable_hom_card(shift(S0, -1), S1) == 2
    assert p ** cx._HomComplex(S1, S0).dim(1) == 1
    assert p ** cx._HomComplex(S0, S1).dim(2) == 1


def test_iso_and_stable_iso():
    cat = a1_periodic()
    gens = contractible_generators(cat)
    K = gens["P1@0"]
    X, Y = cat.stalk(1, 0), cat.stalk(1, 1)
    XY = direct_sum_cx(X, Y)
    assert not iso_test_cx(K, XY)
    assert iso_test_cx(K, K)
    assert stable_iso_test(K, cat.zero_complex())
    assert not stable_iso_test(X, cat.zero_complex())
    assert stable_iso_test(direct_sum_cx(X, K), X)
    # scaling the cone differential is an isomorphism over F3
    cat3 = a1_periodic(3)
    K3 = contractible_generators(cat3)["P1@0"]
    K3b = Complex(
        cat3,
        dict(K3.comps),
        {0: tuple(m + m for m in K3.diffs[0])},
    )
    assert iso_test_cx(K3, K3b)


def test_stable_registry_identifies_contractibles():
    cat = a1_periodic()
    reg = stable_registry(cat)
    gens = contractible_generators(cat)
    z = reg.classify(strip_contractibles(cat.zero_complex())[0])
    for g in gens.values():
        m, _ = strip_contractibles(g)
        assert reg.classify(m) == z
    X = cat.stalk(1, 0)
    assert reg.classify(strip_contractibles(X)[0]) != z


def test_enumeration_cap():
    with pytest.raises(EnumCapExceeded):
        enumerate_complexes(a1_periodic(3), max_degree_dim=2, caps=Caps(max_enum=3))


def test_category_validation():
    with pytest.raises(SpecError):
        ComplexCategory(A1, F2, "bounded", lo=2, hi=0)
    with pytest.raises(SpecError):
        ComplexCategory(A1, F2, "periodic", period=1)
    with pytest.raises(SpecError):
        ComplexCategory(A1, F2, "diagonal")
    with pytest.raises(SpecError):
        ComplexCategory(A1, F2, "bounded", lo=0, hi=1, period=2)


def test_complex_validation():
    cat = a1_bounded()
    P = cat.proj(1)
    good = cat.contractible_gen(1, 0)
    # d d != 0 rejected
    with pytest.raises(SpecError):
        Complex(
            cat,
            {0: (1,), 1: (1,), 2: (1,)},
            {
                0: (Matrix.identity(F2, 1),),
                1: (Matrix.identity(F2, 1),),
            },
        )
    # non-morphism differential rejected
    cat2 = a2_bounded()
    with pytest.raises(SpecError):
        Complex(
            cat2,
            {0: (1, 0), 1: (0, 1)},
            {0: (Matrix.zeros(F2, 0, 1), Matrix(F2, [[1]]))},
        )
    assert good.total_dim() == 2


def _validation_case(name):
    """(category, comps, diffs) that break one check of Complex._validate,
    over F_3 so that the products are reduced mod p, not compared raw."""
    one = Matrix.identity(F3, 1)
    a1, a2 = a1_bounded(3), a2_bounded(3)
    if name == "window":
        return a1, {a1.hi + a1.headroom + 1: (1,)}, {}
    if name == "periodic degree":
        return a1_periodic(3), {2: (1,)}, {}
    if name == "multiplicity vector":
        return a2, {0: (1, 0, 0)}, {}
    if name == "zero end":
        return a1, {0: (1,)}, {0: (one,)}
    if name == "one matrix per vertex":
        return a2, {0: (1, 0), 1: (1, 0)}, {0: (one,)}
    if name == "shape":
        return a1, {0: (1,), 1: (1,)}, {0: (Matrix.identity(F3, 2),)}
    if name == "rep morphism":
        # P_1 -> P_2 over A2 `1 -> 2`, nonzero at vertex 2: Hom(P_1, P_2) = 0
        return a2, {0: (1, 0), 1: (0, 1)}, {0: (Matrix.zeros(F3, 0, 1), Matrix(F3, [[1]]))}
    assert name == "d d"
    return a1, {0: (1,), 1: (2,), 2: (1,)}, {
        0: (Matrix(F3, [[1], [1]]),),
        1: (Matrix(F3, [[1, 1]]),),
    }


@pytest.mark.parametrize(
    "name, error, message",
    [
        ("window", WindowOverflow, "outside representable range"),
        ("periodic degree", SpecError, "periodic degree 2 outside 0..1"),
        ("multiplicity vector", SpecError, "bad multiplicity vector at degree 0"),
        ("zero end", SpecError, "differential at degree 0 has a zero end"),
        ("one matrix per vertex", SpecError, "need one matrix per vertex"),
        ("shape", SpecError, "vertex 1 shape mismatch"),
        ("rep morphism", SpecError, "differential at degree 0 is not a rep morphism"),
        ("d d", SpecError, r"d_1 d_0 != 0 at vertex 1"),
    ],
)
def test_complex_validation_branches(name, error, message):
    cat, comps, diffs = _validation_case(name)
    with pytest.raises(error, match=message):
        Complex(cat, comps, diffs)


def test_complex_validation_reduces_products_mod_p():
    # d_1 d_0 = 1 + 2 = 3 = 0 over F_3: a complex, though not over the integers
    cat = a1_bounded(3)
    x = Complex(
        cat,
        {0: (1,), 1: (2,), 2: (1,)},
        {0: (Matrix(F3, [[1], [1]]),), 1: (Matrix(F3, [[1, 2]]),)},
    )
    assert x.total_dim() == 4


def test_hom_multiplicative_over_sums():
    cat = a1_periodic()
    gens = contractible_generators(cat)
    X, Y, K = cat.stalk(1, 0), cat.stalk(1, 1), gens["P1@0"]
    for a in [X, Y, K]:
        for b in [X, Y]:
            for c in [Y, K]:
                assert hom_card(direct_sum_cx(b, c), a) == hom_card(b, a) * hom_card(c, a)
                assert hom_card(a, direct_sum_cx(b, c)) == hom_card(a, b) * hom_card(a, c)


def test_stable_hom_ignores_contractibles():
    cat = a1_periodic()
    gens = contractible_generators(cat)
    X, Y = cat.stalk(1, 0), cat.stalk(1, 1)
    for a in [X, Y]:
        for b in [X, Y]:
            for g in gens.values():
                assert stable_hom_card(direct_sum_cx(a, g), b) == stable_hom_card(a, b)
                assert stable_hom_card(a, direct_sum_cx(b, g)) == stable_hom_card(a, b)


@st.composite
def random_complex(draw, cat, max_mult=1):
    degs = cat.degrees()
    comps = {}
    for n in degs:
        m = draw(st.integers(0, max_mult))
        if m:
            comps[n] = (m,) if cat.quiver.n == 1 else tuple(
                draw(st.integers(0, max_mult)) for _ in range(cat.quiver.n)
            )
    comps = {n: m for n, m in comps.items() if any(m)}
    diffs = {}
    for n in comps:
        n1 = cat.next_deg(n)
        if n1 is None or n1 not in comps:
            continue
        src, tgt = cat.rep_of(comps[n]), cat.rep_of(comps[n1])
        from hallforge.quiver import hom_basis

        hb = hom_basis(src, tgt)
        coeffs = [draw(st.integers(0, cat.field.p - 1)) for _ in hb]
        mats = []
        for v in range(cat.quiver.n):
            acc = np.zeros((tgt.dims[v], src.dims[v]), dtype=np.int64)
            for cf, b in zip(coeffs, hb):
                if cf:
                    acc += cf * arr(b[v])
            mats.append(from_arr(cat.field, acc % cat.field.p))
        diffs[n] = tuple(mats)
    # rejection: require d d = 0
    for n in diffs:
        n1 = cat.next_deg(n)
        if n1 in diffs:
            for v in range(cat.quiver.n):
                if not (diffs[n1][v] @ diffs[n][v]).is_zero():
                    diffs[n1] = tuple(
                        Matrix.zeros(cat.field, m.rows, m.cols) for m in diffs[n1]
                    )
                    break
    return Complex(cat, comps, diffs)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_random_complex_invariants_periodic(data):
    cat = a1_periodic()
    x = data.draw(random_complex(cat))
    m, exps = strip_contractibles(x)
    assert is_minimal(m)
    assert is_contractible(x) == m.is_zero()
    assert m.total_dim() + 2 * sum(exps.values()) == x.total_dim()
    assert iso_test_cx(x, x)
    assert stable_iso_test(x, m)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_random_complex_invariants_bounded(data):
    cat = a2_bounded()
    x = data.draw(random_complex(cat))
    y = data.draw(random_complex(cat))
    m, exps = strip_contractibles(x)
    assert is_minimal(m)
    assert is_contractible(x) == m.is_zero()
    assert stable_hom_card(x, y) == stable_hom_card(m, y)
    lhs = cat.field.p ** ext1_classes(x, y, enumerate_reps=False).dim
    assert lhs == stable_hom_card(x, shift(y, 1))


# ---- per-category memos of the projective-sum layer ----


def _mults_upto(cat, copies):
    return list(itertools.product(range(copies + 1), repeat=cat.quiver.n))


def _basis_labels(cat, mults, v):
    """Canonical fibre basis of rep_of(mults) at vertex v, each vector
    labelled (generator, copy, position in P_i's fibre)."""
    return [
        (i, t, k)
        for i in range(1, cat.quiver.n + 1)
        for t in range(mults[i - 1])
        for k in range(cat.proj(i).dims[v])
    ]


def _merge_perm_matrix(cat, first, second, v):
    """Permutation matrix from the block-sum basis of rep(first) (+)
    rep(second) to the canonical basis of rep(first + second): the copies
    of second are numbered after those of first, generator by generator."""
    total = tuple(a + b for a, b in zip(first, second))
    block = _basis_labels(cat, first, v) + [
        (i, first[i - 1] + t, k) for i, t, k in _basis_labels(cat, second, v)
    ]
    canon = _basis_labels(cat, total, v)
    perm = np.zeros((len(canon), len(block)), dtype=np.int64)
    for s, label in enumerate(block):
        perm[canon.index(label), s] = 1
    return perm


@pytest.mark.parametrize("p", [2, 3])
def test_projective_memos_match_fresh_computation(p):
    cat = a2_bounded(p)
    vecs = _mults_upto(cat, 2)
    for m in vecs:
        copies = [(i, t) for i in (1, 2) for t in range(m[i - 1])]
        slots = cat.copy_slots(m)
        assert tuple(slot for slot, _ in slots) == tuple(copies)
        for v in range(2):
            labels = _basis_labels(cat, m, v)
            offs = tuple(
                sum(1 for lab in labels if lab[:2] < copy) for copy in copies
            )
            assert tuple(o[v] for _, o in slots) == offs
        assert cat.copy_slots(m) is slots
    rng = np.random.default_rng(p)
    for m1, m2 in itertools.product(vecs, repeat=2):
        fresh = hom_basis(cat.rep_of(m1), cat.rep_of(m2))
        src_dims, tgt_dims = cat.rep_of(m1).dims, cat.rep_of(m2).dims
        layout = cat.map_layout(m1, m2)
        memo, stack, raw_offs, shapes = layout
        assert [[g.entries() for g in b] for b in memo] == [
            [g.entries() for g in b] for b in fresh
        ]
        assert cat.map_layout(m1, m2) is layout
        raw = sum(t * s for t, s in zip(tgt_dims, src_dims))
        assert stack.shape == (raw, len(fresh))
        assert raw_offs == tuple(itertools.accumulate((t * s for t, s in zip(tgt_dims, src_dims)), initial=0))
        assert shapes == tuple(zip(tgt_dims, src_dims))
        # column j: basis element j's vertex matrices, each row-major
        assert np.array_equal(
            arr(stack).T.reshape(len(fresh), raw),
            np.array([np.concatenate([arr(g).reshape(-1) for g in b]) for b in fresh],
                     dtype=np.int64).reshape(len(fresh), raw),
        )
        zero = cat.zero_maps(m1, m2)
        src, tgt = cat.rep_of(m1).dims, cat.rep_of(m2).dims
        assert [z.shape for z in zero] == [(tgt[v], src[v]) for v in range(2)]
        assert all(z.is_zero() for z in zero)
        # the gather equals the permutation-matrix product, on random blocks
        # between (m1 (+) m2) and its swap (m2 (+) m1)
        tl = tuple(from_arr(cat.field, rng.integers(0, p, (tgt[v], src[v]))) for v in range(2))
        tr = tuple(from_arr(cat.field, rng.integers(0, p, (tgt[v], tgt[v]))) for v in range(2))
        br = tuple(from_arr(cat.field, rng.integers(0, p, (src[v], tgt[v]))) for v in range(2))
        got = _merged_diff(cat, m1, m2, m2, m1, tl, tr, br)
        for v in range(2):
            block = np.block([[arr(tl[v]), arr(tr[v])], [np.zeros((src[v], src[v]), dtype=np.int64), arr(br[v])]])
            pout = _merge_perm_matrix(cat, m2, m1, v)
            pin = _merge_perm_matrix(cat, m1, m2, v)
            assert np.array_equal(arr(got[v]), pout @ block @ pin.T % p)


def test_projective_memos_are_per_category():
    c2, c3 = a2_bounded(2), a2_bounded(3)
    vecs = _mults_upto(c2, 1)
    for cat in (c2, c3):
        for m1, m2 in itertools.product(vecs, repeat=2):
            cat.map_layout(m1, m2)
            cat.zero_maps(m1, m2)
            cat.merge_order(m1, m2)

    def matrices(cat):
        out = [g for b, *_ in cat._layout_memo.values() for mats in b for g in mats]
        out += [stack for _, stack, *_ in cat._layout_memo.values()]
        return out + [z for zs in cat._zero_memo.values() for z in zs]

    for cat in (c2, c3):
        assert {m.field.p for m in matrices(cat)} == {cat.field.p}
    # () is a singleton, so only Matrix objects and non-empty rows count
    ids2 = {id(m) for m in matrices(c2)} | {id(r) for m in matrices(c2) for r in m.entries() if r}
    ids3 = {id(m) for m in matrices(c3)} | {id(r) for m in matrices(c3) for r in m.entries() if r}
    assert not ids2 & ids3
    orders2 = {id(a) for o in c2._merge_memo.values() for a in o if a}
    orders3 = {id(a) for o in c3._merge_memo.values() for a in o if a}
    assert orders2 and not orders2 & orders3


def test_memoised_layouts_are_immutable():
    cat = a2_bounded(2)
    m1, m2 = (1, 2), (2, 1)
    slots = cat.copy_slots(m1)
    order = cat.merge_order(m1, m2)
    layout = cat.map_layout(m1, m2)
    basis, stack, offs, shapes = layout
    zero = cat.zero_maps(m1, m2)
    with pytest.raises(TypeError):
        slots[0] = ((2, 0), (0, 0))
    with pytest.raises(TypeError):
        slots[0][0] = (2, 0)
    with pytest.raises(TypeError):
        slots[0][1] = (5, 5)
    with pytest.raises(TypeError):
        layout[0] = ()
    with pytest.raises(TypeError):
        offs[0] = 5
    with pytest.raises(TypeError):
        shapes[0] = (5, 5)
    with pytest.raises(TypeError):
        order[1][0] = 99
    with pytest.raises(TypeError):
        basis[0][1].entries()[0][0] = 1
    with pytest.raises(TypeError):
        stack.entries()[0][0] = 1
    with pytest.raises(TypeError):
        zero[1].entries()[0][0] = 1
    fresh = a2_bounded(2)
    assert cat.copy_slots(m1) == fresh.copy_slots(m1)
    assert order == fresh.merge_order(m1, m2)
    assert all(z.is_zero() for z in cat.zero_maps(m1, m2))
    fresh_basis, fresh_stack, *fresh_rest = fresh.map_layout(m1, m2)
    assert [[g.entries() for g in b] for b in cat.map_layout(m1, m2)[0]] == [
        [g.entries() for g in b] for b in fresh_basis
    ]
    assert stack == fresh_stack
    assert [offs, shapes] == fresh_rest


def _reference_map_space(x, y, k):
    """The layout of the degree-k maps x -> y, built from the reps of every
    degree with no memo: (degrees, stacks, var_start, nvars, raw_offsets,
    raw_dim, shapes) as _MapSpace holds them."""
    cat = x.cat
    degs = range(cat.period) if cat.kind == "periodic" else sorted(set(x.comps) | {n - k for n in y.comps})
    stacks, var_start, raw_offsets, shapes = {}, {}, {}, {}
    nvars = raw = 0
    for n in degs:
        ykdeg = cat.wrap(n + k)
        src, tgt = x.rep(n), y.rep(ykdeg if ykdeg in y.comps else None)
        if src.total_dim() == 0 or tgt.total_dim() == 0:
            continue
        basis = hom_basis(src, tgt)
        offs = [raw]
        for v in range(cat.quiver.n):
            raw += tgt.dims[v] * src.dims[v]
            offs.append(raw)
        if raw == offs[0]:
            continue
        flat = [[e for m in b for r in m.entries() for e in r] for b in basis]
        stacks[n] = [list(c) for c in zip(*flat)] if flat else [[] for _ in range(raw - offs[0])]
        var_start[n] = nvars
        raw_offsets[n] = tuple(offs)
        shapes[n] = tuple((tgt.dims[v], src.dims[v]) for v in range(cat.quiver.n))
        nvars += len(basis)
    return sorted(stacks), stacks, var_start, nvars, raw_offsets, raw, shapes


@pytest.mark.parametrize("grid", ["a2-bounded-total2", "a1-periodic-cap2"])
def test_map_space_layouts_match_unmemoised_reference(grid):
    """_map_space reads each degree's layout from one memo entry per pair
    of nonzero multiplicity vectors (source, target); the layouts equal
    those built anew, on every pair of classes and degree k."""
    reg = _kernel_grid(grid, 3)
    objs = [reg.object(i) for i in range(len(reg))]
    cat = objs[0].cat
    cat._layout_memo.clear()
    pairs = set()
    for x, y in itertools.product(objs, repeat=2):
        for k in (-2, -1, 0, 1, 2):
            s = _map_space(x, y, k)
            got = (s.degrees, {n: [list(r) for r in m.entries()] for n, m in s.stacks.items()},
                   s.var_start, s.nvars, s.raw_offsets, s.raw_dim, s.shapes)
            assert got == _reference_map_space(x, y, k)
            pairs |= {(x.comps[n], y.comps[cat.wrap(n + k)])
                      for n in x.comps if cat.wrap(n + k) in y.comps}
    assert set(cat._layout_memo) == pairs
    # every entry's basis and stack equal those built anew from hom_basis
    for (src, tgt), (basis, stack, offs, _) in cat._layout_memo.items():
        fresh = hom_basis(cat.rep_of(src), cat.rep_of(tgt))
        assert [[g.entries() for g in b] for b in basis] == [[g.entries() for g in b] for b in fresh]
        flat = [[e for m in b for r in m.entries() for e in r] for b in fresh]
        assert stack.shape == (offs[-1], len(fresh))
        assert [list(r) for r in stack.entries()] == ([list(c) for c in zip(*flat)] if flat else [[]] * offs[-1])


# ---- stacked Hom kernels against the per-basis-element computation ----


def _kernel_grid(name, p):
    if name == "a2-bounded-total2":
        return enumerate_complexes(a2_bounded(p), max_total_dim=2)
    return enumerate_complexes(a1_periodic(p), max_degree_dim=2)


def _basis_columns(x, y, k, space):
    """(degree, column, basis element) for every variable of a degree-k map
    space, the basis taken from map_layout one element at a time."""
    cat = x.cat
    for n in space.degrees:
        basis = cat.map_layout(x.mults(n), y.mults(cat.wrap(n + k)))[0]
        cols = space.columns(n)
        assert len(basis) == cols.stop - cols.start
        for j, f in enumerate(basis):
            yield n, cols.start + j, f


def _compose_each(a, b):
    return tuple(u @ w for u, w in zip(a, b))


def _reference_constraint(x, y, k, space):
    """The chain-constraint matrix and kernel, one Matrix product per basis
    element and differential."""
    cat = x.cat
    field = cat.field
    p = field.p
    s = 1 if k % 2 == 1 else -1
    tgt_space = _map_space(x, y, k + 1)
    mat = np.zeros((tgt_space.raw_dim, space.nvars), dtype=np.int64)
    for n, col, f in _basis_columns(x, y, k, space):
        ydeg = cat.wrap(n + k)
        if ydeg is not None:
            term = _compose_each(y.diff(ydeg), f)
            mat[:, col] = (mat[:, col] + _raw_vector(tgt_space, n, term)) % p
        nprev = cat.prev_deg(n)
        if nprev is not None:
            term = _compose_each(f, x.diff(nprev))
            mat[:, col] = (mat[:, col] + s * _raw_vector(tgt_space, nprev, term)) % p
    if space.nvars == 0:
        return mat, []
    if tgt_space.raw_dim == 0:
        return mat, np.eye(space.nvars, dtype=np.int64).tolist()
    return mat, kernel_basis(from_arr(field, mat))


def _reference_homotopy_columns(x, y, k, space):
    """Raw columns of the degenerate degree-k maps, one per basis element h."""
    cat = x.cat
    p = cat.field.p
    hspace = _map_space(x, y, k - 1)
    cols = []
    for n, _, h in _basis_columns(x, y, k - 1, hspace):
        vec = np.zeros(space.raw_dim, dtype=np.int64)
        ydeg = cat.wrap(n + k - 1)
        if ydeg is not None:
            term = _compose_each(y.diff(ydeg), h)
            sgn = 1 if k == 0 else -1
            vec = (vec + sgn * _raw_vector(space, n, term)) % p
        nprev = cat.prev_deg(n)
        if nprev is not None:
            term = _compose_each(h, x.diff(nprev))
            vec = (vec + _raw_vector(space, nprev, term)) % p
        cols.append(vec)
    if cols:
        return np.stack(cols, axis=1)
    return np.zeros((space.raw_dim, 0), dtype=np.int64)


def _reference_chain_basis(x, y):
    """The chain-map basis as built from hom-basis coefficients: each kernel
    vector of the reference constraint combines the basis stacks degree by
    degree (degrees where the map vanishes left out)."""
    field = x.cat.field
    space = _map_space(x, y, 0)
    out = []
    for coeffs in _reference_constraint(x, y, 0, space)[1]:
        comp = {}
        for n in space.degrees:
            cfs = np.array(coeffs[space.columns(n)], dtype=np.int64)
            basis = x.cat.map_layout(x.mults(n), y.mults(n))[0]
            stacks = [np.array([arr(b[v]) for b in basis], dtype=np.int64).reshape(len(cfs), *shape)
                      for v, shape in enumerate(space.shapes[n])]
            mats = tuple(from_arr(field, np.tensordot(cfs, s, axes=1) % field.p) for s in stacks)
            if any(not m.is_zero() for m in mats):
                comp[n] = mats
        out.append(comp)
    return out


def _ordered_entries(maps):
    """Each map's (degree, vertex entries) pairs in its own degree order."""
    return [[(n, tuple(m.entries() for m in mats)) for n, mats in f.items()] for f in maps]


@pytest.mark.parametrize("p", [2, 3])  # the signs only show at p = 3
@pytest.mark.parametrize("grid", ["a2-bounded-total2", "a1-periodic-cap2"])
def test_stacked_kernels_match_per_element_reference(grid, p):
    reg = _kernel_grid(grid, p)
    objs = [reg.object(i) for i in range(len(reg))]
    nonzero = 0
    for x, y in itertools.product(objs, repeat=2):
        # the chain-map basis, entry for entry and in order: it decides
        # find_chain_iso's candidates and decompose_cx's summands
        basis = cx.hom_chain_basis(x, y)
        assert _ordered_entries(basis) == _ordered_entries(_reference_chain_basis(x, y))
        nonzero += len(basis) > 0
        hc = cx._HomComplex(x, y)
        for k in (0, 1):
            space = hc.space(k)
            ref_mat, ref_ker = _reference_constraint(x, y, k, space)
            assert np.array_equal(rows_arr(hc.differential(k), space.nvars), ref_mat)
            ker = hc.cycles(k)
            assert ker == ref_ker
            # the degenerate maps: d^-1 for k = 0, the coboundaries -d^0 for k = 1
            got = rows_arr(hc.differential(k - 1), hc.space(k - 1).nvars) * (1 if k == 0 else -1) % p
            assert np.array_equal(got, _reference_homotopy_columns(x, y, k, space))
    assert nonzero


def _reference_direct_sum(x, y):
    """The degreewise sum assembled block by block, x first."""
    cat = x.cat
    comps = {}
    for n in set(x.comps) | set(y.comps):
        comps[n] = tuple(a + b for a, b in zip(x.mults(n), y.mults(n)))
    diffs = {}
    for n in comps:
        n1 = cat.next_deg(n)
        if n1 is None or n1 not in comps:
            continue
        zero_tr = cat.zero_maps(y.mults(n), x.mults(n1))
        diffs[n] = _merged_diff(
            cat, x.mults(n), y.mults(n), x.mults(n1), y.mults(n1), x.diff(n), zero_tr, y.diff(n)
        )
    return Complex(cat, comps, diffs)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("grid", ["a2-bounded-total2", "a1-periodic-cap2"])
def test_direct_sum_matches_blockwise_reference(grid, p):
    reg = _kernel_grid(grid, p)
    objs = [reg.object(i) for i in range(len(reg))]
    for x, y in itertools.product(objs, repeat=2):
        assert direct_sum_cx(x, y).encoding() == _reference_direct_sum(x, y).encoding()


# ---- the profile-and-rank registry key, and the chain-iso search order ----


def _profile_key(c):
    return tuple((n, c.comps[n]) for n in sorted(c.comps))


class _Stream:
    """Stands in for a registry and keeps every object it is asked to classify."""

    def __init__(self):
        self.objs = []

    def classify(self, obj):
        self.objs.append(obj)


_KEY_GRIDS = {
    "a2-bounded-02-dh": (
        lambda: ComplexCategory(A2, F2, "bounded", lo=0, hi=2),
        {"max_degree_dim": 2, "max_total_dim": 3},
    ),
    "a1-periodic-cap2": (lambda: a1_periodic(), {"max_degree_dim": 2}),
}


@pytest.fixture(scope="module", params=sorted(_KEY_GRIDS))
def key_grid(request):
    """A grid's strict enumeration stream and its stable stream: the minimal
    models of the strict classes, then the minimal models of the middle of
    every extension class between the stable classes found so far (what
    the dh table classifies)."""
    make, cap = _KEY_GRIDS[request.param]
    cat = make()
    strict = _Stream()
    enumerate_complexes(cat, registry=strict, **cap)
    reg = stable_registry(cat)
    stable = []
    for x in strict.objs:
        m = strip_contractibles(x)[0]
        stable.append(m)
        reg.classify(m)
    for a, c in itertools.product(list(reg.objs), repeat=2):
        for f in ext1_classes(a, c).reps:
            stable.append(strip_contractibles(middle_term_cx(a, c, f))[0])
    return cat, strict.objs, stable


def _ids(reg, objs):
    return [reg.classify(x) for x in objs], [x.encoding() for x in reg.objs]


def test_rank_key_keeps_strict_partition_and_ids(key_grid):
    cat, strict, _ = key_grid
    plain = Registry(lambda a, b: iso_test_cx(a, b), _profile_key)
    assert _ids(cx_registry(cat), strict) == _ids(plain, strict)


def test_rank_key_keeps_stable_partition_and_ids(key_grid, monkeypatch):
    cat, _, stable = key_grid
    plain = Registry(lambda a, b: cx.stable_iso_test_minimal(a, b), _profile_key)
    expect = _ids(plain, stable)
    outcomes = []
    found = []
    test, search = cx.stable_iso_test_minimal, cx.find_chain_iso

    def counted_test(a, b, caps=DEFAULT_CAPS):
        outcomes.append(test(a, b, caps))
        return outcomes[-1]

    def recorded_search(a, b, caps=DEFAULT_CAPS):
        phi = search(a, b, caps)
        found.append((a, b, phi))
        return phi

    monkeypatch.setattr(cx, "stable_iso_test_minimal", counted_test)
    monkeypatch.setattr(cx, "find_chain_iso", recorded_search)
    assert _ids(stable_registry(cat), stable) == expect
    # the key leaves only true isomorphisms to test (over A1 every minimal
    # complex has zero differentials, so equal keys mean equal encodings)
    assert all(outcomes)
    assert bool(outcomes) == (cat.kind == "bounded")
    for a, b, phi in found:
        _assert_chain_iso(a, b, phi)


def _assert_chain_iso(x, y, phi):
    """phi is a chain map x -> y whose every component is invertible."""
    cat = x.cat
    assert phi is not None
    assert sorted(phi) == sorted(x.comps)
    for n in x.comps:
        src, tgt = x.rep(n), y.rep(n)
        for v in range(cat.quiver.n):
            assert phi[n][v].shape == (src.dims[v], src.dims[v])
            assert rank(phi[n][v]) == src.dims[v]
        for i, (t, h) in enumerate(cat.quiver.arrows):
            assert phi[n][h - 1] @ src.maps[i] == tgt.maps[i] @ phi[n][t - 1]
        n1 = cat.next_deg(n)
        if n1 in x.comps:
            for v in range(cat.quiver.n):
                assert y.diff(n)[v] @ phi[n][v] == phi[n1][v] @ x.diff(n)[v]


def test_find_chain_iso_returns_none_for_equal_profiles(key_grid):
    cat, _, stable = key_grid
    reg = stable_registry(cat)
    for x in stable:
        reg.classify(x)
    pairs = [(a, b) for a, b in itertools.combinations(reg.objs, 2) if a.comps == b.comps]
    if cat.kind == "periodic":
        # minimal complexes over A1 have zero differentials: the profile decides
        assert not pairs
        return
    assert pairs
    for a, b in pairs:
        assert find_chain_iso(a, b) is None


@pytest.mark.parametrize("p", [2, 3])
def test_find_chain_iso_tries_the_basis_sum_first(p, monkeypatch):
    cat = a1_periodic(p)
    K, S = contractible_generators(cat)["P1@0"], cat.stalk(1, 1)
    x, y = direct_sum_cx(K, S), direct_sum_cx(S, K)
    assert x.encoding() != y.encoding()
    tried = []
    combine = cx._chain_combine

    def recorded(x, y, basis, coeffs):
        tried.append(tuple(coeffs))
        return combine(x, y, basis, coeffs)

    monkeypatch.setattr(cx, "_chain_combine", recorded)
    phi = find_chain_iso(x, y)
    _assert_chain_iso(x, y, phi)
    d = len(tried[0])
    assert d == hom_dim_cx(x, y) > 1
    assert tried[0] == (p - 1,) * d
    assert (0,) * d not in tried


# ---- one-elimination H^0 and H^1 against the two-rank reference ----


def _reference_cocycles(x, y, k):
    """(map space, kernel, cocycle columns, coboundary columns, rank of the
    coboundaries), each rank taken on its own as before H^0 and H^1 shared
    one row reduction."""
    space = _map_space(x, y, k)
    ker = _reference_constraint(x, y, k, space)[1]
    if not ker:
        return space, ker, None, None, 0
    field = x.cat.field
    zcols = cols_arr(_cocycle_columns(space, ker, field.p), space.raw_dim)
    bcols = _reference_homotopy_columns(x, y, k, space)
    bdim = rank(from_arr(field, bcols)) if bcols.shape[1] else 0
    return space, ker, zcols, bcols, bdim


def _reference_stable_hom_dim(x, y):
    space, ker, zcols, bcols, bdim = _reference_cocycles(x, y, 0)
    if not ker:
        return 0
    both = np.concatenate([bcols, zcols], axis=1)
    assert rank(from_arr(x.cat.field, both)) == len(ker)
    return len(ker) - bdim


def _reference_ext1_classes(a, c):
    """(dim, representatives) with the complement from a second reduction
    of [coboundaries | cocycles]."""
    space, ker, zcols, bcols, bdim = _reference_cocycles(a, c, 1)
    if not ker:
        return 0, [{}]
    field = a.cat.field
    p = field.p
    dim = len(ker) - bdim
    piv = rref(from_arr(field, np.concatenate([bcols, zcols], axis=1)))[1]
    compl = [c0 - bcols.shape[1] for c0 in piv if c0 >= bcols.shape[1]]
    assert len(compl) == dim
    reps = []
    for coeffs in itertools.product(range(p), repeat=dim):
        vec = np.zeros(space.raw_dim, dtype=np.int64)
        for cf, j in zip(coeffs, compl):
            vec = (vec + cf * zcols[:, j]) % p
        comp = {}
        for n in space.degrees:
            offs, shapes = space.raw_offsets[n], space.shapes[n]
            mats = tuple(
                from_arr(field, vec[offs[v]:offs[v + 1]].reshape(shape))
                for v, shape in enumerate(shapes)
            )
            if any(not m.is_zero() for m in mats):
                comp[n] = mats
        reps.append(comp)
    return dim, reps


def _cocycle_entries(reps):
    return [
        {n: tuple(m.entries() for m in mats) for n, mats in f.items()} for f in reps
    ]


_COHOMOLOGY_GRIDS = {
    "a2-bounded-01-q2": lambda: ComplexCategory(A2, F2, "bounded", lo=0, hi=1),
    "a2-bounded-01-q3": lambda: ComplexCategory(A2, F3, "bounded", lo=0, hi=1),
    "a2-bounded-02-q2": lambda: ComplexCategory(A2, F2, "bounded", lo=0, hi=2),
    "a2-periodic-2-q3": lambda: ComplexCategory(A2, F3, "periodic", period=2),
    "a3-periodic-2-q2": lambda: ComplexCategory(A3, F2, "periodic", period=2),
    "kronecker-bounded-01": lambda: ComplexCategory(KRONECKER, F2, "bounded", lo=0, hi=1),
}


@pytest.mark.parametrize("grid", sorted(_COHOMOLOGY_GRIDS))
def test_cohomology_matches_two_rank_reference(grid):
    cat = _COHOMOLOGY_GRIDS[grid]()
    reg = enumerate_complexes(cat, max_total_dim=3)
    classes = reg.objs[:15]
    nonzero = [0, 0, 0]
    for a, c in itertools.product(classes, repeat=2):
        shom = stable_hom_dim(a, c)
        assert shom == _reference_stable_hom_dim(a, c)
        ext = ext1_classes(a, c)
        dim, reps = _reference_ext1_classes(a, c)
        assert ext.dim == dim == ext1_classes(a, c, enumerate_reps=False).dim
        # the same representatives in the same order: same middles, same ids
        assert _cocycle_entries(ext.reps) == _cocycle_entries(reps)
        # every degree read off one Hom complex, against the shifted routes
        hc = cx._HomComplex(a, c)
        assert hom_dim_cx(a, c) == hc.cycles_dim(0)
        assert hc.cycles_dim(0) == len(_reference_constraint(a, c, 0, _map_space(a, c, 0))[1])
        if cat.kind == "bounded":
            for i in range(1, cat.hi - cat.lo + 2):
                neg = hc.dim(-i)
                assert neg == _reference_stable_hom_dim(a, shift(c, -i))
                nonzero[2] += neg > 0
        else:
            nonzero[2] += 1
        assert hc.dim(0) == shom
        assert hc.dim(1) == dim
        nonzero[0] += shom > 0
        nonzero[1] += dim > 0
    assert all(nonzero)


@pytest.mark.parametrize("p", [2, 3])
def test_wrong_differential_sign_trips_the_square_check(p, monkeypatch):
    """With s = -1 in every degree, d^k d^(k-1) h = -2 d_y h d_x: zero over
    F_2 (the signs vanish), nonzero over F_3 on cones, where some
    d_y h d_x is an identity: h of degree -1 on (K, K) for H^0, h of
    degree 0 on (K, K[-1]) for H^1."""
    cat = a1_bounded(p)
    K, K1 = cat.contractible_gen(1, 0), cat.contractible_gen(1, 1)
    # cones are contractible: their cocycles are all coboundaries
    assert cx._HomComplex(K, K).dim(0) == 0
    assert cx._HomComplex(K, K1).ext1()[2] == []
    monkeypatch.setattr(cx, "_sign", lambda k: -1)
    if p == 2:
        assert cx._HomComplex(K, K).dim(0) == 0
        assert cx._HomComplex(K, K1).ext1()[2] == []
        return
    with pytest.raises(cx.HomComplexError, match=r"d\^0 d\^-1 != 0"):
        cx._HomComplex(K, K).dim(0)
    with pytest.raises(cx.HomComplexError, match="coboundaries escaped"):
        cx._HomComplex(K, K1).ext1()


def test_hom_complex_is_shared_by_consecutive_calls_on_one_pair(monkeypatch):
    cat = a2_bounded()
    a, c = cat.stalk(1, 0), cat.contractible_gen(1, 0)
    built = []
    real = cx._map_space

    def counted(x, y, k):
        built.append(k)
        return real(x, y, k)

    monkeypatch.setattr(cx, "_map_space", counted)
    ext1_classes(a, c)
    stable_hom_dim(a, c)
    hom_dim_cx(a, c)
    cx._hom_complex(a, c).dim(-1)
    assert sorted(built) == sorted(set(built))  # one layout per degree
    stable_hom_dim(c, a)  # another pair takes the slot
    assert cat._hom_slot.x is c


def test_iso_prefilter_builds_at_most_three_hom_complexes(monkeypatch):
    """The prefilter of iso_test_cx reads dim End(x), dim End(y) and
    dim Hom(x, y), each from one Hom complex; counted up to the stripping
    step, on pairs that pass the encoding and multiplicity checks."""
    cat = a2_bounded(3)
    objs = list(enumerate_complexes(cat, max_total_dim=3).objs)
    K = cat.contractible_gen(1, 0)
    K2 = Complex(cat, K.comps, {0: tuple(-m for m in K.diffs[0])})  # isomorphic, new encoding
    pairs = [(K, K2)] + [
        (x, y)
        for x, y in itertools.permutations(objs, 2)
        if x.comps == y.comps and x.encoding() != y.encoding()
    ]
    assert len(pairs) > 1
    built = []
    seen = []
    real_init, real_strip = cx._HomComplex.__init__, cx.strip_contractibles

    def counted_init(self, x, y):
        built.append((x, y))
        real_init(self, x, y)

    def recorded_strip(x):
        seen.append(len(built))
        return real_strip(x)

    monkeypatch.setattr(cx._HomComplex, "__init__", counted_init)
    monkeypatch.setattr(cx, "strip_contractibles", recorded_strip)
    stripped = 0
    for x, y in pairs:
        cat._hom_slot = None
        built.clear()
        seen.clear()
        same = iso_test_cx(x, y)
        prefilter = seen[0] if seen else len(built)
        assert prefilter <= 3
        stripped += bool(seen)
        if (x, y) == (K, K2):
            assert same and seen == [3, 3]
    assert stripped
