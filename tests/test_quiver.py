"""Quiver representations: hom/ext spaces, decomposition, enumeration.

Oracle strategy: hom and ext dimensions are cross-checked against
brute-force enumeration of all candidate maps, and extension-class counts
against grouping of the full raw cocycle space (coset size = p^rank of the
coboundary map), so the structured solvers never certify themselves.
"""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hallforge.quiver as quiver_mod
from hallforge.config import Caps
from hallforge.errors import EndoSearchCapExceeded, EnumCapExceeded, ExtEnumCapExceeded
from hallforge.linalg import Field, Matrix, block2x2, rref
from hallforge.quiver import (
    Quiver,
    Registry,
    Rep,
    decompose,
    dim_vectors_upto,
    direct_sum,
    enumerate_reps,
    euler_exponent,
    ext1_space,
    find_iso,
    hom_basis,
    hom_dim,
    iso_test,
    middle_term,
    proj_indec,
    rep_invariant,
    rep_registry,
)


def arr(m):
    """A Matrix's entries as an int64 array of its shape."""
    return np.array(m.entries(), dtype=np.int64).reshape(m.shape)


def from_arr(field, a):
    """The Matrix of a 2-d integer array, its shape kept."""
    return Matrix(field, a.tolist(), a.shape[1])

F2 = Field(2)
F3 = Field(3)
A2 = Quiver(2, [(1, 2)])
A3 = Quiver(3, [(1, 2), (2, 3)])


def brute_hom_dim(a, b):
    """Count intertwiners by enumerating every vertex-matrix tuple."""
    p = a.field.p
    sizes = [b.dims[v] * a.dims[v] for v in range(a.quiver.n)]
    total = sum(sizes)
    assert p**total <= 2**16, "oracle only runs on small spaces"
    count = 0
    for flat in itertools.product(range(p), repeat=total):
        gs = []
        pos = 0
        for v in range(a.quiver.n):
            r, c = b.dims[v], a.dims[v]
            seg = np.array(flat[pos:pos + sizes[v]], dtype=np.int64)
            pos += sizes[v]
            gs.append(seg.reshape(r, c) if sizes[v] else np.zeros((r, c), dtype=np.int64))
        ok = True
        for i, (t, h) in enumerate(a.quiver.arrows):
            lhs = np.dot(gs[h - 1], arr(a.maps[i])) % p
            rhs = np.dot(arr(b.maps[i]), gs[t - 1]) % p
            if not np.array_equal(lhs, rhs):
                ok = False
                break
        if ok:
            count += 1
    # intertwiner count is p^dim
    d = 0
    while p**d < count:
        d += 1
    assert p**d == count
    return d


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver(2, [(1, 3)])
    with pytest.raises(ValueError):
        Quiver(2, [(1, 2), (2, 1)])  # oriented cycle
    with pytest.raises(ValueError):
        Quiver(1, [(1, 1)])  # loop
    assert Quiver(3, [(1, 2), (2, 3)]).topological_order == (1, 2, 3)


def test_rep_validation():
    with pytest.raises(ValueError):
        Rep(A2, F2, (1,), [Matrix.zeros(F2, 0, 0)])
    with pytest.raises(ValueError):
        Rep(A2, F2, (1, 1), [Matrix.zeros(F2, 2, 1)])


def test_hom_dims_a2_frozen():
    S1, S2 = Rep.simple(A2, F2, 1), Rep.simple(A2, F2, 2)
    P1 = proj_indec(A2, F2, 1)
    assert hom_dim(S1, S2) == 0
    assert hom_dim(S2, S1) == 0
    assert hom_dim(P1, P1) == 1
    assert hom_dim(S2, P1) == 1  # socle inclusion
    assert hom_dim(P1, S2) == 0
    assert hom_dim(P1, S1) == 1  # top projection


@pytest.mark.parametrize("quiver,p", [(A2, 2), (A2, 3), (A3, 2)])
def test_hom_dim_matches_brute_force(quiver, p):
    field = Field(p)
    reps = [
        Rep.simple(quiver, field, 1),
        proj_indec(quiver, field, 1),
        direct_sum(Rep.simple(quiver, field, 1), Rep.simple(quiver, field, quiver.n)),
    ]
    for a in reps:
        for b in reps:
            assert hom_dim(a, b) == brute_hom_dim(a, b)
            assert len(hom_basis(a, b)) == hom_dim(a, b)


def test_hom_basis_elements_are_intertwiners():
    P1 = proj_indec(A3, F3, 1)
    P2 = proj_indec(A3, F3, 2)
    for g in hom_basis(P2, P1):
        for i, (t, h) in enumerate(A3.arrows):
            lhs = g[h - 1] @ P2.maps[i]
            rhs = P1.maps[i] @ g[t - 1]
            assert lhs.entries() == rhs.entries()


def raw_cocycle_class_counts(a, c, registry):
    """Oracle: enumerate every raw cocycle, group middle terms by iso class,
    divide each bucket by the coset size p^rank(coboundary)."""
    p = a.field.p
    q = a.quiver
    fshapes = [(c.dims[h - 1], a.dims[t - 1]) for t, h in q.arrows]
    sizes = [r * s for r, s in fshapes]
    total = sum(sizes)
    assert p**total <= 2**14, "oracle only runs on small spaces"
    buckets = {}
    for flat in itertools.product(range(p), repeat=total):
        fs = []
        pos = 0
        for i, (r, s) in enumerate(fshapes):
            seg = np.array(flat[pos:pos + sizes[i]], dtype=np.int64)
            pos += sizes[i]
            fs.append(from_arr(a.field, seg.reshape(r, s) if sizes[i] else np.zeros((r, s), dtype=np.int64)))
        b = middle_term(a, c, tuple(fs))
        buckets[registry.classify(b)] = buckets.get(registry.classify(b), 0) + 1
    ext = ext1_space(a, c)
    coset = p ** (total - ext.dim)
    assert all(v % coset == 0 for v in buckets.values())
    return {k: v // coset for k, v in buckets.items()}


def test_ext_classes_match_raw_cocycle_grouping():
    S1, S2 = Rep.simple(A2, F2, 1), Rep.simple(A2, F2, 2)
    reg = rep_registry()
    oracle = raw_cocycle_class_counts(S1, S2, reg)
    ext = ext1_space(S1, S2)
    assert ext.dim == 1 and len(ext.reps) == 2
    mine = {}
    for f in ext.reps:
        k = reg.classify(middle_term(S1, S2, f))
        mine[k] = mine.get(k, 0) + 1
    assert mine == oracle
    # frozen split: one split middle, one projective cover
    P1 = proj_indec(A2, F2, 1)
    split = direct_sum(S2, S1)
    assert mine[reg.classify(split)] == 1
    assert mine[reg.classify(P1)] == 1


def test_ext_classes_match_raw_cocycle_grouping_f3():
    S1, S2 = Rep.simple(A2, F3, 1), Rep.simple(A2, F3, 2)
    reg = rep_registry()
    oracle = raw_cocycle_class_counts(S1, S2, reg)
    ext = ext1_space(S1, S2)
    mine = {}
    for f in ext.reps:
        k = reg.classify(middle_term(S1, S2, f))
        mine[k] = mine.get(k, 0) + 1
    assert mine == oracle
    # q - 1 = 2 nonsplit classes share the projective middle
    P1 = proj_indec(A2, F3, 1)
    assert mine[reg.classify(P1)] == 2


def test_ext_vanishes_backwards():
    S1, S2 = Rep.simple(A2, F2, 1), Rep.simple(A2, F2, 2)
    assert ext1_space(S2, S1).dim == 0


def test_ext_split_class_comes_first():
    S1, S2 = Rep.simple(A2, F3, 1), Rep.simple(A2, F3, 2)
    ext = ext1_space(S1, S2)
    assert all(m.is_zero() for m in ext.reps[0])


def test_ext_enum_cap():
    S1, S2 = Rep.simple(A2, F2, 1), Rep.simple(A2, F2, 2)
    with pytest.raises(ExtEnumCapExceeded) as ei:
        ext1_space(S1, S2, caps=Caps(max_ext_enum=1))
    assert ei.value.code == "EXT_ENUM_CAP_EXCEEDED"


def test_middle_term_dims_and_conflation_shape():
    S1, S2 = Rep.simple(A2, F2, 1), Rep.simple(A2, F2, 2)
    f = ext1_space(S1, S2).reps[1]
    b = middle_term(S1, S2, f)
    assert b.dims == (1, 1)
    # sub factor (first block) is c, quotient (second block) is a
    assert b.maps[0].entries() == ((1,),)


def _reference_direct_sum(a, b):
    """a (+) b assembled arrow by arrow from its two diagonal blocks."""
    field = a.field
    maps = [
        block2x2(
            field,
            a.maps[i],
            Matrix.zeros(field, a.dims[h - 1], b.dims[t - 1]),
            Matrix.zeros(field, b.dims[h - 1], a.dims[t - 1]),
            b.maps[i],
        )
        for i, (t, h) in enumerate(a.quiver.arrows)
    ]
    return Rep(a.quiver, field, tuple(x + y for x, y in zip(a.dims, b.dims)), maps)


@pytest.mark.parametrize(
    "quiver, field, cap", [(A2, F2, (2, 2)), (A3, F3, (1, 1, 1))], ids=["a2-q2", "a3-q3"]
)
def test_direct_sum_matches_blockwise_reference(quiver, field, cap):
    reg = enumerate_reps(quiver, field, cap)
    objs = [reg.object(i) for i in range(len(reg))]
    for a, b in itertools.product(objs, repeat=2):
        assert direct_sum(a, b).encoding() == _reference_direct_sum(a, b).encoding()


def test_proj_indec_a3():
    P1 = proj_indec(A3, F2, 1)
    P2 = proj_indec(A3, F2, 2)
    P3 = proj_indec(A3, F2, 3)
    assert P1.dims == (1, 1, 1)
    assert P2.dims == (0, 1, 1)
    assert P3.dims == (0, 0, 1)
    for P in (P1, P2, P3):
        assert hom_dim(P, P) == 1
    # projectives see no extensions
    for P in (P1, P2, P3):
        for m in (P1, P2, P3, Rep.simple(A3, F2, 2)):
            assert ext1_space(P, m, enumerate_reps=False).dim == 0


def test_proj_trivial_path_first():
    # the fibre at the defining vertex lists the trivial path first, so the
    # coordinate (0, 0) of a P_i -> P_i block reads off the scalar
    q = Quiver(2, [(1, 2), (1, 2)])  # Kronecker is fine for path bookkeeping
    P1 = proj_indec(q, F2, 1)
    assert P1.dims == (1, 2)
    for m in P1.maps:
        assert m.entries() == ((1,), (0,)) or m.entries() == ((0,), (1,))


def test_decompose_known_sums():
    S1, S2 = Rep.simple(A2, F2, 1), Rep.simple(A2, F2, 2)
    P1 = proj_indec(A2, F2, 1)
    big = direct_sum(direct_sum(P1, S1), direct_sum(P1, S2))
    facs = decompose(big)
    assert sorted(f.dims for f in facs) == [(0, 1), (1, 0), (1, 1), (1, 1)]
    for f in facs:
        if f.dims == (1, 1):
            assert iso_test(f, P1)
    assert decompose(Rep.zero(A2, F2)) == []
    assert [f.dims for f in decompose(P1)] == [(1, 1)]


def test_decompose_nontrivial_block_form():
    # dims (1,2) with map [[1],[0]]: splits as P1 + S2 even though the
    # matrix is not block diagonal against the standard ordering
    m = Rep(A2, F2, (1, 2), [Matrix(F2, [[1], [0]])])
    facs = decompose(m)
    assert sorted(f.dims for f in facs) == [(0, 1), (1, 1)]


def test_iso_invariance_under_base_change():
    # conjugating the arrow matrix by invertible vertex maps preserves class
    m = Rep(A3, F3, (1, 2, 1), [Matrix(F3, [[1], [2]]), Matrix(F3, [[1, 1]])])
    g2 = Matrix(F3, [[1, 1], [0, 1]])
    m2 = Rep(
        A3,
        F3,
        (1, 2, 1),
        [g2 @ m.maps[0], m.maps[1] @ Matrix(F3, [[1, 2], [0, 1]])],
    )
    assert iso_test(m, m2)


def test_iso_rejects_different_classes():
    S1, S2 = Rep.simple(A2, F2, 1), Rep.simple(A2, F2, 2)
    P1 = proj_indec(A2, F2, 1)
    assert not iso_test(P1, direct_sum(S1, S2))
    assert not iso_test(S1, S2)


def test_enumerate_a2_cap11_frozen_order():
    reg = enumerate_reps(A2, F2, (1, 1))
    assert len(reg) == 5
    got = [(reg.object(i).dims, tuple(m.entries() for m in reg.object(i).maps)) for i in range(5)]
    assert got == [
        ((0, 0), ((),)),  # 0x0 arrow matrix
        ((0, 1), (((),),)),  # 1x0 arrow matrix: one empty row
        ((1, 0), ((),)),  # 0x1 arrow matrix: no rows
        ((1, 1), (((0,),),)),
        ((1, 1), (((1,),),)),
    ]


def test_enumerate_a2_cap22_class_count():
    # indecomposables of A2: S1, S2, P1; classes with dims <= (2,2) are
    # multisets S1^a S2^b P1^c with a+c <= 2, b+c <= 2: 14 classes
    reg = enumerate_reps(A2, F2, (2, 2))
    assert len(reg) == 14


def test_enumerate_cap_exceeded():
    with pytest.raises(EnumCapExceeded):
        enumerate_reps(A2, F3, (2, 2), caps=Caps(max_enum=10))


def test_enumerate_counts_every_vector_before_classifying():
    # only the last vector in graded-lex order, (2, 2) with 2^4 matrix
    # tuples, exceeds the cap: it raises before the first classification
    caps = Caps(max_enum=8)
    reg = rep_registry(caps)
    seen = []
    classify = reg.classify
    reg.classify = lambda obj: seen.append(obj) or classify(obj)
    with pytest.raises(EnumCapExceeded, match=r"^16 matrix tuples at dims \(2, 2\) exceed cap 8$"):
        enumerate_reps(A2, F2, (2, 2), caps=caps, registry=reg)
    assert seen == []
    # below that, nothing overflows: one classification per matrix tuple,
    # 2^(d1 d2) at each dims (d1, d2), and the 8 classes S1^a S2^b P1^c
    assert len(enumerate_reps(A2, F2, (2, 1), caps=caps, registry=reg)) == 8
    assert len(seen) == 1 + 1 + 1 + 2 + 1 + 4


def test_registry_id_stability():
    reg = enumerate_reps(A2, F2, (1, 1))
    P1 = proj_indec(A2, F2, 1)
    assert reg.classify(P1) == 4
    assert reg.classify(P1) == 4
    assert reg.classify(Rep.simple(A2, F2, 1)) == 2
    assert len(reg) == 5  # no new classes minted


def test_dim_vectors_graded_lex():
    assert dim_vectors_upto((2, 1)) == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
        (2, 0),
        (2, 1),
    ]


def test_euler_exponent_frozen():
    assert euler_exponent(A2, (1, 0), (0, 1)) == -1
    assert euler_exponent(A2, (0, 1), (1, 0)) == 0
    assert euler_exponent(A3, (1, 1, 1), (1, 1, 1)) == 1


quiver_choice = st.sampled_from([A2, A3])


@st.composite
def random_rep(draw, quiver, p):
    field = Field(p)
    dims = tuple(draw(st.integers(0, 2)) for _ in range(quiver.n))
    maps = []
    for t, h in quiver.arrows:
        r, c = dims[h - 1], dims[t - 1]
        entries = draw(
            st.lists(
                st.lists(st.integers(0, p - 1), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
        maps.append(Matrix(field, entries, c))
    return Rep(quiver, field, dims, maps)


@given(quiver_choice, st.data())
@settings(max_examples=60, deadline=None)
def test_hereditary_euler_identity(quiver, data):
    a = data.draw(random_rep(quiver, 2))
    c = data.draw(random_rep(quiver, 2))
    lhs = hom_dim(a, c) - ext1_space(a, c, enumerate_reps=False).dim
    assert lhs == euler_exponent(quiver, a.dims, c.dims)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_decompose_factors_sum_back(data):
    m = data.draw(random_rep(A2, 2))
    facs = decompose(m)
    if not facs:
        assert m.total_dim() == 0
        return
    total = facs[0]
    for f in facs[1:]:
        total = direct_sum(total, f)
    assert sorted(total.dims) == sorted(m.dims) or total.dims == m.dims
    assert iso_test(total, m)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_iso_test_is_reflexive_and_respects_homdims(data):
    a = data.draw(random_rep(A2, 2))
    b = data.draw(random_rep(A2, 2))
    assert iso_test(a, a)
    if iso_test(a, b):
        assert a.dims == b.dims
        assert hom_dim(a, a) == hom_dim(b, b)


# ---- invariant-keyed registry and memoised factors ----


class RecordingRegistry(Registry):
    """rep_registry that also remembers every object it classified."""

    def __init__(self, caps=Caps()):
        super().__init__(lambda x, y: iso_test(x, y, caps), rep_invariant)
        self.seen = []

    def classify(self, obj):
        i = super().classify(obj)
        self.seen.append((obj, i))
        return i


def test_find_iso_on_zero_objects():
    zero = Rep.zero(A2, F2)
    for a, b in ((zero, zero), (direct_sum(zero, zero), zero)):
        phi = find_iso(a, b)
        assert phi is not None
        assert [m.shape for m in phi] == [(0, 0), (0, 0)]
    assert find_iso(zero, Rep.simple(A2, F2, 1)) is None


def oracle_partition(objs):
    """Class index per object, by exhaustive find_iso against one
    representative of each class found so far."""
    reps, labels = [], []
    for obj in objs:
        for j, r in enumerate(reps):
            if find_iso(r, obj) is not None:
                labels.append(j)
                break
        else:
            labels.append(len(reps))
            reps.append(obj)
    return labels


@pytest.mark.parametrize(
    "quiver, field, cap, sums",
    [(A3, F2, (1, 1, 1), True), (A2, F3, (2, 2), False)],
    ids=["A3-q2-cap111", "A2-q3-cap22"],
)
def test_invariant_keyed_partition_matches_exhaustive_iso(quiver, field, cap, sums):
    reg = enumerate_reps(quiver, field, cap, registry=RecordingRegistry())
    if sums:
        # every encoding on this grid is its own class; direct sums in
        # both orders add isomorphic encodings
        grid = [reg.object(i) for i in range(len(reg))]
        for x, y in itertools.product(grid, repeat=2):
            reg.classify(direct_sum(x, y))
    objs = [o for o, _ in reg.seen]
    ids = [i for _, i in reg.seen]
    assert len(objs) > len(reg)
    # registry ids are first-encounter, and so are the oracle's labels
    assert ids == oracle_partition(objs)


def _rebuilt(quiver, field, enc):
    """The rep of `quiver` over `field` whose encoding is `enc`."""
    dims, entries = enc
    maps = [
        Matrix(field, rows, dims[t - 1])
        for (t, h), rows in zip(quiver.arrows, entries)
    ]
    return Rep(quiver, field, dims, maps)


def _fresh(m):
    """m rebuilt on a new Quiver, so it shares no memo with m."""
    return _rebuilt(Quiver(m.quiver.n, m.quiver.arrows), m.field, m.encoding())


def _count_decompose(monkeypatch):
    """Patch decompose to count its calls per (p, caps, encoding)."""
    calls = Counter()
    real = quiver_mod.decompose

    def counting(m, caps=Caps()):
        calls[(m.field.p, caps, m.encoding())] += 1
        return real(m, caps)

    monkeypatch.setattr(quiver_mod, "decompose", counting)
    return calls


def _encodings(reps):
    return [r.encoding() for r in reps]


def test_decompose_once_per_registered_object(monkeypatch):
    q = Quiver(2, [(1, 2)])
    calls = _count_decompose(monkeypatch)
    reg = enumerate_reps(q, F3, (2, 2), registry=RecordingRegistry())
    grid = [reg.object(i) for i in range(len(reg))]
    # direct sums leave the enumerated grid, so classifying them reaches
    # the invariants and the factors; both orders give new encodings of one
    # class, and their summands recur across parents
    for x, y in itertools.product(grid, repeat=2):
        if x.total_dim() + y.total_dim() <= 3:
            reg.classify(direct_sum(x, y))
    assert calls and max(calls.values()) == 1
    assert set(q._factors) == set(calls)
    for (p, caps, enc), facs in q._factors.items():
        fresh = _rebuilt(Quiver(2, [(1, 2)]), Field(p), enc)
        assert _encodings(facs) == _encodings(decompose(fresh, caps))
    assert len({o.encoding() for o, _ in reg.seen}) > len(grid)
    for (p, enc), inv in q._invariants.items():
        assert inv == rep_invariant(_rebuilt(Quiver(2, [(1, 2)]), Field(p), enc))


def test_memoised_factors_recomputed_for_other_caps(monkeypatch):
    q = Quiver(2, [(1, 2)])
    S1, S2, P1 = Rep.simple(q, F2, 1), Rep.simple(q, F2, 2), proj_indec(q, F2, 1)
    a = direct_sum(direct_sum(S1, S2), P1)
    b = direct_sum(P1, direct_sum(S1, S2))
    assert a.encoding() != b.encoding()
    calls = _count_decompose(monkeypatch)
    default, other = Caps(), Caps(max_endo_enum=2**15)
    assert iso_test(a, b)
    assert iso_test(a, b)
    # a new object with a's encoding reads the same memo entry
    assert iso_test(_rebuilt(q, F2, a.encoding()), b)
    assert calls[(2, default, a.encoding())] == 1
    assert iso_test(a, b, other)
    assert calls[(2, other, a.encoding())] == 1
    key = (2, other, a.encoding())
    memo = _encodings(q._factors[key])
    assert memo == _encodings(decompose(_fresh(a), other))
    # each call returns a list of its own
    facs = quiver_mod._cached_factors(a, other)
    facs.clear()
    facs.append(a)
    assert _encodings(q._factors[key]) == memo
    assert _encodings(quiver_mod._cached_factors(a, other)) == memo
    assert len(memo) == 3


def test_caps_are_immutable_values():
    # Caps key the factor memo, so they compare and hash by value
    assert Caps() == Caps() and hash(Caps()) == hash(Caps())
    assert Caps() != Caps(max_enum=8) and Caps(max_enum=8) == Caps(max_enum=8)
    assert {Caps(max_enum=8): 1}[Caps(max_enum=8)] == 1
    caps = Caps()
    assert (caps.max_ext_enum, caps.max_hom_enum, caps.max_endo_enum, caps.max_enum) == (
        2**16, 2**20, 2**16, 2**20
    )
    with pytest.raises(AttributeError):
        caps.max_enum = 8
    with pytest.raises(AttributeError):
        del caps.max_enum
    assert caps == Caps() and caps.max_enum == 2**20
    for name in ("max_ext_enum", "max_hom_enum", "max_endo_enum", "max_enum"):
        with pytest.raises(ValueError, match=f"^{name} must be positive$"):
            Caps(**{name: 0})


def _eager_decompose(m, caps=Caps()):
    """decompose as it was before its sampled candidates were built lazily:
    the single basis vectors and all pairwise sums go into one list before
    the first is tried.  Kept as the reference body."""
    if m.total_dim() == 0:
        return []
    basis = hom_basis(m, m)
    d = len(basis)
    if d == 1:
        return [m]
    p = m.field.p
    if p**d <= caps.max_endo_enum:
        for coeffs in itertools.product(range(p), repeat=d):
            if not any(coeffs):
                continue
            phi = quiver_mod._combine_rect(m, m, basis, coeffs)
            split = quiver_mod._fitting_split(m, phi)
            if split is not None:
                a, b = split
                return quiver_mod._cached_factors(a, caps) + quiver_mod._cached_factors(b, caps)
        return [m]
    candidates = list(basis)
    for i in range(d):
        for j in range(i + 1, d):
            candidates.append(tuple(x + y for x, y in zip(basis[i], basis[j])))
    for phi in candidates:
        split = quiver_mod._fitting_split(m, phi)
        if split is not None:
            a, b = split
            return quiver_mod._cached_factors(a, caps) + quiver_mod._cached_factors(b, caps)
    raise EndoSearchCapExceeded("sampling found no splitting")


def test_sampled_candidates_match_the_eager_list(monkeypatch):
    # S1^3 (+) S2^3 (+) S3^3 on A2 with a disjoint vertex: End has dimension
    # 27, so 2^27 endomorphisms exceed the cap and the top levels sample
    q = Quiver(3, [(1, 2)])
    m = Rep.zero(q, F2)
    for v in (1, 2, 3):
        for _ in range(3):
            m = direct_sum(m, Rep.simple(q, F2, v))
    assert hom_dim(m, m) == 27 and 2**27 > Caps().max_endo_enum
    split = quiver_mod._fitting_split
    add = Matrix.__add__

    def run(decomp):
        """Factor encodings, the _fitting_split calls made (object and
        candidate entries, in order) and the matrix sums built."""
        calls, sums = [], []

        def recording_split(x, phi):
            calls.append((x.encoding(), tuple(g.entries() for g in phi)))
            return split(x, phi)

        def counting_add(x, y):
            sums.append(1)
            return add(x, y)

        with monkeypatch.context() as mp:
            mp.setattr(quiver_mod, "_fitting_split", recording_split)
            mp.setattr(quiver_mod, "decompose", decomp)
            mp.setattr(Matrix, "__add__", counting_add)
            facs = decomp(_fresh(m))
        return _encodings(facs), calls, len(sums)

    lazy_facs, lazy_calls, lazy_sums = run(quiver_mod.decompose)
    eager_facs, eager_calls, eager_sums = run(_eager_decompose)
    assert lazy_facs == eager_facs
    assert sorted(f[0] for f in lazy_facs) == [(0, 0, 1)] * 3 + [(0, 1, 0)] * 3 + [(1, 0, 0)] * 3
    assert lazy_calls == eager_calls
    # the first candidate splits at every level, so no pairwise sum is built
    assert lazy_sums == 0 < eager_sums


def test_capped_factor_search_is_not_memoised(monkeypatch):
    kr = Quiver(2, [(1, 2), (1, 2)])
    # regular Kronecker module of length 2: indecomposable, End = k[x]/x^2
    r = Rep(kr, F2, (2, 2), [Matrix.identity(F2, 2), Matrix(F2, [[0, 1], [0, 0]])])
    assert hom_dim(r, r) == 2
    assert _encodings(decompose(_fresh(r))) == [r.encoding()]
    calls = _count_decompose(monkeypatch)
    tiny = Caps(max_endo_enum=1)
    for _ in range(2):
        with pytest.raises(EndoSearchCapExceeded):
            quiver_mod._cached_factors(r, tiny)
    assert calls[(2, tiny, r.encoding())] == 2
    assert (2, tiny, r.encoding()) not in kr._factors


def test_one_quiver_keeps_fields_apart():
    q = Quiver(2, [(1, 2)])
    # det 2: rank 2 over F2, invertible over F3
    arrow = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    m2 = Rep(q, F2, (3, 3), [Matrix(F2, arrow)])
    m3 = Rep(q, F3, (3, 3), [Matrix(F3, arrow)])
    assert m2.encoding() == m3.encoding()
    assert rep_invariant(m2) != rep_invariant(m3)
    assert rep_invariant(m2) == rep_invariant(_fresh(m2))
    assert rep_invariant(m3) == rep_invariant(_fresh(m3))
    # P1 + P1 + S1 + S2 over F2, P1^3 over F3
    dims2 = sorted(f.dims for f in quiver_mod._cached_factors(m2, Caps()))
    dims3 = [f.dims for f in quiver_mod._cached_factors(m3, Caps())]
    assert dims2 == [(0, 1), (1, 0), (1, 1), (1, 1)]
    assert dims3 == [(1, 1)] * 3
    assert {k[0] for k in q._invariants} == {2, 3}
    assert {k[0] for k in q._factors} == {2, 3}


# ---- one-elimination Ext^1 against the two-elimination reference ----


def _reference_ext1(a, c):
    """(dim, representatives) of Ext^1(a, c) as computed before Hom and
    Ext^1 shared one row reduction: the coboundary matrix built on its own
    (c_alpha g_tail - g_head a_alpha), its rank, then a second reduction of
    [its pivot columns | I] for the complement coordinates."""
    p = a.field.p
    q = a.quiver
    fshapes = [(c.dims[h - 1], a.dims[t - 1]) for t, h in q.arrows]
    foffs = [0, *itertools.accumulate(r * s for r, s in fshapes)]
    gshapes = [(c.dims[v], a.dims[v]) for v in range(q.n)]
    goffs = [0, *itertools.accumulate(r * s for r, s in gshapes)]
    z, g = foffs[-1], goffs[-1]
    d = np.zeros((z, g), dtype=np.int64)
    for i, (t, h) in enumerate(q.arrows):
        rows = slice(foffs[i], foffs[i + 1])
        if foffs[i + 1] == foffs[i]:
            continue
        if goffs[t] > goffs[t - 1]:
            d[rows, goffs[t - 1]:goffs[t]] = np.kron(
                arr(c.maps[i]), np.eye(a.dims[t - 1], dtype=np.int64)
            ) % p
        if goffs[h] > goffs[h - 1]:
            d[rows, goffs[h - 1]:goffs[h]] = (
                d[rows, goffs[h - 1]:goffs[h]]
                - np.kron(np.eye(c.dims[h - 1], dtype=np.int64), arr(a.maps[i]).T)
            ) % p
    compl = []
    if z:
        piv = rref(from_arr(a.field, d))[1]
        r = len(piv)
        if z > r:
            probe = np.concatenate([d[:, list(piv)], np.eye(z, dtype=np.int64)], axis=1)
            compl = [c0 - r for c0 in rref(from_arr(a.field, probe))[1] if c0 >= r]
            assert len(compl) == z - r
    reps = []
    for coeffs in itertools.product(range(p), repeat=len(compl)):
        vec = np.zeros(z, dtype=np.int64)
        vec[compl] = coeffs
        reps.append(tuple(
            from_arr(a.field, vec[foffs[i]:foffs[i + 1]].reshape(shape))
            for i, shape in enumerate(fshapes)
        ))
    return len(compl), reps


A3_INWARD = Quiver(3, [(1, 2), (3, 2)])
KRONECKER = Quiver(2, [(1, 2), (1, 2)])
D4 = Quiver(4, [(1, 4), (2, 4), (3, 4)])

_EXT_GRIDS = {
    "a2-q2-cap22": (A2, F2, (2, 2)),
    "a2-q3-cap22": (A2, F3, (2, 2)),
    "a3-q2-cap111": (A3, F2, (1, 1, 1)),
    "a3-inward-q3-cap121": (A3_INWARD, F3, (1, 2, 1)),
    "kronecker-q2-cap21": (KRONECKER, F2, (2, 1)),
    "d4-q2-cap1111": (D4, F2, (1, 1, 1, 1)),
}


def _cocycle_entries(reps):
    return [tuple(m.entries() for m in f) for f in reps]


@pytest.mark.parametrize("grid", sorted(_EXT_GRIDS))
def test_ext1_space_matches_two_elimination_reference(grid):
    quiver, field, cap = _EXT_GRIDS[grid]
    objs = enumerate_reps(quiver, field, cap).objs
    nonsplit = 0
    for a, c in itertools.product(objs, repeat=2):
        ext = ext1_space(a, c)
        dim, reps = _reference_ext1(a, c)
        assert ext.dim == dim
        # the same representatives in the same order: same middles, same ids
        assert _cocycle_entries(ext.reps) == _cocycle_entries(reps)
        assert ext.hom_dim == ext1_space(a, c, enumerate_reps=False).hom_dim == hom_dim(a, c)
        nonsplit += dim > 0
    assert nonsplit


def _kron_constraint_matrix(a, b):
    """_hom_constraint_matrix as it was built from Kronecker products:
    vec(g_h A) = (I (x) A^T) vec(g_h) and vec(B g_t) = (B (x) I) vec(g_t),
    one block of rows per arrow, concatenated."""
    p = a.field.p
    q = a.quiver
    shapes = [(b.dims[v], a.dims[v]) for v in range(q.n)]
    sizes = [r * c for r, c in shapes]
    offs = [0, *itertools.accumulate(sizes)]
    total = offs[-1]
    rows = []
    for i, (t, h) in enumerate(q.arrows):
        rcount = b.dims[h - 1] * a.dims[t - 1]
        if rcount == 0:
            continue
        block = np.zeros((rcount, total), dtype=np.int64)
        if sizes[h - 1]:
            block[:, offs[h - 1]:offs[h]] = np.kron(
                np.eye(b.dims[h - 1], dtype=np.int64), arr(a.maps[i]).T
            ) % p
        if sizes[t - 1]:
            block[:, offs[t - 1]:offs[t]] = (
                block[:, offs[t - 1]:offs[t]]
                - np.kron(arr(b.maps[i]), np.eye(a.dims[t - 1], dtype=np.int64)) % p
            ) % p
        rows.append(block)
    if rows:
        mat = np.concatenate(rows, axis=0) % p
    else:
        mat = np.zeros((0, total), dtype=np.int64)
    return mat, offs, shapes


@pytest.mark.parametrize("grid", sorted(_EXT_GRIDS))
def test_hom_constraint_matrix_matches_kron_reference(grid):
    quiver, field, cap = _EXT_GRIDS[grid]
    objs = enumerate_reps(quiver, field, cap).objs
    assert any(o.total_dim() == 0 for o in objs)
    for a, c in itertools.product(objs, repeat=2):
        rows, offs, shapes = quiver_mod._hom_constraint_matrix(a, c)
        ref, ref_offs, ref_shapes = _kron_constraint_matrix(a, c)
        # Python int rows, entry for entry those of the reference array
        assert all(type(x) is int for row in rows for x in row)
        assert [len(row) for row in rows] == [ref.shape[1]] * ref.shape[0]
        assert rows == ref.tolist()
        assert (offs, shapes) == (ref_offs, ref_shapes)


# ---- memoised classification against unshared objects ----


def _classify_middles(grid, rebuild):
    """Registry ids and iso_test answers for every middle of every pair of
    `grid`, classified as built (sharing the quiver's memos) or, with
    `rebuild`, each rebuilt on a quiver of its own."""
    answers = []

    def iso(x, y):
        answers.append(iso_test(x, y))
        return answers[-1]

    reg = Registry(iso, rep_invariant)
    ids = []
    for a, c in itertools.product(grid, repeat=2):
        for f in ext1_space(a, c).reps:
            b = middle_term(a, c, f)
            ids.append(reg.classify(_fresh(b) if rebuild else b))
    return ids, answers


@pytest.mark.parametrize("grid", ["a3-inward-q3-cap121", "kronecker-q2-cap21", "d4-q2-cap1111"])
def test_shared_memos_classify_like_unshared_objects(grid):
    quiver, field, cap = _EXT_GRIDS[grid]
    shared = Quiver(quiver.n, quiver.arrows)
    objs = enumerate_reps(shared, field, cap).objs
    ids, answers = _classify_middles(objs, rebuild=False)
    assert shared._factors  # the shared run filled the quiver's memos
    assert (ids, answers) == _classify_middles(objs, rebuild=True)
    # iso searches ran and found isomorphisms (on Dynkin grids rep_invariant
    # already separates the classes, so no search there answers False)
    assert True in answers
