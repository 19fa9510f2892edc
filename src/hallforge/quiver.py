"""Representations of acyclic quivers over F_p.

Conventions:

- Vertices are numbered 1..n; arrows are (tail, head) pairs and the quiver
  must be acyclic.
- A representation assigns dims[v] to each vertex and to each arrow a
  matrix of shape (dims[head], dims[tail]) acting on column vectors.
- A morphism a -> b is a tuple of per-vertex matrices g_v of shape
  (b.dims[v], a.dims[v]) with g_head a_alpha = b_alpha g_tail for every
  arrow alpha.
- Hom(a, c) = ker delta and Ext^1(a, c) = coker delta for the one map
  delta (g_v) = (g_head a_alpha - c_alpha g_tail) into the arrow-indexed
  cocycles f_alpha: a_tail -> c_head; one row reduction of [delta | I]
  gives rank delta and a complement of im delta (see ext1_space).
  Ext^1(a, c) classifies conflations c >-> B ->> a; the middle term of a
  cocycle f puts c first: B_v = c_v (+) a_v with arrow blocks
  [[c_alpha, f_alpha], [0, a_alpha]].

Everything is deterministic: dimension vectors enumerate in graded
lexicographic order, matrices in lexicographic entry order, and registries
assign ids in first-encounter order.
"""

from __future__ import annotations

import itertools
import operator

from .config import Caps, DEFAULT_CAPS
from .errors import (
    EndoSearchCapExceeded,
    EnumCapExceeded,
    ExtEnumCapExceeded,
    IsoEnumCapExceeded,
)
from .linalg import (
    Field,
    Matrix,
    _columns,
    _kernel_rows,
    _mul,
    _rref_rows,
    _solve_rows,
    block2x2,
    kernel_basis,
    rank,
    rref,
)


class Quiver:
    """Finite acyclic quiver with vertices 1..n.

    Holds the iso-class memos that every Rep of the quiver shares, memoised
    by encoding on the quiver, so a representation rebuilt as a new object
    is neither keyed nor split again: ``_invariants[(p, encoding)]`` for
    rep_invariant and ``_factors[(p, caps, encoding)]`` for _cached_factors.
    """

    __slots__ = ("n", "arrows", "_topo", "_invariants", "_factors")

    def __init__(self, n: int, arrows):
        if n < 1:
            raise ValueError("quiver needs at least one vertex")
        arrows = tuple((int(t), int(h)) for t, h in arrows)
        for t, h in arrows:
            if not (1 <= t <= n and 1 <= h <= n):
                raise ValueError(f"arrow ({t},{h}) out of vertex range 1..{n}")
        self.n = n
        self.arrows = arrows
        self._topo = self._toposort()
        self._invariants: dict = {}
        self._factors: dict = {}

    def _toposort(self) -> tuple[int, ...]:
        indeg = {v: 0 for v in range(1, self.n + 1)}
        for _, h in self.arrows:
            indeg[h] += 1
        order = []
        ready = [v for v in range(1, self.n + 1) if indeg[v] == 0]
        while ready:
            v = ready.pop(0)
            order.append(v)
            for t, h in self.arrows:
                if t == v:
                    indeg[h] -= 1
                    if indeg[h] == 0:
                        ready.append(h)
        if len(order) != self.n:
            raise ValueError("quiver has an oriented cycle")
        return tuple(order)

    @property
    def topological_order(self) -> tuple[int, ...]:
        return self._topo

    def __eq__(self, other):
        return isinstance(other, Quiver) and (self.n, self.arrows) == (other.n, other.arrows)

    def __hash__(self):
        return hash((self.n, self.arrows))

    def __repr__(self):
        return f"Quiver({self.n}, {list(self.arrows)})"


class Rep:
    """Representation: dimension vector plus one matrix per arrow."""

    __slots__ = ("quiver", "field", "dims", "maps", "_enc")

    def __init__(self, quiver: Quiver, field: Field, dims, maps):
        dims = tuple(int(d) for d in dims)
        if len(dims) != quiver.n or any(d < 0 for d in dims):
            raise ValueError("dimension vector must list one value >= 0 per vertex")
        maps = tuple(maps)
        if len(maps) != len(quiver.arrows):
            raise ValueError("need one matrix per arrow")
        for (t, h), m in zip(quiver.arrows, maps):
            if m.shape != (dims[h - 1], dims[t - 1]):
                raise ValueError(
                    f"arrow ({t},{h}) matrix has shape {m.shape}, "
                    f"expected {(dims[h - 1], dims[t - 1])}"
                )
        self.quiver = quiver
        self.field = field
        self.dims = dims
        self.maps = maps
        self._enc = None

    @classmethod
    def zero(cls, quiver: Quiver, field: Field) -> "Rep":
        dims = (0,) * quiver.n
        maps = [Matrix.zeros(field, 0, 0) for _ in quiver.arrows]
        return cls(quiver, field, dims, maps)

    @classmethod
    def simple(cls, quiver: Quiver, field: Field, v: int) -> "Rep":
        dims = tuple(1 if u == v else 0 for u in range(1, quiver.n + 1))
        maps = [
            Matrix.zeros(field, dims[h - 1], dims[t - 1]) for t, h in quiver.arrows
        ]
        return cls(quiver, field, dims, maps)

    def total_dim(self) -> int:
        return sum(self.dims)

    def encoding(self) -> tuple:
        """Canonical hashable form: dims plus row-major arrow entries."""
        if self._enc is None:
            self._enc = (self.dims, tuple(m.entries() for m in self.maps))
        return self._enc

    def __eq__(self, other):
        return isinstance(other, Rep) and self.encoding() == other.encoding()

    def __hash__(self):
        return hash(self.encoding())

    def __repr__(self):
        return f"Rep(dims={self.dims})"


def direct_sum(a: Rep, b: Rep) -> Rep:
    """a (+) b, a block first: the split extension of b by a."""
    zero = tuple(
        Matrix.zeros(a.field, a.dims[h - 1], b.dims[t - 1]) for t, h in a.quiver.arrows
    )
    return middle_term(b, a, zero)


def _hom_constraint_matrix(
    a: Rep, b: Rep
) -> tuple[list[list[int]], list[int], list[tuple[int, int]]]:
    """delta (g_v) = (g_head a_alpha - b_alpha g_tail) as int rows mod p.
    Columns: row-major vec of each g_v; rows: row-major f_alpha, arrow by
    arrow.  The arrow matrices are read off the encodings.

    Returns (rows, vertex offsets, per-vertex shapes (rows, cols) of g_v).
    """
    p = a.field.p
    shapes = list(zip(b.dims, a.dims))
    offs = [0, *itertools.accumulate(map(operator.mul, b.dims, a.dims))]
    total = offs[-1]
    rows = []
    for (t, h), am, bm in zip(a.quiver.arrows, a.encoding()[1], b.encoding()[1]):
        ah, at, bt = a.dims[h - 1], a.dims[t - 1], b.dims[t - 1]
        oh, ot = offs[h - 1], offs[t - 1]
        # row (i, j) of f_alpha = g_h A - B g_t holds A[:, j] at g_h[i, :] and
        # -B[i, :] at g_t[:, j]; t != h (the quiver is acyclic), so the two
        # never overlap
        acols = list(zip(*am)) if ah else [()] * at
        for i, brow in enumerate(bm):
            gi = oh + i * ah
            negb = [-x % p for x in brow]
            for j in range(at):
                row = [0] * total
                row[gi:gi + ah] = acols[j]
                row[ot + j:ot + bt * at:at] = negb
                rows.append(row)
    return rows, offs, shapes


def _unvec(field: Field, vecs, offs, shapes) -> list[tuple[Matrix, ...]]:
    """The Matrix tuples whose row-major entries are the int vectors
    `vecs`: segment offs[i]:offs[i + 1] of each is a shapes[i] matrix."""
    return [
        tuple(Matrix(field, [vec[o + j * c:o + j * c + c] for j in range(r)], c)
              for o, (r, c) in zip(offs, shapes))
        for vec in vecs
    ]


def hom_basis(a: Rep, b: Rep) -> list[tuple[Matrix, ...]]:
    """Basis of the space of morphisms a -> b, as per-vertex matrix tuples."""
    rows, offs, shapes = _hom_constraint_matrix(a, b)
    if offs[-1] == 0:
        return []
    piv = _rref_rows(rows, offs[-1], a.field.p)
    ker = _kernel_rows(rows, piv, offs[-1], a.field.p)
    return _unvec(a.field, ker, offs, shapes)


def hom_dim(a: Rep, b: Rep) -> int:
    rows, offs, _ = _hom_constraint_matrix(a, b)
    return offs[-1] - len(_rref_rows(rows, offs[-1], a.field.p))


class Ext1Space:
    """Ext^1(a, c) data: dimension, one cocycle per class, dim Hom(a, c)."""

    def __init__(self, dim: int, reps: list[tuple[Matrix, ...]] | None, hom_dim: int):
        self.dim = dim
        self.reps = reps
        self.hom_dim = hom_dim


def ext1_space(a: Rep, c: Rep, caps: Caps = DEFAULT_CAPS, enumerate_reps: bool = True) -> Ext1Space:
    """Ext^1(a, c) and dim Hom(a, c); if requested, one cocycle per class.

    Hom = ker delta and Ext^1 = coker delta, delta = _hom_constraint_matrix.
    One row reduction of [delta | I] gives both: the pivots left of I number
    rank delta, and those inside I pick the coordinate vectors spanning a
    complement of im delta.  Classes enumerate lexicographically over the
    complement coordinates, so the zero (split) class always comes first.
    """
    field = a.field
    p = field.p
    delta, offs, _ = _hom_constraint_matrix(a, c)
    z, g = len(delta), offs[-1]
    for k, row in enumerate(delta):  # [delta | I], in place
        row.extend([0] * z)
        row[g + k] = 1
    piv = _rref_rows(delta, g + z, p)
    assert len(piv) == z
    compl = [c0 - g for c0 in piv if c0 >= g]
    dim = len(compl)
    hom = g - (z - dim)  # the other pivots are a basis of im delta
    if not enumerate_reps:
        return Ext1Space(dim, None, hom)
    count = p**dim
    if count > caps.max_ext_enum:
        raise ExtEnumCapExceeded(
            f"|Ext^1| = {p}^{dim} exceeds enumeration cap {caps.max_ext_enum}"
        )
    # cocycle coordinates: f_alpha: a_tail -> c_head, row-major, arrow by arrow
    fshapes = [(c.dims[h - 1], a.dims[t - 1]) for t, h in a.quiver.arrows]
    foffs = [0, *itertools.accumulate(r * s for r, s in fshapes)]
    vecs = []
    for coeffs in itertools.product(range(p), repeat=dim):
        vec = [0] * z
        for c0, x in zip(compl, coeffs):
            vec[c0] = x
        vecs.append(vec)
    return Ext1Space(dim, _unvec(field, vecs, foffs, fshapes), hom)


def middle_term(a: Rep, c: Rep, f: tuple[Matrix, ...]) -> Rep:
    """Middle term of the conflation c >-> B ->> a twisted by cocycle f."""
    field = a.field
    dims = tuple(x + y for x, y in zip(c.dims, a.dims))
    maps = []
    for i, (t, h) in enumerate(a.quiver.arrows):
        maps.append(
            block2x2(
                field,
                c.maps[i],
                f[i],
                Matrix.zeros(field, a.dims[h - 1], c.dims[t - 1]),
                a.maps[i],
            )
        )
    return Rep(a.quiver, field, dims, maps)


def proj_indec(quiver: Quiver, field: Field, i: int) -> Rep:
    """Indecomposable projective at vertex i; basis = paths starting at i.

    The trivial path is the first basis vector of the fibre at i, which the
    complex layer relies on when reading off scalar blocks P_i -> P_i.
    """
    if not (1 <= i <= quiver.n):
        raise ValueError(f"vertex {i} out of range")
    paths_to: dict[int, list[tuple[int, ...]]] = {v: [] for v in range(1, quiver.n + 1)}
    frontier = [((), i)]
    paths_to[i].append(())
    while frontier:
        new_frontier = []
        for path, v in frontier:
            for ai, (t, h) in enumerate(quiver.arrows):
                if t == v:
                    ext = path + (ai,)
                    paths_to[h].append(ext)
                    new_frontier.append((ext, h))
        frontier = new_frontier
    dims = tuple(len(paths_to[v]) for v in range(1, quiver.n + 1))
    maps = []
    for ai, (t, h) in enumerate(quiver.arrows):
        m = [[0] * dims[t - 1] for _ in range(dims[h - 1])]
        index_h = {p: k for k, p in enumerate(paths_to[h])}
        for k, p in enumerate(paths_to[t]):
            m[index_h[p + (ai,)]][k] = 1
        maps.append(Matrix(field, m, dims[t - 1]))
    return Rep(quiver, field, dims, maps)


def euler_exponent(quiver: Quiver, d1, d2) -> int:
    """log_q of the Euler form: sum_v d1_v d2_v - sum_(t->h) d1_t d2_h."""
    e = sum(x * y for x, y in zip(d1, d2))
    for t, h in quiver.arrows:
        e -= d1[t - 1] * d2[h - 1]
    return e


def _power_eventual(maps: tuple[Matrix, ...], total: int) -> tuple[Matrix, ...]:
    """phi^(2^k) with 2^k >= total; image/kernel then split the module."""
    out = []
    for x in maps:
        e, p = x.entries(), x.field.p
        for _ in range((max(total, 1) - 1).bit_length()):
            e = [[v % p for v in r] for r in _mul(e, e, x.cols)]
        out.append(Matrix(x.field, e, x.cols))
    return tuple(out)


def _sub_rep(m: Rep, vecs: list[list[list[int]]]) -> Rep:
    """Restrict m to the subrepresentation spanned at each vertex v by the
    vectors vecs[v - 1] (independent, int lists of length m.dims[v - 1])."""
    p = m.field.p
    dims = tuple(len(vs) for vs in vecs)
    maps = []
    for (t, h), am in zip(m.quiver.arrows, m.encoding()[1]):
        # solve span_h X = m_alpha span_t, both sides as int rows
        span_h = [[v[i] for v in vecs[h - 1]] for i in range(m.dims[h - 1])]
        img = [[sum(x * y for x, y in zip(arow, v)) % p for v in vecs[t - 1]] for arow in am]
        sol = _solve_rows(span_h, img, dims[h - 1], dims[t - 1], p)
        assert sol is not None, "subspace not arrow-stable"
        maps.append(Matrix(m.field, sol, dims[t - 1]))
    return Rep(m.quiver, m.field, dims, maps)


def _image_kernel_cols(e: tuple[Matrix, ...]) -> tuple[list, list]:
    """Per vertex: int vectors spanning the image (the pivot columns of
    e_v) and the kernel of e_v."""
    im, ker = [], []
    for x in e:
        cols = _columns(x.entries(), x.cols)
        im.append([list(cols[c]) for c in rref(x)[1]])
        ker.append(kernel_basis(x))
    return im, ker


def _fitting_split(m: Rep, phi: tuple[Matrix, ...]) -> tuple[Rep, Rep] | None:
    """Split m along the eventual image/kernel of phi, if proper.

    An automorphism (every phi_v of full rank) is never proper, so its
    powers are not taken."""
    if all(rank(x) == x.rows for x in phi):
        return None
    im, ker = _image_kernel_cols(_power_eventual(phi, m.total_dim()))
    if not any(im):
        return None
    return _sub_rep(m, im), _sub_rep(m, ker)


def decompose(m: Rep, caps: Caps = DEFAULT_CAPS) -> list[Rep]:
    """Krull-Schmidt factors of m, by eventual-image splitting.

    Exhausts End(m) when its cardinality fits the cap (so indecomposability
    is certified: every endomorphism found nilpotent or invertible); beyond
    the cap only sampled combinations are tried and failure to split raises.
    The two summands of a split recurse through _cached_factors, so a summand
    that recurs, such as a simple, is split only the first time.
    """
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
            split = _fitting_split(m, _combine_rect(m, m, basis, coeffs))
            if split is not None:
                a, b = split
                return _cached_factors(a, caps) + _cached_factors(b, caps)
        return [m]
    # sampled search: single basis vectors, then pairwise sums, built only
    # as far as the search gets (the first candidate almost always splits)
    pairs = (tuple(x + y for x, y in zip(f, g)) for f, g in itertools.combinations(basis, 2))
    for phi in itertools.chain(basis, pairs):
        split = _fitting_split(m, phi)
        if split is not None:
            a, b = split
            return _cached_factors(a, caps) + _cached_factors(b, caps)
    raise EndoSearchCapExceeded(
        f"|End| = {p}^{d} exceeds cap {caps.max_endo_enum} and sampling found no splitting"
    )


def find_iso(a: Rep, b: Rep, caps: Caps = DEFAULT_CAPS) -> tuple[Matrix, ...] | None:
    """An isomorphism a -> b found by enumerating Hom(a, b), or None."""
    if a.dims != b.dims:
        return None
    if a.total_dim() == 0:
        # the zero map is the only morphism, and it is invertible here
        return tuple(Matrix.zeros(a.field, 0, 0) for _ in range(a.quiver.n))
    basis = hom_basis(a, b)
    d = len(basis)
    p = a.field.p
    if p**d > caps.max_hom_enum:
        raise IsoEnumCapExceeded(
            f"|Hom| = {p}^{d} exceeds iso search cap {caps.max_hom_enum}"
        )
    for coeffs in itertools.product(range(p), repeat=d):
        if not any(coeffs):
            continue
        phi = _combine_rect(a, b, basis, coeffs)
        if all(rank(phi[v]) == a.dims[v] for v in range(a.quiver.n)):
            return phi
    return None


def _combine_rect(a: Rep, b: Rep, basis, coeffs) -> tuple[Matrix, ...]:
    """The morphism a -> b summing coeffs_j basis_j, vertex by vertex."""
    out = []
    for v in range(a.quiver.n):
        acc = [[0] * a.dims[v] for _ in range(b.dims[v])]
        for c, g in zip(coeffs, basis):
            if c:
                acc = [[x + c * y for x, y in zip(r, s)] for r, s in zip(acc, g[v].entries())]
        out.append(Matrix(a.field, acc, a.dims[v]))
    return tuple(out)


def rep_invariant(m: Rep) -> tuple:
    """Iso invariant of m, memoised by encoding on the quiver: dims,
    dim End(m), and the pair (dim Hom(S_v, m), dim Hom(m, S_v)) for every
    simple S_v."""
    key = (m.field.p, m.encoding())
    inv = m.quiver._invariants.get(key)
    if inv is None:
        homs = []
        for v in range(1, m.quiver.n + 1):
            if m.dims[v - 1] == 0:
                homs.append((0, 0))
                continue
            s = Rep.simple(m.quiver, m.field, v)
            homs.append((hom_dim(s, m), hom_dim(m, s)))
        inv = m.quiver._invariants[key] = (m.dims, hom_dim(m, m), tuple(homs))
    return inv


def _cached_factors(m: Rep, caps: Caps) -> list[Rep]:
    """Krull-Schmidt factors of m, memoised by encoding on the quiver, as a
    fresh list.  EndoSearchCapExceeded is raised again on every call."""
    key = (m.field.p, caps, m.encoding())
    facs = m.quiver._factors.get(key)
    if facs is None:
        facs = m.quiver._factors[key] = tuple(decompose(m, caps))
    return list(facs)


def iso_test(a: Rep, b: Rep, caps: Caps = DEFAULT_CAPS) -> bool:
    """Isomorphism test: dims, hom-dimension invariants, then matching of
    Krull-Schmidt factors (with direct hom enumeration on indecomposables)."""
    if a.dims != b.dims:
        return False
    if a.encoding() == b.encoding():
        return True
    if rep_invariant(a) != rep_invariant(b):
        return False
    end = rep_invariant(a)[1]
    if hom_dim(a, b) != end or hom_dim(b, a) != end:
        return False
    try:
        fa = _cached_factors(a, caps)
        fb = _cached_factors(b, caps)
    except EndoSearchCapExceeded:
        return find_iso(a, b, caps) is not None
    if len(fa) != len(fb):
        return False
    used = [False] * len(fb)
    for x in fa:
        hit = False
        for j, y in enumerate(fb):
            if used[j] or x.dims != y.dims:
                continue
            if x.encoding() == y.encoding() or find_iso(x, y, caps) is not None:
                used[j] = True
                hit = True
                break
        if not hit:
            return False
    return True


class Registry:
    """Iso-class registry: stable integer ids in first-encounter order.

    ``iso`` decides isomorphism.  ``key`` is an iso invariant that buckets
    the classes (``rep_invariant`` for reps, memoised by encoding on the
    quiver; the degree profile plus the rank of every differential block for
    complexes); it is computed for each classified object that misses the
    encoding table and stored with each registered class, so ``iso`` only
    runs between objects whose keys agree.  Not thread-safe: one registry
    per thread.  Encodings of later witnesses are remembered so repeat
    classifications hit the fast path.
    """

    def __init__(self, iso, key):
        self._iso = iso
        self._key = key
        self.objs: list = []
        self._by_enc: dict = {}
        self._by_key: dict = {}

    def __len__(self):
        return len(self.objs)

    def object(self, i: int):
        return self.objs[i]

    def classify(self, obj) -> int:
        enc = obj.encoding()
        hit = self._by_enc.get(enc)
        if hit is not None:
            return hit
        key = self._key(obj)
        for i in self._by_key.get(key, []):
            if self._iso(self.objs[i], obj):
                self._by_enc[enc] = i
                return i
        i = len(self.objs)
        self.objs.append(obj)
        self._by_enc[enc] = i
        self._by_key.setdefault(key, []).append(i)
        return i


def dim_vectors_upto(cap: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All dimension vectors <= cap componentwise, graded-lex order."""
    ranges = [range(c + 1) for c in cap]
    vecs = [tuple(v) for v in itertools.product(*ranges)]
    vecs.sort(key=lambda d: (sum(d), d))
    return vecs


def enumerate_reps(
    quiver: Quiver,
    field: Field,
    dim_cap: tuple[int, ...],
    caps: Caps = DEFAULT_CAPS,
    registry: Registry | None = None,
) -> Registry:
    """Register every iso class of reps with dims <= dim_cap (componentwise).

    Deterministic: dimension vectors in graded-lex order, matrix tuples in
    lexicographic entry order, classes registered on first encounter.  Every
    vector's matrix tuples are counted against caps.max_enum before any is
    built, so an overflow raises before the first classification.
    """
    if registry is None:
        registry = rep_registry(caps)
    p = field.p
    slices = []
    for dims in dim_vectors_upto(dim_cap):
        sizes = [dims[h - 1] * dims[t - 1] for t, h in quiver.arrows]
        count = p**sum(sizes)
        if count > caps.max_enum:
            raise EnumCapExceeded(
                f"{count} matrix tuples at dims {dims} exceed cap {caps.max_enum}"
            )
        slices.append((dims, sizes))
    for dims, sizes in slices:
        for flat in itertools.product(range(p), repeat=sum(sizes)):
            maps = []
            pos = 0
            for i, (t, h) in enumerate(quiver.arrows):
                r, c = dims[h - 1], dims[t - 1]
                seg = flat[pos:pos + sizes[i]]
                pos += sizes[i]
                maps.append(Matrix(field, [seg[j * c:j * c + c] for j in range(r)], c))
            registry.classify(Rep(quiver, field, dims, maps))
    return registry


def rep_registry(caps: Caps = DEFAULT_CAPS) -> Registry:
    return Registry(lambda x, y: iso_test(x, y, caps), rep_invariant)
