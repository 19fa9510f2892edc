"""Complexes of projective representations: bounded windows and Z/m-periodic.

Objects are cochain complexes X with X_n a finite direct sum of the
indecomposable projectives P_1..P_k (stored as a multiplicity vector, copies
listed generator by generator) and differentials d_n: X_n -> X_{n+1} that
are representation morphisms with d d = 0.  Bounded categories fix a user
window [lo, hi] plus internal headroom so shifts stay representable;
periodic categories index degrees by Z/m (m >= 2).  The window rule lives
in `ComplexCategory` alone: `degrees()`, `wrap` (None off the edge),
`next_deg` and `cone_degrees()`; shifts and cones read only these.

Degree-k map conventions (the signs matter and are locked together):

- chain maps (k = 0):      d_y f - f d_x = 0
- extension cocycles (k=1, f_n: x_n -> y_{n+1}):  d_y f + f d_x = 0
- null-homotopies (k = 0): f_n = d_{y,n-1} h_n + h_{n+1} d_{x,n}
- cocycle coboundaries:    f_n = h_{n+1} d_{x,n} - d_{y,n} h_n
- shift(x, k)_n = x_{n+k} with differential (-1)^k d_{x,n+k}

A cocycle f for the pair (a, c) has middle term B_n = c_n (+) a_n with
differential blocks [[d_c, f], [0, d_a]]; replacing f by a coboundary shift
conjugates B by [[1, h], [0, 1]], so iso classes of middles only depend on
the extension class.

Contractible complexes are generated by the cones K(i, n), n in
`cone_degrees()`: P_i in degrees n and next_deg(n) with identity differential.  A complex has such a summand exactly
when some d_n has a nonzero scalar block P_i -> P_i.  Stripping removes one
cone per such block by Gaussian elimination (a Schur complement of d_n and
deletions from d_{n-1} and d_{n+1}), which produces the minimal model plus
the generator exponents; `is_minimal` is the same scan finding no block.
The tests check stripping against an independent route that solves
d h + h d = id directly.

What depends only on multiplicity vectors is memoised on the category, one
table per fact: the Rep of a vector (`rep_of`), its copy slots with their
fibre offsets (`copy_slots`), the Hom layout of a pair of vectors, i.e. its
basis, the basis stacked as one Matrix and the raw offsets (`map_layout`,
which every map space and the enumeration read), the zero map of a pair
(`zero_maps`) and the merge order of a pair (`merge_order`).  The rule
d d = 0 is checked in one place, `_square_fault`, for validated complexes
and for enumerated differentials alike.
"""

from __future__ import annotations

import itertools
from operator import mul

from .config import Caps, DEFAULT_CAPS
from .errors import (
    EndoSearchCapExceeded,
    EnumCapExceeded,
    EulerUndefined,
    ExtEnumCapExceeded,
    IsoEnumCapExceeded,
    SpecError,
    WindowOverflow,
)
from .linalg import Field, Matrix, _columns, _mul, kernel_basis, rank, rref, solve_matrix
from .quiver import (
    Quiver,
    Registry,
    Rep,
    _combine_rect,
    _image_kernel_cols,
    _power_eventual,
    _sub_rep,
    euler_exponent,
    find_iso,
    hom_basis,
    proj_indec,
)


class ComplexCategory:
    """Ambient category: quiver, field, and the degree bookkeeping."""

    def __init__(
        self,
        quiver: Quiver,
        field: Field,
        kind: str,
        lo: int | None = None,
        hi: int | None = None,
        period: int | None = None,
        headroom: int | None = None,
    ):
        if kind not in ("bounded", "periodic"):
            raise SpecError(f"unknown complex category kind {kind!r}")
        self.quiver = quiver
        self.field = field
        self.kind = kind
        if kind == "bounded":
            if lo is None or hi is None or lo > hi:
                raise SpecError("bounded category needs lo <= hi")
            if period is not None:
                raise SpecError("bounded category takes no period")
            self.lo = int(lo)
            self.hi = int(hi)
            width = self.hi - self.lo
            self.headroom = int(headroom) if headroom is not None else width + 2
            if self.headroom < width + 1:
                raise SpecError("headroom must cover at least the window width + 1")
            self.period = None
        else:
            if period is None or period < 2:
                raise SpecError("periodic category needs period >= 2")
            if lo is not None or hi is not None or headroom is not None:
                raise SpecError("periodic category takes no window bounds")
            self.period = int(period)
            self.lo = self.hi = None
            self.headroom = None
        self._projs = tuple(proj_indec(quiver, field, i) for i in range(1, quiver.n + 1))
        # dim Hom(P_i, P_j): the quiver's Euler form, as Ext^1(P, -) = 0
        self._proj_homs = [[euler_exponent(quiver, p.dims, r.dims) for r in self._projs]
                           for p in self._projs]
        self._zero_mults = (0,) * quiver.n
        # One memo per fact that depends only on multiplicity vectors (see the
        # module docstring), filled on first use and holding immutable values.
        self._rep_cache: dict[tuple[int, ...], Rep] = {}
        self._slots_memo: dict = {}
        self._layout_memo: dict = {}
        self._zero_memo: dict = {}
        self._merge_memo: dict = {}
        self._hom_slot = None  # the last pair's _HomComplex, see _hom_complex

    # ---- degrees ----

    def degrees(self) -> list[int]:
        """User-facing degrees (the window, or all residues)."""
        if self.kind == "bounded":
            return list(range(self.lo, self.hi + 1))
        return list(range(self.period))

    def wrap(self, n: int) -> int | None:
        """Map an integer degree to a storage degree; None if off the edge."""
        if self.kind == "periodic":
            return n % self.period
        if self.lo - self.headroom <= n <= self.hi + self.headroom:
            return n
        return None

    def next_deg(self, n: int) -> int | None:
        return self.wrap(n + 1)

    def cone_degrees(self) -> list[int]:
        """Degrees n with n and next_deg(n) both in degrees(): where the
        cones K(i, n) of the window sit (lo..hi-1, or every residue)."""
        degs = self.degrees()
        return [n for n in degs if self.next_deg(n) in degs]

    def prev_deg(self, n: int) -> int | None:
        return self.wrap(n - 1)

    # ---- projective bookkeeping ----

    def proj(self, i: int) -> Rep:
        return self._projs[i - 1]

    def rep_of(self, mults: tuple[int, ...]) -> Rep:
        """Canonical rep of a multiplicity vector: P_1 copies, then P_2, ...

        Raises SpecError, before building or caching anything, unless the
        vector has one entry >= 0 per vertex."""
        mults = tuple(int(m) for m in mults)
        hit = self._rep_cache.get(mults)
        if hit is not None:
            return hit
        if len(mults) != self.quiver.n or any(m < 0 for m in mults):
            raise SpecError(f"bad multiplicity vector {list(mults)}")
        # block diagonal in the copy order: the iterated direct sum
        dims = [sum(m * p.dims[v] for m, p in zip(mults, self._projs)) for v in range(self.quiver.n)]
        maps = []
        for a, (t, h) in enumerate(self.quiver.arrows):
            rows = []
            for (i, _), off in self.copy_slots(mults):
                left = [0] * off[t - 1]
                right = [0] * (dims[t - 1] - off[t - 1] - self.proj(i).dims[t - 1])
                rows += [left + list(r) + right for r in self.proj(i).maps[a].entries()]
            maps.append(Matrix(self.field, rows, dims[t - 1]))
        rep = self._rep_cache[mults] = Rep(self.quiver, self.field, dims, maps)
        return rep

    def copy_slots(self, mults: tuple[int, ...]) -> tuple:
        """Per copy, in canonical order: its slot (generator, copy index) and
        the tuple of its fibre offsets at each vertex."""
        hit = self._slots_memo.get(mults)
        if hit is None:
            slots = []
            acc = [0] * self.quiver.n
            for i in range(1, self.quiver.n + 1):
                for t in range(mults[i - 1]):
                    slots.append(((i, t), tuple(acc)))
                    acc = [a + d for a, d in zip(acc, self.proj(i).dims)]
            hit = self._slots_memo[mults] = tuple(slots)
        return hit

    def map_layout(self, src: tuple[int, ...], tgt: tuple[int, ...]) -> tuple:
        """The maps rep_of(src) -> rep_of(tgt) in one degree of a map space:
        (Hom basis as per-vertex matrix tuples, the basis as one Matrix whose
        column j holds element j's raw coordinates (its vertex matrices,
        vertex by vertex, each row-major), the raw offsets of the vertex
        blocks from 0 then the end, and the per-vertex (rows, cols)).  The
        basis is empty when the maps have no raw coordinates."""
        key = (src, tgt)
        try:
            return self._layout_memo[key]
        except KeyError:
            pass
        s, t = self.rep_of(src).dims, self.rep_of(tgt).dims
        offs = [0]
        for v in range(self.quiver.n):
            offs.append(offs[-1] + t[v] * s[v])
        basis = tuple(hom_basis(self.rep_of(src), self.rep_of(tgt))) if offs[-1] else ()
        flat = [[x for m in b for r in m.entries() for x in r] for b in basis]
        stack = Matrix._of_reduced(self.field, _columns(flat, offs[-1]), len(basis))
        hit = self._layout_memo[key] = (basis, stack, tuple(offs), tuple(zip(t, s)))
        return hit

    def zero_maps(self, src: tuple[int, ...], tgt: tuple[int, ...]) -> tuple[Matrix, ...]:
        """The zero map rep_of(src) -> rep_of(tgt), one matrix per vertex."""
        key = (src, tgt)
        hit = self._zero_memo.get(key)
        if hit is None:
            s, t = self.rep_of(src).dims, self.rep_of(tgt).dims
            hit = tuple(Matrix.zeros(self.field, t[v], s[v]) for v in range(self.quiver.n))
            self._zero_memo[key] = hit
        return hit

    def merge_order(self, first: tuple[int, ...], second: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """Per vertex: the block-sum index of each canonical basis vector.

        rep_of(first + second) lists copies generator by generator, so the
        block-sum basis of rep_of(first) (+) rep_of(second) (all of first,
        then all of second) is interleaved; entry j of the vertex-v tuple is
        the block-sum position of canonical basis vector j.
        """
        key = (first, second)
        hit = self._merge_memo.get(key)
        if hit is None:
            total = tuple(a + b for a, b in zip(first, second))
            first_dims = self.rep_of(first).dims
            # block-sum offsets of every copy, by its slot in the canonical
            # order: copy t of second sits in slot first[i - 1] + t
            block = dict(self.copy_slots(first))
            for (i, t), off in self.copy_slots(second):
                block[(i, first[i - 1] + t)] = tuple(a + b for a, b in zip(first_dims, off))
            order = [[0] * d for d in self.rep_of(total).dims]
            for slot, off in self.copy_slots(total):
                for v, d in enumerate(self.proj(slot[0]).dims):
                    start = block[slot][v]
                    order[v][off[v]:off[v] + d] = range(start, start + d)
            hit = self._merge_memo[key] = tuple(map(tuple, order))
        return hit

    def mult_dim(self, mults: tuple[int, ...]) -> int:
        return sum(m * self.proj(i + 1).total_dim() for i, m in enumerate(mults))

    # ---- equality / keys ----

    def signature(self) -> tuple:
        if self.kind == "bounded":
            return ("bounded", self.quiver.n, self.quiver.arrows, self.field.p, self.lo, self.hi)
        return ("periodic", self.quiver.n, self.quiver.arrows, self.field.p, self.period)

    def __eq__(self, other):
        return isinstance(other, ComplexCategory) and self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())

    # ---- constructors ----

    def zero_complex(self) -> "Complex":
        return Complex(self, {}, {})

    def stalk(self, i: int, n: int) -> "Complex":
        """P_i concentrated in degree n."""
        mults = tuple(1 if j == i else 0 for j in range(1, self.quiver.n + 1))
        n0 = self.wrap(n)
        if n0 is None:
            raise WindowOverflow(f"degree {n} outside the representable range")
        return Complex(self, {n0: mults}, {})

    def contractible_gen(self, i: int, n: int) -> "Complex":
        """Cone on the identity of P_i placed in degrees n, n+1."""
        mults = tuple(1 if j == i else 0 for j in range(1, self.quiver.n + 1))
        n0, n1 = self.wrap(n), self.next_deg(n)
        if n0 is None or n1 is None:
            raise WindowOverflow(f"degrees {n}, {n + 1} outside the representable range")
        p = self.proj(i)
        ident = tuple(Matrix.identity(self.field, d) for d in p.dims)
        return Complex(self, {n0: mults, n1: mults}, {n0: ident})


def contractible_generators(cat: ComplexCategory) -> dict[str, "Complex"]:
    """All cone generators in the user window, keyed "P{i}@{n}", n over
    `cat.cone_degrees()`.  Order: degree, then generator index."""
    return {generator_key(i, n): cat.contractible_gen(i, n)
            for n in cat.cone_degrees() for i in range(1, cat.quiver.n + 1)}


def generator_key(i: int, n: int) -> str:
    return f"P{i}@{n}"


def _square_fault(cat: ComplexCategory, diffs: dict) -> tuple[int, int, int] | None:
    """The first (n, n1, vertex) with n1 = next_deg(n) at which
    d_{n1} d_n != 0 mod p, scanning diffs (degree -> per-vertex matrices) in
    its order wherever both factors exist; None when d d = 0.  Runs on the
    entry rows."""
    p = cat.field.p
    for n, d in diffs.items():
        n1 = cat.next_deg(n)
        d1 = diffs.get(n1)
        if d1 is not None:
            for v, (a, b) in enumerate(zip(d, d1)):
                if any(x % p for r in _mul(b.entries(), a.entries(), a.cols) for x in r):
                    return n, n1, v + 1
    return None


class Complex:
    """Cochain complex of projectives inside a fixed category.

    comps: degree -> multiplicity vector (only nonzero entries stored).
    diffs: degree n -> per-vertex matrices of d_n, stored exactly when both
    X_n and X_{n+1} are nonzero (zero matrices included, so the encoding is
    a canonical function of the object).
    """

    __slots__ = ("cat", "comps", "diffs", "_enc")

    def __init__(self, cat: ComplexCategory, comps: dict, diffs: dict, validate: bool = True):
        comps = {
            int(n): tuple(int(m) for m in mults)
            for n, mults in comps.items()
            if any(mults)
        }
        self.cat = cat
        self.comps = comps
        clean_diffs = {}
        for n in sorted(comps):
            n1 = cat.next_deg(n)
            if n1 is None or n1 not in comps:
                continue
            d = diffs.get(n)
            d = cat.zero_maps(comps[n], comps[n1]) if d is None else tuple(d)
            clean_diffs[n] = d
        self.diffs = clean_diffs
        self._enc = None
        if validate:
            self._validate(diffs)

    def _validate(self, given_diffs):
        cat = self.cat
        for n in self.comps:
            if cat.kind == "bounded" and not (
                cat.lo - cat.headroom <= n <= cat.hi + cat.headroom
            ):
                raise WindowOverflow(f"component at degree {n} outside representable range")
            if cat.kind == "periodic" and not (0 <= n < cat.period):
                raise SpecError(f"periodic degree {n} outside 0..{cat.period - 1}")
            if len(self.comps[n]) != cat.quiver.n or any(m < 0 for m in self.comps[n]):
                raise SpecError(f"bad multiplicity vector at degree {n}")
        for n in given_diffs:
            n0 = int(n)
            if n0 not in self.diffs and any(not m.is_zero() for m in given_diffs[n]):
                raise SpecError(f"differential at degree {n} has a zero end")
        # the products below run on the entry rows, reduced mod p
        p = cat.field.p
        for n, d in self.diffs.items():
            src = self.rep(n)
            tgt = self.rep(self.cat.next_deg(n))
            if len(d) != cat.quiver.n:
                raise SpecError(f"differential at degree {n}: need one matrix per vertex")
            a = [m.entries() for m in d]
            for v in range(cat.quiver.n):
                if d[v].shape != (tgt.dims[v], src.dims[v]):
                    raise SpecError(f"differential at degree {n}: vertex {v + 1} shape mismatch")
            # must be a morphism of representations
            for i, (t, h) in enumerate(cat.quiver.arrows):
                w = src.dims[t - 1]
                lhs = _mul(a[h - 1], src.maps[i].entries(), w)
                rhs = _mul(tgt.maps[i].entries(), a[t - 1], w)
                if any((x - y) % p for r, s in zip(lhs, rhs) for x, y in zip(r, s)):
                    raise SpecError(f"differential at degree {n} is not a rep morphism")
        fault = _square_fault(cat, self.diffs)
        if fault is not None:
            n, n1, v = fault
            raise SpecError(f"d_{n1} d_{n} != 0 at vertex {v}")

    # ---- access ----

    def mults(self, n: int | None) -> tuple[int, ...]:
        if n is None:
            return self.cat._zero_mults
        return self.comps.get(n, self.cat._zero_mults)

    def rep(self, n: int | None) -> Rep:
        return self.cat.rep_of(self.mults(n))

    def diff(self, n: int | None) -> tuple[Matrix, ...]:
        """d_n with correct shapes (zero matrices when not stored)."""
        if n in self.diffs:
            return self.diffs[n]
        n1 = self.cat.next_deg(n) if n is not None else None
        return self.cat.zero_maps(self.mults(n), self.mults(n1))

    @property
    def support(self) -> list[int]:
        return sorted(self.comps)

    def is_zero(self) -> bool:
        return not self.comps

    def total_dim(self) -> int:
        return sum(self.rep(n).total_dim() for n in self.comps)

    def encoding(self) -> tuple:
        if self._enc is None:
            self._enc = (
                tuple((n, self.comps[n]) for n in sorted(self.comps)),
                tuple(
                    (n, tuple(m.entries() for m in self.diffs[n]))
                    for n in sorted(self.diffs)
                ),
            )
        return self._enc

    def __eq__(self, other):
        return (
            isinstance(other, Complex)
            and self.cat == other.cat
            and self.encoding() == other.encoding()
        )

    def __hash__(self):
        return hash(self.encoding())

    def __repr__(self):
        return f"Complex({ {n: self.comps[n] for n in sorted(self.comps)} })"


# ---- sums, shifts ----


def _merged_diff(cat, first, second, first1, second1, tl, tr, br) -> tuple[Matrix, ...]:
    """d_n of a degreewise sum: [[tl, tr], [0, br]] from rep(first) (+)
    rep(second) to rep(first1) (+) rep(second1), gathered into the
    canonical bases of the summed multiplicity vectors.  The blocks'
    entries are in [0, p) already and are only moved, not reduced again."""
    cols = cat.merge_order(first, second)
    rows = cat.merge_order(first1, second1)
    out = []
    for v in range(cat.quiver.n):
        zero = (0,) * tl[v].cols
        block = [a + b for a, b in zip(tl[v].entries(), tr[v].entries())]
        block += [zero + b for b in br[v].entries()]
        order = cols[v]
        gathered = [tuple([row[j] for j in order]) for row in map(block.__getitem__, rows[v])]
        out.append(Matrix._of_reduced(cat.field, gathered, len(order)))
    return tuple(out)


def direct_sum_cx(x: Complex, y: Complex) -> Complex:
    """Degreewise direct sum, x block first: the split extension of y by x."""
    return middle_term_cx(y, x, {})


def shift(x: Complex, k: int) -> Complex:
    """shift(x, k)_n = x_{n+k}, differential scaled by (-1)^k."""
    cat = x.cat
    comps = {}
    for n, mults in x.comps.items():
        n2 = cat.wrap(n - k)
        if n2 is None:
            raise WindowOverflow(
                f"shift by {k} moves degree {n} to {n - k}, outside the representable range"
            )
        comps[n2] = mults
    diffs = {cat.wrap(n - k): tuple(-m for m in d) if k % 2 else d for n, d in x.diffs.items()}
    return Complex(cat, comps, diffs, validate=False)


# ---- degree-k map spaces ----


class _MapSpace:
    """Layout of degree-k maps f_n: x_n -> y_{n+k} in two coordinate systems:
    hom-basis coefficients (the unknowns) and raw matrix entries (where
    subspace comparisons happen)."""

    def __init__(self, degrees: list[int], stacks: dict, var_start: dict, nvars: int,
                 raw_offsets: dict, raw_dim: int, shapes: dict):
        self.degrees = degrees
        self.stacks = stacks  # n -> the hom-basis stack of ComplexCategory.map_layout at degree n
        self.var_start = var_start  # n -> column of the first degree-n coefficient
        self.nvars = nvars
        self.raw_offsets = raw_offsets  # n -> per-vertex offsets into the raw vector, then the end
        self.raw_dim = raw_dim
        self.shapes = shapes  # n -> per-vertex (rows, cols)

    def columns(self, n: int) -> slice:
        """Columns of the degree-n coefficients, in hom-basis order."""
        return slice(self.var_start[n], self.var_start[n] + self.stacks[n].cols)


def _map_space(x: Complex, y: Complex, k: int) -> _MapSpace:
    """The degree-k maps x -> y, degree by degree in increasing order,
    over the degrees whose maps have raw coordinates; each degree's layout
    comes from `ComplexCategory.map_layout`."""
    cat = x.cat
    stacks = {}
    var_start = {}
    raw_offsets = {}
    shapes = {}
    nvars = 0
    raw = 0
    for n in sorted(x.comps):
        tgt = y.comps.get(cat.wrap(n + k))
        if tgt is None:
            continue
        _, stack, offs, shape = cat.map_layout(x.comps[n], tgt)
        if not offs[-1]:
            continue
        stacks[n], shapes[n] = stack, shape
        var_start[n] = nvars
        raw_offsets[n] = tuple([raw + o for o in offs])
        nvars += stack.cols
        raw += offs[-1]
    return _MapSpace(list(stacks), stacks, var_start, nvars, raw_offsets, raw, shapes)


def _raw_entries(x: Complex, y: Complex, k: int, space: _MapSpace, out_space: _MapSpace):
    """The nonzero entries (row, column, value) of the matrix, in raw
    coordinates of out_space by those of space, of d^k f = d_y f + s f d_x
    on the degree-k maps of space: d_{y, n+k} f_n lands at degree n and
    f_n d_{x, n-1} at degree n-1.  Row-major raw entries (i, l) of D f and
    f E read sum_m D[i][m] f[m][l] and sum_m f[i][m] E[m][l]."""
    cat = x.cat
    for n in space.degrees:
        nprev = cat.prev_deg(n)
        terms = ((True, 1, y.diffs.get(cat.wrap(n + k)), n), (False, _sign(k), x.diffs.get(nprev), nprev))
        for left, sign, d, deg in terms:
            dst = out_space.raw_offsets.get(deg)
            if d is None or dst is None:  # no raw coordinates there: the products are empty
                continue
            for o, t, m, (r, c) in zip(space.raw_offsets[n], dst, d, space.shapes[n]):
                w = m.cols
                for i, row in enumerate(m.entries()):
                    for j, e in enumerate(row):
                        if not e:
                            continue
                        if left:  # (D f)[i][l] takes D[i][j] f[j][l]
                            for lc in range(c):
                                yield t + i * c + lc, o + j * c + lc, sign * e
                        else:  # (f E)[a][j] takes f[a][i] E[i][j]
                            for a in range(r):
                                yield t + a * w + j, o + a * c + i, sign * e


def _sign(k: int) -> int:
    """s in the degree-k differential d_y f + s f d_x of the Hom complex:
    -1 for even k, +1 for odd k."""
    return 1 if k % 2 == 1 else -1


def _components(space: _MapSpace, vec: list[int], field: Field) -> dict:
    """The map with raw coordinates vec in space (ints in [0, p), not
    reduced again), as degree -> vertex matrices (degrees where it vanishes
    left out)."""
    vec = tuple(vec)
    out = {}
    for n in space.degrees:
        offs = space.raw_offsets[n]
        if any(vec[offs[0]:offs[-1]]):
            out[n] = tuple(
                Matrix._of_reduced(field, [vec[o + j * c:o + j * c + c] for j in range(r)], c)
                for o, (r, c) in zip(offs, space.shapes[n])
            )
    return out


def hom_chain_basis(x: Complex, y: Complex) -> list[dict]:
    """Basis of chain maps x -> y (the cocycles Z^0 of the Hom complex),
    each a dict degree -> vertex matrices."""
    hc = _hom_complex(x, y)
    space, ker = hc.space(0), hc.cycles(0)
    if not ker:
        return []
    zcols = _cocycle_columns(space, ker, hc.field.p)
    return [_components(space, z, hc.field) for z in zcols]


def hom_dim_cx(x: Complex, y: Complex) -> int:
    """dim of the chain maps x -> y: the cocycles Z^0 of the Hom complex."""
    return _hom_complex(x, y).cycles_dim(0)


def hom_card(x: Complex, y: Complex) -> int:
    return x.cat.field.p ** hom_dim_cx(x, y)


def _cocycle_columns(space: _MapSpace, ker, p: int) -> list[list[int]]:
    """Raw coordinates of the maps with the kernel's coefficients, one column each."""
    return [[sum(map(mul, r, v[space.columns(n)])) % p
             for n in space.degrees for r in space.stacks[n].entries()] for v in ker]


class HomComplexError(RuntimeError):
    """The Hom complex broke an invariant that holds for every pair of
    complexes: some d^k d^(k-1) != 0, or a coboundary outside the cocycles."""


class _HomComplex:
    """The Hom complex Hom^k(x, y) = prod_n Hom(x_n, y_{n+k}) with
    differential d^k f = d_y f + s f d_x (s from `_sign`).

    Z^k = ker d^k (`cycles`); Z^0 is the chain maps and H^0 stable Hom;
    H^-i is stable Hom(x, y[-i]) and H^1 is Ext^1 (the images of d^-1 and
    d^0 are the null-homotopic maps and, up to sign, the cocycle
    coboundaries).  Each degree's layout, differential and rank is built at
    most once, and dim H^k = dim Hom^k - rank d^k - rank d^(k-1).
    """

    def __init__(self, x: Complex, y: Complex):
        self.x, self.y = x, y
        self.field = x.cat.field
        self._spaces: dict[int, _MapSpace] = {}
        self._diffs: dict[int, list] = {}
        self._ranks: dict[int, int] = {}

    def space(self, k: int) -> _MapSpace:
        hit = self._spaces.get(k)
        if hit is None:
            hit = self._spaces[k] = _map_space(self.x, self.y, k)
        return hit

    def _apply(self, k: int, rows, width: int) -> list[list[int]]:
        """d^k of the maps whose raw coordinates in Hom^k are the columns
        of `rows` (width of them), as rows in the raw coordinates of
        Hom^(k+1), reduced mod p."""
        out = [[0] * width for _ in range(self.space(k + 1).raw_dim)]
        for t, q, e in _raw_entries(self.x, self.y, k, self.space(k), self.space(k + 1)):
            out[t] = [u + e * v for u, v in zip(out[t], rows[q])]
        return [[e % self.field.p for e in r] for r in out]

    def differential(self, k: int) -> list[list[int]]:
        """d^k as rows in the raw coordinates of Hom^(k+1), one column per
        hom-basis variable of Hom^k."""
        hit = self._diffs.get(k)
        if hit is None:
            space = self.space(k)
            stack = [[0] * space.var_start[n] + list(r) + [0] * (space.nvars - space.columns(n).stop)
                     for n in space.degrees for r in space.stacks[n].entries()]
            hit = self._diffs[k] = self._apply(k, stack, space.nvars)
        return hit

    def _matrix(self, k: int) -> Matrix:
        """d^k as a Matrix: raw coordinates of Hom^(k+1) by the variables of Hom^k."""
        return Matrix(self.field, self.differential(k), self.space(k).nvars)

    def rank_d(self, k: int) -> int:
        """rank d^k (0 without building anything when Hom^k is 0)."""
        hit = self._ranks.get(k)
        if hit is None:
            d = self.differential(k) if self.space(k).nvars else []
            hit = self._ranks[k] = rank(self._matrix(k)) if any(map(any, d)) else 0
        return hit

    def cycles(self, k: int) -> list[list[int]]:
        """A basis of Z^k as hom-basis coefficient vectors, in
        `kernel_basis` order; records rank d^k."""
        nvars = self.space(k).nvars
        ker = kernel_basis(self._matrix(k)) if nvars else []
        self._ranks[k] = nvars - len(ker)
        return ker

    def cycles_dim(self, k: int) -> int:
        """dim Z^k = dim Hom^k - rank d^k."""
        return self.space(k).nvars - self.rank_d(k)

    def dim(self, k: int) -> int:
        """dim H^k, once d^k is seen to kill the image of d^(k-1)."""
        if not self.space(k).nvars:
            return 0
        if self.space(k - 1).nvars:
            image = self.differential(k - 1)
            if any(map(any, image)) and any(map(any, self._apply(k, image, self.space(k - 1).nvars))):
                raise HomComplexError(f"d^{k} d^{k - 1} != 0 in the Hom complex")
        return self.cycles_dim(k) - self.rank_d(k - 1)

    def ext1(self):
        """H^1 as (map space, raw cocycle columns, indices of the complement
        cocycles), None if it has no cocycles.

        The cocycles are the kernel of d^1.  One row reduction of
        [d^0 | cocycles] picks the first cocycles independent modulo the
        coboundaries; these lie in the cocycles, so the pivots number dim Z^1.
        """
        field = self.field
        space = self.space(1)
        ker = self.cycles(1)
        if not ker:
            return None
        zcols = _cocycle_columns(space, ker, field.p)
        nb = self.space(0).nvars
        rows = [b + list(z) for b, z in zip(self.differential(0), _columns(zcols, space.raw_dim))]
        piv = rref(Matrix(field, rows, nb + len(zcols)))[1]
        if len(piv) != len(ker):
            raise HomComplexError("coboundaries escaped the cocycle space")
        self._ranks[0] = sum(c0 < nb for c0 in piv)
        return space, zcols, [c0 - nb for c0 in piv if c0 >= nb]


def _hom_complex(x: Complex, y: Complex) -> _HomComplex:
    """The Hom complex of (x, y), kept in a one-entry slot on the category
    so that consecutive calls on one pair share it (`CxBackend.raw_ext_data`
    asks for Ext^1 and then Z^0, or for the derived product's records, on a
    pair-cache miss only, Ext^1, H^0 and the H^-i)."""
    cat = x.cat
    hc = cat._hom_slot
    if hc is None or hc.x is not x or hc.y is not y:
        hc = cat._hom_slot = _HomComplex(x, y)
    return hc


def stable_hom_dim(x: Complex, y: Complex) -> int:
    """log_p of the chain maps modulo null-homotopic ones: H^0 of the Hom complex."""
    return _hom_complex(x, y).dim(0)


def stable_hom_card(x: Complex, y: Complex) -> int:
    return x.cat.field.p ** stable_hom_dim(x, y)


class CxExt1:
    """Ext^1 of a pair of complexes: dimension plus class representatives."""

    def __init__(self, dim: int, reps: list[dict] | None):
        self.dim = dim
        self.reps = reps  # each: degree -> vertex matrices f_n: a_n -> c_{n+1}


def ext1_classes(a: Complex, c: Complex, caps: Caps = DEFAULT_CAPS, enumerate_reps: bool = True) -> CxExt1:
    """Extension classes of conflations c >-> B ->> a.

    Cocycles are degree-1 maps a -> c with d_c f + f d_a = 0; classes are
    cosets of the coboundaries h d_a - d_c h.  Representatives combine the
    complement cocycles of `_HomComplex.ext1` lexicographically, zero (split)
    class first.
    """
    h = _hom_complex(a, c).ext1()
    if h is None:
        return CxExt1(0, [{}] if enumerate_reps else None)
    space, zcols, compl = h
    dim = len(compl)
    if not enumerate_reps:
        return CxExt1(dim, None)
    field = a.cat.field
    p = field.p
    if p**dim > caps.max_ext_enum:
        raise ExtEnumCapExceeded(
            f"|Ext^1| = {p}^{dim} exceeds enumeration cap {caps.max_ext_enum}"
        )
    reps = []
    for coeffs in itertools.product(range(p), repeat=dim):
        vec = [0] * space.raw_dim
        for cf, j in zip(coeffs, compl):
            if cf:
                vec = [(a + cf * b) % p for a, b in zip(vec, zcols[j])]
        reps.append(_components(space, vec, field))
    return CxExt1(dim, reps)


def middle_term_cx(a: Complex, c: Complex, f: dict) -> Complex:
    """Middle term of the conflation c >-> B ->> a along cocycle f.

    f must be a degree-1 cocycle a -> c made of hom-basis maps, as
    `ext1_classes` gives (or {}, the split sum).  B is then a complex by
    construction and is not validated again: each d_B = [[d_c, f], [0, d_a]]
    is a rep morphism because its blocks are, and d_B d_B has the blocks
    d_c d_c = 0, d_a d_a = 0 and d_c f + f d_a = 0.  The tests validate every
    middle of several grids explicitly."""
    cat = a.cat
    comps = {}
    for n in set(a.comps) | set(c.comps):
        comps[n] = tuple(u + w for u, w in zip(c.mults(n), a.mults(n)))
    diffs = {}
    for n in comps:
        n1 = cat.next_deg(n)
        if n1 is None or n1 not in comps:
            continue
        fa = f.get(n)
        if fa is None:
            fa = cat.zero_maps(a.mults(n), c.mults(n1))
        diffs[n] = _merged_diff(
            cat, c.mults(n), a.mults(n), c.mults(n1), a.mults(n1), c.diff(n), fa, a.diff(n)
        )
    return Complex(cat, comps, diffs, validate=False)


def _proj_hom_dim(cat: ComplexCategory, src, tgt) -> int:
    """dim Hom(P^src, P^tgt) for multiplicity vectors src and tgt, extended
    bilinearly to integer vectors: one integer bilinear form per category."""
    return sum(a * h * b for a, row in zip(src, cat._proj_homs) if a for h, b in zip(row, tgt))


def euler_exponent_cx(x: Complex, y: Complex) -> int:
    """log_q of the Euler form sum_p (-1)^p dim H^p Hom(x, y): the Hom complex
    is finite, so this is sum_{m,n} (-1)^(n-m) dim Hom(x_m, y_n).  Bounded
    categories only; the periodic sum does not terminate."""
    cat = x.cat
    if cat.kind != "bounded":
        raise EulerUndefined("Euler form undefined for periodic complexes")
    return sum(
        (-1 if (n - m) % 2 else 1) * _proj_hom_dim(cat, a, b)
        for m, a in x.comps.items()
        for n, b in y.comps.items()
    )


def _find_unit(cat: ComplexCategory, comps: dict, diffs: dict):
    """The first cone block of a complex given by its multiplicity vectors
    and per-vertex differential rows (reduced mod p): (n, i, s, r, c) with
    c != 0 the scalar of the block P_i -> P_i of d_n from source copy r to
    target copy s, read at vertex i.  Scans degree, generator, target copy,
    source copy; None when the complex is minimal."""
    for n in sorted(diffs):
        src, tgt = cat.copy_slots(comps[n]), cat.copy_slots(comps[cat.next_deg(n)])
        for i in range(1, cat.quiver.n + 1):
            a = diffs[n][i - 1]
            for s, ((gs, _), tgt_off) in enumerate(tgt):
                if gs != i:
                    continue
                for r, ((gr, _), src_off) in enumerate(src):
                    if gr == i:
                        c = a[tgt_off[i - 1]][src_off[i - 1]]
                        if c:
                            return n, i, s, r, c
    return None


def strip_contractibles(x: Complex) -> tuple[Complex, dict[str, int]]:
    """Peel off cone summands by Gaussian elimination.

    Repeatedly takes the first cone block that `_find_unit` finds: d_n maps
    copy r of P_i in X_n to copy s of P_i in X_{n+1} by c·id, c != 0 (a
    scalar at every vertex, because End(P_i) = k for an acyclic quiver).
    Splitting off the cone K(i, n) on these two copies
    - replaces d_n by its Schur complement d - c^-1 d[:, r] d[s, :] and
      deletes the rows of s and the columns of r,
    - deletes the rows of r from d_{n-1},
    - deletes the columns of s from d_{n+1} (with period 2 this is d_{n-1}
      again, and both deletions apply to it),
    and changes nothing else.  Returns the minimal remainder and exponents
    keyed like the cone generators ("P{i}@{n}").

    The remainder is a complex by construction and is not validated again.
    Each step conjugates x by automorphisms of X_n and X_{n+1} built from
    the column block d[:, r] and the row block d[s, :], which are rep
    morphisms because d_n is one and End(P_i) = k.  That splits the cone off
    as a direct summand, and the remainder is the complementary summand of
    a complex (x, built or validated as one).  The tests validate the
    remainders of several grids explicitly.
    """
    cat = x.cat
    p = cat.field.p
    comps = dict(x.comps)
    diffs = {n: [m.entries() for m in d] for n, d in x.diffs.items()}
    exps: dict[str, int] = {}
    while (hit := _find_unit(cat, comps, diffs)) is not None:
        n, i, s, r, c = hit
        n0, n1 = cat.prev_deg(n), cat.next_deg(n)
        src_off, tgt_off = cat.copy_slots(comps[n])[r][1], cat.copy_slots(comps[n1])[s][1]
        cinv = cat.field.inv(c)
        for v, width in enumerate(cat.proj(i).dims):
            if not width:
                continue
            rs = range(src_off[v], src_off[v] + width)
            ss = range(tgt_off[v], tgt_off[v] + width)
            d = diffs[n][v]
            # d[:, rs] d[ss, :], then the Schur complement without rows ss and columns rs
            prod = _mul([[row[j] for j in rs] for row in d], [d[j] for j in ss], len(d[0]))
            diffs[n][v] = [[(e - cinv * f) % p for j, (e, f) in enumerate(zip(row, prow)) if j not in rs]
                           for a, (row, prow) in enumerate(zip(d, prod)) if a not in ss]
            if n0 in diffs:
                diffs[n0][v] = [row for a, row in enumerate(diffs[n0][v]) if a not in rs]
            if n1 in diffs:
                diffs[n1][v] = [[e for j, e in enumerate(row) if j not in ss] for row in diffs[n1][v]]
        for deg in (n, n1):
            mults = list(comps[deg])
            mults[i - 1] -= 1
            comps[deg] = tuple(mults)
            if not any(mults):
                del comps[deg]
                diffs.pop(deg, None)
                diffs.pop(cat.prev_deg(deg), None)
        key = generator_key(i, n)
        exps[key] = exps.get(key, 0) + 1
    if not exps:  # already minimal
        return x, exps
    out_diffs = {n: tuple(Matrix._of_reduced(cat.field, a, w) for a, w in zip(d, cat.rep_of(comps[n]).dims))
                 for n, d in diffs.items()}
    return Complex(cat, comps, out_diffs, validate=False), exps


def is_minimal(x: Complex) -> bool:
    """No cone summand: every P_i -> P_i diagonal block scalar vanishes."""
    rows = {n: [m.entries() for m in d] for n, d in x.diffs.items()}
    return _find_unit(x.cat, x.comps, rows) is None


# ---- decomposition and isomorphism ----


def _chain_combine(x: Complex, y: Complex, basis: list[dict], coeffs):
    """Yield (n, sum_j coeffs_j basis_j[n]) for every degree n of x, where
    basis holds degree-0 maps x -> y (a map omits the degrees where it is 0)."""
    for n in x.comps:
        live = [(cf, b[n]) for cf, b in zip(coeffs, basis) if cf and n in b]
        yield n, _combine_rect(x.rep(n), y.rep(n), [g for _, g in live], [cf for cf, _ in live])


def _fitting_split_cx(x: Complex, phi: dict) -> tuple[Complex, Complex] | None:
    """Split along the eventual image/kernel of a chain endomorphism."""
    total = x.total_dim()
    e = {n: _power_eventual(phi[n], total) for n in phi}
    r = sum(rank(m) for mats in e.values() for m in mats)
    if r == 0 or r == total:
        return None
    im_cols = {}
    ker_cols = {}
    for n in x.comps:
        im_cols[n], ker_cols[n] = _image_kernel_cols(e[n])
    return (
        _canonicalize_subcomplex(x, im_cols),
        _canonicalize_subcomplex(x, ker_cols),
    )


def _solve_proj_mults(cat: ComplexCategory, dims: tuple[int, ...]) -> tuple[int, ...]:
    """Multiplicities m with (+) P_i^{m_i} matching a projective's dims."""
    mults = [0] * cat.quiver.n
    remaining = list(dims)
    for v in cat.quiver.topological_order:
        m = remaining[v - 1]
        if m < 0:
            raise SpecError("component is not projective")
        mults[v - 1] = m
        if m:
            pd = cat.proj(v).dims
            for u in range(cat.quiver.n):
                remaining[u] -= m * pd[u]
    if any(r != 0 for r in remaining):
        raise SpecError("component is not projective")
    return tuple(mults)


def _canonicalize_subcomplex(x: Complex, cols: dict) -> Complex:
    """Rebuild a degreewise direct summand as a canonical-basis complex.

    cols[n][v] lists int vectors spanning the summand's fibre at vertex v
    inside x_n; the span is d-stable and degreewise projective, so each
    degree is re-identified with the canonical sum of projectives via an
    explicit isomorphism.
    """
    cat = x.cat
    field = cat.field
    sub_reps = {}
    inclusions = {}
    for n in x.comps:
        c = cols[n]
        if not any(c):
            continue
        rep = x.rep(n)
        sub_reps[n] = _sub_rep(rep, c)
        # the spanning vectors as the columns of one matrix per vertex
        inclusions[n] = tuple(
            Matrix(field, _columns(vecs, d), len(vecs))
            for vecs, d in zip(c, rep.dims)
        )
    comps = {}
    isos = {}
    for n, r in sub_reps.items():
        mults = _solve_proj_mults(cat, r.dims)
        comps[n] = mults
        canon = cat.rep_of(mults)
        phi = find_iso(canon, r)
        if phi is None:
            raise SpecError("projective component failed to re-canonicalize")
        isos[n] = phi  # canon -> sub coordinates
    diffs = {}
    for n in comps:
        n1 = cat.next_deg(n)
        if n1 is None or n1 not in comps:
            continue
        dx = x.diff(n)
        d_sub = []
        for v in range(cat.quiver.n):
            # restrict d: solve cols_{n+1} Y = d cols_n, then conjugate by isos
            rhs = dx[v] @ inclusions[n][v]
            y = solve_matrix(inclusions[n1][v], rhs)
            assert y is not None, "differential does not preserve the summand"
            d_sub.append(y)
        inv1 = []
        for v in range(cat.quiver.n):
            ident = Matrix.identity(field, isos[n1][v].rows)
            inv = solve_matrix(isos[n1][v], ident)
            assert inv is not None
            inv1.append(inv)
        diffs[n] = tuple(
            inv1[v] @ d_sub[v] @ isos[n][v] for v in range(cat.quiver.n)
        )
    return Complex(cat, comps, diffs)


def decompose_cx(x: Complex, caps: Caps = DEFAULT_CAPS) -> tuple[dict[str, int], list[Complex]]:
    """Split x into cone exponents plus indecomposable minimal summands."""
    minimal, exps = strip_contractibles(x)
    return exps, _decompose_minimal(minimal, caps)


def _decompose_minimal(x: Complex, caps: Caps) -> list[Complex]:
    if x.is_zero():
        return []
    basis = hom_chain_basis(x, x)
    d = len(basis)
    if d == 1:
        return [x]
    p = x.cat.field.p
    if p**d > caps.max_endo_enum:
        raise EndoSearchCapExceeded(
            f"|End| = {p}^{d} exceeds decomposition cap {caps.max_endo_enum}"
        )
    for coeffs in itertools.product(range(p), repeat=d):
        if not any(coeffs):
            continue
        phi = dict(_chain_combine(x, x, basis, coeffs))
        split = _fitting_split_cx(x, phi)
        if split is not None:
            a, b = split
            return _decompose_minimal(a, caps) + _decompose_minimal(b, caps)
    return [x]


def find_chain_iso(x: Complex, y: Complex, caps: Caps = DEFAULT_CAPS) -> dict | None:
    """Chain map x -> y invertible in every degree, or None."""
    if sorted(x.comps) != sorted(y.comps):
        return None
    for n in x.comps:
        if x.mults(n) != y.mults(n):
            return None
    if x.encoding() == y.encoding():
        return {
            n: tuple(Matrix.identity(x.cat.field, d) for d in x.rep(n).dims)
            for n in x.comps
        }
    basis = hom_chain_basis(x, y)
    d = len(basis)
    p = x.cat.field.p
    if p**d > caps.max_hom_enum:
        raise IsoEnumCapExceeded(
            f"|Hom| = {p}^{d} exceeds iso search cap {caps.max_hom_enum}"
        )
    # Descending coefficients: the first candidate is (p - 1) times the sum
    # of the basis, invertible exactly when that sum is, and the zero map
    # comes last.
    for coeffs in itertools.product(range(p - 1, -1, -1), repeat=d):
        if not any(coeffs):
            continue
        out = {}
        for n, mats in _chain_combine(x, y, basis, coeffs):
            if any(rank(m) != m.cols for m in mats):
                break  # singular in degree n: no need to build the others
            out[n] = mats
        else:
            return out
    return None


def iso_test_cx(x: Complex, y: Complex, caps: Caps = DEFAULT_CAPS) -> bool:
    """Strict isomorphism of complexes (contractible parts must match too)."""
    if x.cat != y.cat:
        return False
    if {n: x.mults(n) for n in x.comps} != {n: y.mults(n) for n in y.comps}:
        return False
    if x.encoding() == y.encoding():
        return True
    end_dim = hom_dim_cx(x, x)
    if end_dim != hom_dim_cx(y, y) or hom_dim_cx(x, y) != end_dim:
        return False
    mx, ex = strip_contractibles(x)
    my, ey = strip_contractibles(y)
    if ex != ey:
        return False
    return stable_iso_test_minimal(mx, my, caps)


def stable_iso_test_minimal(mx: Complex, my: Complex, caps: Caps = DEFAULT_CAPS) -> bool:
    """Isomorphism of minimal complexes (equal to homotopy equivalence)."""
    if {n: mx.mults(n) for n in mx.comps} != {n: my.mults(n) for n in my.comps}:
        return False
    if mx.encoding() == my.encoding():
        return True
    if stable_hom_dim(mx, mx) != stable_hom_dim(my, my):
        return False
    return find_chain_iso(mx, my, caps) is not None


def stable_iso_test(x: Complex, y: Complex, caps: Caps = DEFAULT_CAPS) -> bool:
    """Homotopy equivalence: minimal models isomorphic."""
    mx, _ = strip_contractibles(x)
    my, _ = strip_contractibles(y)
    return stable_iso_test_minimal(mx, my, caps)


# ---- enumeration ----


def _mult_options(cat: ComplexCategory, bound: int) -> list:
    """Multiplicity vectors of dimension at most bound, graded-lex order."""
    per_gen = [range(bound // p.total_dim() + 1) for p in cat._projs]
    opts = [m for m in itertools.product(*per_gen) if cat.mult_dim(m) <= bound]
    return sorted(opts, key=lambda m: (cat.mult_dim(m), m))


def enumerate_complexes(
    cat: ComplexCategory,
    max_degree_dim: int | None = None,
    max_total_dim: int | None = None,
    caps: Caps = DEFAULT_CAPS,
    registry=None,
):
    """Register every iso class of complexes within the dimension caps.

    Profiles run over the user window (bounded) or all residues (periodic),
    graded-lex by total dimension; differentials enumerate lexicographically
    over per-pair hom bases and are kept when d d = 0.  More than
    caps.max_enum profiles, or differential tuples at one profile, raise
    EnumCapExceeded.
    """
    if max_degree_dim is None and max_total_dim is None:
        raise SpecError("need a per-degree or total dimension cap")
    if registry is None:
        registry = cx_registry(cat, caps)
    degs = cat.degrees()
    bound = max_degree_dim if max_degree_dim is not None else max_total_dim
    sized = [(m, cat.mult_dim(m)) for m in _mult_options(cat, bound)]
    room = max_total_dim if max_total_dim is not None else len(degs) * bound
    p = cat.field.p
    # count the degree profiles by total before building any of them
    counts = [1] + [0] * room
    for _ in degs:
        counts = [sum(counts[t - d] for _, d in sized if d <= t) for t in range(room + 1)]
    if sum(counts) > caps.max_enum:
        raise EnumCapExceeded(f"{sum(counts)} degree profiles exceed cap {caps.max_enum}")
    profiles = [(0, ())]
    for _ in degs:
        profiles = [(t + d, c + (m,)) for t, c in profiles for m, d in sized if t + d <= room]
    profiles.sort(key=lambda t: (t[0], tuple(itertools.chain.from_iterable(t[1]))))
    for _, combo in profiles:
        comps = {n: m for n, m in zip(degs, combo) if any(m)}
        pairs = []
        hom_bases = {}
        count = 1
        for n in comps:
            n1 = cat.next_deg(n)
            if n1 is None or n1 not in comps:
                continue
            hb = cat.map_layout(comps[n], comps[n1])[0]
            pairs.append(n)
            hom_bases[n] = hb
            count *= p ** len(hb)
        if count > caps.max_enum:
            raise EnumCapExceeded(
                f"{count} differential tuples at profile {comps} exceed cap {caps.max_enum}"
            )
        total_vars = sum(len(hom_bases[n]) for n in pairs)
        for flat in itertools.product(range(p), repeat=total_vars):
            diffs = {}
            pos = 0
            for n in pairs:
                hb = hom_bases[n]
                coeffs = flat[pos:pos + len(hb)]
                pos += len(hb)
                tgt = cat.rep_of(comps[cat.next_deg(n)])
                src = cat.rep_of(comps[n])
                diffs[n] = _combine_rect(src, tgt, hb, coeffs)
            # keep only genuine complexes
            if _square_fault(cat, diffs) is not None:
                continue
            registry.classify(Complex(cat, comps, diffs, validate=False))
    return registry


def _profile_rank_key(c: Complex) -> tuple:
    """Degree profile plus the rank of every differential block, vertex by
    vertex.  An isomorphism f: x -> y gives d_y = f d_x f^-1 degreewise, with
    every f_n invertible at every vertex, so both parts are iso invariants."""
    return (
        tuple((n, c.comps[n]) for n in sorted(c.comps)),
        tuple((n, tuple(rank(m) for m in c.diffs[n])) for n in sorted(c.diffs)),
    )


def cx_registry(cat: ComplexCategory, caps: Caps = DEFAULT_CAPS) -> Registry:
    """Registry of complexes up to isomorphism, keyed like stable_registry."""
    return Registry(lambda a, b: iso_test_cx(a, b, caps), _profile_rank_key)


def stable_registry(cat: ComplexCategory, caps: Caps = DEFAULT_CAPS) -> Registry:
    """Registry of minimal complexes up to isomorphism (stable classes).

    It takes minimal complexes only (strip_contractibles first): for those,
    isomorphism is homotopy equivalence.  The bucket key is the degree
    profile plus the vertexwise rank of every differential block, both
    invariant under isomorphism, so the iso search only runs between
    complexes that agree on all of them.
    """
    return Registry(lambda a, b: stable_iso_test_minimal(a, b, caps), _profile_rank_key)
