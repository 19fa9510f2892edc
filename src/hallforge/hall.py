"""Hall algebra core: counting products over either backend.

The product of basis classes [A] and [C] has [B]-coefficient
|Ext^1(A, C)_B| / |Hom(A, C)|, where Ext^1(A, C)_B counts extension classes
of conflations C >-> B' ->> A with B' isomorphic to B.  Coefficients live
in Q (plain product) or in Q adjoined a square root v of q (twisted
product, which scales each pairwise product by v^{e(A, C)} with e the
Euler exponent of the pair).

Backends present a uniform interface over the object kinds:
representations of an acyclic quiver, and complexes of projectives.  Both
count with plain Hom cardinalities and classify objects up to (strict)
isomorphism.  A third backend, of minimal complexes up to isomorphism
(stable classes), serves the derived product of `sdh`: it counts with
stable Hom cardinalities, strips the middles' contractible summands, and
its records scale each pair by q to the negative-Ext exponent.
Structure constants are cached by content, keyed on the backend's signature
and canonical object encodings, so cached and fresh runs produce identical
output.  `_Backend.read` is the one way from an encoding read from disk, an
element-file term or a cached middle, to an object: it builds a validated
object and requires the encoding to be that object's canonical one.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm

# The builtin SHA-256, as random.py does for sha512: importing hashlib loads
# OpenSSL, about 3 MB of resident memory, for the same digests.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:  # an interpreter built without the builtin hashes
        from hashlib import sha256 as _sha256

from .config import Caps, DEFAULT_CAPS
from .errors import EulerUndefined, SpecError, WindowOverflow
from .linalg import Field, Matrix
from .quiver import (
    Quiver,
    Registry,
    Rep,
    euler_exponent,
    ext1_space,
    iso_test,
    middle_term,
    rep_invariant,
    rep_registry,
)


class SqrtExt:
    """Element a + b v of Q(v), v^2 = q: exact scalars for twisted products."""

    __slots__ = ("q", "a", "b")

    def __init__(self, q: int, a, b=0):
        self.q = int(q)
        self.a = a if type(a) is Fraction else Fraction(a)
        self.b = b if type(b) is Fraction else Fraction(b)

    def _coerce(self, other) -> "SqrtExt":
        if isinstance(other, SqrtExt):
            if other.q != self.q:
                raise ValueError("mixing square roots of different primes")
            return other
        return SqrtExt(self.q, other)

    def __add__(self, other):
        o = self._coerce(other)
        return SqrtExt(self.q, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return SqrtExt(self.q, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return SqrtExt(self.q, -self.a, -self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        return SqrtExt(
            self.q,
            self.a * o.a + self.b * o.b * self.q,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def inverse(self) -> "SqrtExt":
        d = self.a * self.a - self.b * self.b * self.q
        if d == 0:
            if self.a == 0 and self.b == 0:
                raise ZeroDivisionError("inverse of zero")
            raise ZeroDivisionError("norm vanished; q is not a rational square")
        return SqrtExt(self.q, self.a / d, -self.b / d)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = SqrtExt(self.q, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __eq__(self, other):
        if isinstance(other, SqrtExt):
            return (self.q, self.a, self.b) == (other.q, other.a, other.b)
        return self.b == 0 and self.a == other

    def __hash__(self):
        # a rational element equals its Fraction, so it must hash like one
        if self.b == 0:
            return hash(self.a)
        return hash((self.q, self.a, self.b))

    def __repr__(self):
        if self.b == 0:
            return f"{self.a}"
        return f"{self.a}+{self.b}v"


def _as_triple(c, q: int) -> tuple[int, int, int]:
    """Integers (A, B, D), D > 0, with c = (A + B v) / D: a SqrtExt over q
    on the lcm of its two denominators, any rational with B = 0."""
    if isinstance(c, SqrtExt):
        if c.q != q:
            raise ValueError("mixing square roots of different primes")
        a, b = c.a, c.b
        d = lcm(a.denominator, b.denominator)
        return a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), d
    f = c if type(c) is Fraction else Fraction(c)
    return f.numerator, 0, f.denominator


# ---- backends ----


def _by_encoding(objs) -> dict[tuple, list]:
    """{encoding: [first object with it, count]} in first-occurrence order."""
    counts: dict[tuple, list] = {}
    for obj in objs:
        counts.setdefault(obj.encoding(), [obj, 0])[1] += 1
    return counts


def _group_middles(objs, registry: Registry) -> list[tuple[object, int]]:
    """[(witness, class count)] for a list of middles.

    Middles are classified by a fresh `registry` in the sorted order of
    their encodings, so each class's witness, the middle that opened it,
    has its smallest encoding and the output is in first-witness order.

    For representations the sort is a no-op: ext1_space's complement is a
    set of unit coordinate vectors in ascending order, its cocycles run
    lexicographically over their coefficients, and a middle's encoding lists
    those coordinates in the same order.  Complex cocycles are combinations
    of kernel columns, so no such argument holds there and the sort stays,
    though no pair whose orders differ is known (none in 2,409 pairs of A2
    and A3 windows and A2 period 2).
    """
    counts = _by_encoding(objs)
    grouped: dict[int, int] = {}
    for enc in sorted(counts):
        obj, n = counts[enc]
        i = registry.classify(obj)
        grouped[i] = grouped.get(i, 0) + n
    return [(registry.object(i), grouped[i]) for i in sorted(grouped)]


class _Backend:
    """What every backend shares: classes in `self.registry`, objects
    encoded by their own `encoding()`, and the one reader of encodings from
    outside, which checks element-file terms and cached witnesses alike."""

    # record fields after "hom", in the order raw_ext_data returns them;
    # each is an exponent k that scales the pair's product term by q^k
    record_fields: tuple[str, ...] = ()

    def classify(self, obj) -> int:
        return self.registry.classify(obj)

    def object(self, i: int):
        return self.registry.object(i)

    def encode(self, obj) -> tuple:
        return obj.encoding()

    def read(self, enc):
        """The object an encoding from outside names: the one way from a
        JSON value to an object.  Raises SpecError unless the value holds
        only lists of integers, decodes to a valid object (for complexes:
        degrees in the category, morphisms with d d = 0) and is that
        object's canonical encoding (entries in [0, q), degrees in order)."""
        return self._read_tuples(_json_to_enc(enc))

    def _read_tuples(self, enc):
        """read() of an encoding already converted by _json_to_enc.  Each
        distinct encoding is decoded once per backend: `_reads` keeps the
        object, or the message a rejection raises, by encoding."""
        got = self._reads.get(enc)
        if got is None:
            try:
                got = self.decode(enc)
            except (ValueError, TypeError, IndexError, KeyError, OverflowError,
                    SpecError, WindowOverflow) as e:
                got = f"encoding names no object: {type(e).__name__}: {e}"
            else:
                if self.encode(got) != enc:
                    got = "encoding is not the canonical one of the object it names"
            self._reads[enc] = got
        if type(got) is str:
            raise SpecError(got)
        return got

    def _witness(self, enc, head: tuple):
        """The object a converted cached middle encoding names, or None
        unless the encoding starts with `head` and read() accepts it."""
        if not (isinstance(enc, tuple) and enc[:1] == (head,)):
            return None
        try:
            return self._read_tuples(enc)
        except SpecError:
            return None


class RepBackend(_Backend):
    """Quiver representations up to isomorphism."""

    def __init__(self, quiver: Quiver, field: Field, caps: Caps = DEFAULT_CAPS):
        self.quiver = quiver
        self.field = field
        self.caps = caps
        self.registry = rep_registry(caps)
        self._reads: dict = {}

    def signature(self) -> tuple:
        return ("reps", self.quiver.n, self.quiver.arrows, self.field.p)

    def decode(self, enc) -> Rep:
        dims, maps = enc
        mats = [
            Matrix(self.field, rows, dims[t - 1])
            for (t, h), rows in zip(self.quiver.arrows, maps)
        ]
        return Rep(self.quiver, self.field, dims, mats)

    def zero_id(self) -> int:
        return self.classify(Rep.zero(self.quiver, self.field))

    def raw_ext_data(self, a: Rep, c: Rep):
        """(hom cardinality, [(middle, class count)]), one witness per class."""
        ext = ext1_space(a, c, self.caps)
        mids = [middle_term(a, c, f) for f in ext.reps]
        # rep_registry's twin, built here so its iso tests run through this
        # module's iso_test binding (the one perfbench's tracer counts)
        reg = Registry(lambda x, y: iso_test(x, y, self.caps), rep_invariant)
        return self.field.p ** ext.hom_dim, _group_middles(mids, reg)

    def euler_exp(self, a: Rep, c: Rep) -> int:
        return euler_exponent(self.quiver, a.dims, c.dims)

    def _middle_head(self, a: Rep, c: Rep) -> tuple:
        """First part of the encoding of every middle of (a, c): its dims."""
        return tuple(x + y for x, y in zip(a.dims, c.dims))


class CxBackend(_Backend):
    """Complexes of projectives up to (strict) isomorphism: the exact
    category whose conflations are the degreewise-split short exact
    sequences."""

    def __init__(self, cat: cx.ComplexCategory, caps: Caps = DEFAULT_CAPS):
        # bind `cx` here, not at import: representation runs never load complexes
        global cx
        from . import complexes as cx
        self.cat = cat
        self.quiver = cat.quiver
        self.field = cat.field
        self.caps = caps
        self.registry = self._registry()
        self._reads: dict = {}

    def _registry(self) -> Registry:
        return cx.cx_registry(self.cat, self.caps)

    def signature(self) -> tuple:
        return self.cat.signature()

    def decode(self, enc) -> cx.Complex:
        comps_part, diffs_part = enc
        comps = {n: tuple(m) for n, m in comps_part}
        diffs = {}
        for n, vmats in diffs_part:
            src = self.cat.rep_of(comps[n]).dims
            diffs[n] = tuple(
                Matrix(self.field, rows, s) for s, rows in zip(src, vmats, strict=True)
            )
        return cx.Complex(self.cat, comps, diffs)

    def zero_id(self) -> int:
        return self.classify(self.cat.zero_complex())

    def raw_ext_data(self, a: cx.Complex, c: cx.Complex):
        """(hom cardinality, [(middle, count)], *record_fields) of a pair."""
        ext = cx.ext1_classes(a, c, self.caps)
        # read off the Hom complex ext1_classes built, before the iso tests
        # of grouping replace it
        hom, *fields = self._pair_numbers(a, c)
        mids = [cx.middle_term_cx(a, c, f) for f in ext.reps]
        return (hom, self._group(mids), *fields)

    def _pair_numbers(self, a: cx.Complex, c: cx.Complex) -> tuple:
        """(hom, *record_fields) of a pair, off its Hom complex."""
        return (cx.hom_card(a, c),)

    def _group(self, mids: list) -> list[tuple[cx.Complex, int]]:
        """One witness per strict class, counted."""
        return _group_middles(mids, self._registry())

    def euler_exp(self, a: cx.Complex, c: cx.Complex) -> int:
        return cx.euler_exponent_cx(a, c)  # raises EulerUndefined when periodic

    def _middle_head(self, a: cx.Complex, c: cx.Complex) -> tuple:
        """First part of the encoding of every middle of (a, c): the
        multiplicities degree by degree, as conflations split degreewise."""
        return tuple(
            (n, tuple(x + y for x, y in zip(a.mults(n), c.mults(n))))
            for n in sorted(set(a.comps) | set(c.comps))
        )


class StableBackend(CxBackend):
    """Minimal complexes up to isomorphism, i.e. stable classes: the
    derived Hall product's backend.

    A pair's record holds |stable Hom(a, c)| as its hom, the negative-Ext
    exponent sum_{i=1}^{w} (-1)^(i+1) dim H^-i of the Hom complex (w the
    window width, beyond which Hom^-i = 0) and, for each distinct encoding
    of a stripped middle, the number of Ext^1 classes that give it, in
    enumeration order.  Classifying these witnesses in that order grows the
    registry exactly as classifying every stripped middle would.
    """

    record_fields = ("neg_ext",)

    def __init__(self, cat: cx.ComplexCategory, caps: Caps = DEFAULT_CAPS):
        super().__init__(cat, caps)
        self._minimal: dict[tuple, bool] = {}  # is_minimal of read witnesses, by encoding

    def _registry(self) -> Registry:
        return cx.stable_registry(self.cat, self.caps)

    def signature(self) -> tuple:
        return ("stable", *self.cat.signature())

    def _pair_numbers(self, a: cx.Complex, c: cx.Complex) -> tuple:
        """(|stable Hom(a, c)|, neg_ext): H^0 and the H^-i, stable
        Hom(a, c[-i]), of the pair's Hom complex."""
        hc = cx._hom_complex(a, c)
        width = self.cat.hi - self.cat.lo
        neg_ext = sum((-1) ** (i + 1) * hc.dim(-i) for i in range(1, width + 1))
        return cx.stable_hom_card(a, c), neg_ext

    def _group(self, mids: list) -> list[tuple[cx.Complex, int]]:
        """One entry per distinct encoding of a stripped middle, at its first
        occurrence; classes are left to the registry."""
        stripped = (cx.strip_contractibles(mid)[0] for mid in mids)
        return [(m, n) for m, n in _by_encoding(stripped).values()]

    def _alternating_class(self, comps: dict) -> tuple[int, ...]:
        """sum_n (-1)^n comps[n]: a cone P_i in degrees n, n + 1 adds nothing."""
        out = [0] * self.quiver.n
        for n, mults in comps.items():
            sign = -1 if n % 2 else 1
            for v, m in enumerate(mults):
                out[v] += sign * m
        return tuple(out)

    def _middle_head(self, a: cx.Complex, c: cx.Complex) -> tuple:
        """What every stripped middle of (a, c) shares: the alternating class
        of a (+) c, and multiplicities at most those of a (+) c, degree by
        degree (stripping only removes summands)."""
        bound = dict(super()._middle_head(a, c))
        return self._alternating_class(bound), bound

    def _witness(self, enc, head: tuple):
        """The minimal complex a converted cached encoding names, or None
        unless it fits `head` and read() accepts it.  The multiplicities are
        checked first, so no oversized object is built."""
        alt, bound = head
        try:
            for n, mults in enc[0]:
                if not all(0 <= m <= b for m, b in zip(mults, bound[n], strict=True)):
                    return None
            obj = self._read_tuples(enc)
        except (ValueError, TypeError, IndexError, KeyError, SpecError):
            return None
        if self._alternating_class(obj.comps) != alt:
            return None
        minimal = self._minimal.get(enc)
        if minimal is None:
            minimal = self._minimal[enc] = cx.is_minimal(obj)
        return obj if minimal else None


# ---- content-addressed structure-constant cache ----


def _json_to_enc(obj):
    """An encoding from outside as nested tuples: lists and tuples of
    non-bool ints become tuples, and anything else raises SpecError."""
    if type(obj) is int:
        return obj
    if type(obj) is list or type(obj) is tuple:
        return tuple(map(_json_to_enc, obj))
    raise SpecError(f"an encoding holds only lists of integers, not {obj!r}")


def _is_power(x, q: int) -> bool:
    """x is an int q^k with k >= 0."""
    if type(x) is not int or x < 1:
        return False
    while x % q == 0:
        x //= q
    return x == 1


def pair_key(signature: tuple, enc_a, enc_c) -> str:
    # json.dumps writes tuples as lists: the canonical JSON form
    blob = json.dumps([signature, enc_a, enc_c], separators=(",", ":"))
    return _sha256(blob.encode()).hexdigest()


class MemoryCache:
    """Dict-backed structure cache; files.py provides the persistent one."""

    def __init__(self):
        self.data: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> dict | None:
        rec = self.data.get(key)
        if rec is None:
            self.misses += 1
        else:
            self.hits += 1
        return rec

    def put(self, key: str, record: dict) -> None:
        self.data[key] = record


class HallAlgebra:
    """Hall products over a backend, with content-keyed memoization.

    Elements are plain dicts {class id: coefficient}; coefficients are
    Fractions (plain product) or SqrtExt scalars (twisted product).
    """

    def __init__(self, backend, cache=None):
        self.backend = backend
        self.cache = cache if cache is not None else MemoryCache()
        self.q = backend.field.p
        # (a_id, c_id) -> [pair key, (hom, [(b_id, n)], *fields) or None until resolved]
        self._pairs: dict[tuple[int, int], list] = {}

    # -- elements --

    def basis(self, obj) -> dict:
        return {self.backend.classify(obj): Fraction(1)}

    def add(self, x: dict, y: dict) -> dict:
        out = dict(x)
        for k, v in y.items():
            s = out.get(k, 0) + v
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return out

    def scale(self, c, x: dict) -> dict:
        if c == 0:
            return {}
        return {k: c * v for k, v in x.items()}

    def equal(self, x: dict, y: dict) -> bool:
        keys = set(x) | set(y)
        for k in keys:
            if x.get(k, 0) != y.get(k, 0):
                return False
        return True

    # -- structure constants --

    def ext_data(self, a_id: int, c_id: int):
        """(hom cardinality, [(middle id, class count)], *record fields),
        cache-backed; the backend names any record fields after hom.

        Every call looks its pair up in the cache once.  The first time a
        pair is seen, a record's middles are checked and classified; a record
        that fails _resolve is recomputed as if it were missing, and a
        recomputed record's middles are classified as raw_ext_data built
        them.  A backend may list one class more than once.
        """
        bk = self.backend
        entry = self._pairs.get((a_id, c_id))
        if entry is None:
            key = pair_key(bk.signature(), bk.encode(bk.object(a_id)), bk.encode(bk.object(c_id)))
            entry = self._pairs[(a_id, c_id)] = [key, None]
        key, resolved = entry
        rec = self.cache.get(key)
        if resolved is None:
            a, c = bk.object(a_id), bk.object(c_id)
            pair = None if rec is None else self._resolve(rec, bk._middle_head(a, c))
            if pair is None:
                # missing or malformed: recompute; a malformed line stays on
                # disk, as a torn one does, and this run uses the fresh record
                pair = bk.raw_ext_data(a, c)
                hom, middles, *fields = pair
                self.cache.put(key, {
                    "hom": hom,
                    **dict(zip(bk.record_fields, fields)),
                    # json.dumps writes the encoding tuples as lists
                    "middles": [[bk.encode(obj), n] for obj, n in middles],
                })
            hom, middles, *fields = pair
            resolved = entry[1] = (hom, [(bk.classify(obj), n) for obj, n in middles], *fields)
        return (resolved[0], list(resolved[1]), *resolved[2:])

    def _resolve(self, rec, head: tuple) -> tuple | None:
        """(hom, [(middle, count)], *record fields) of a pair record, or
        None unless hom and the sum of the counts are powers of q, every
        record field is an int, and every middle is [encoding, count >= 1]
        whose encoding the backend's _witness accepts against `head` (what
        every middle of the pair shares).  Nothing is classified here.
        """
        bk = self.backend
        if not isinstance(rec, dict) or not isinstance(rec.get("middles"), list):
            return None
        if not _is_power(rec.get("hom"), self.q):
            return None
        fields = [rec.get(f) for f in bk.record_fields]
        if any(type(x) is not int for x in fields):
            return None
        objs = []
        for item in rec["middles"]:
            if not (isinstance(item, list) and len(item) == 2):
                return None
            n = item[1]
            if type(n) is not int or n < 1:
                return None
            try:
                obj = bk._witness(_json_to_enc(item[0]), head)
            except SpecError:
                return None
            if obj is None:
                return None
            objs.append((obj, n))
        if not _is_power(sum(n for _, n in objs), self.q):  # |Ext^1|
            return None
        return (rec["hom"], objs, *fields)

    # -- products --

    def product(self, x: dict, y: dict) -> dict:
        """Plain counting product, coefficients in Q."""
        return self._product(x, y, twisted=False)

    def twisted_product(self, x: dict, y: dict) -> dict:
        """Euler-twisted product: pairwise scaled by v^{e(A, C)}, v^2 = q."""
        return self._product(x, y, twisted=True)

    def _product(self, x: dict, y: dict, twisted: bool) -> dict:
        """Bilinear product: a pair [A], [C] with coefficients ca, cc adds
        ca cc v^e |Ext^1(A, C)_B| / |Hom(A, C)| to each middle [B], with e
        twice the sum of the record fields (the stable backend's negative-Ext
        exponent), plus e(A, C) when `twisted`.  Zero coefficients are
        dropped; the rest are SqrtExt scalars when the product is twisted or
        an input coefficient is a SqrtExt, Fractions otherwise.
        """
        bk, q = self.backend, self.q
        ys = [(i, _as_triple(c, q)) for i, c in sorted(y.items())]
        acc: dict = {}
        for a_id, ta in [(i, _as_triple(c, q)) for i, c in sorted(x.items())]:
            for c_id, tc in ys:
                hom, middles, *fields = self.ext_data(a_id, c_id)
                e = 2 * sum(fields)  # q^k = v^2k per record field k
                if twisted:
                    e += bk.euler_exp(bk.object(a_id), bk.object(c_id))
                _accumulate(acc, middles, ta, tc, hom, e, q)
        return _coefficients(acc, q, x, y, twisted)


def _accumulate(acc: dict, middles, ta: tuple, tc: tuple, hom: int, e: int, q: int) -> None:
    """Add n ca cc v^e / hom to acc[key] for each (key, n) of `middles`,
    ca and cc the integer triples ta and tc: the accumulation step of every
    product (`hall`, `twisted`, `dh`, `sdh`, `sdh-tw`).  A triple (A, B, D),
    D > 0, stands for (A + B v) / D, v^2 = q; each key of `acc` holds one,
    over the lcm of the denominators added to it."""
    (a1, b1, d1), (a2, b2, d2) = ta, tc
    num_a = a1 * a2 + q * b1 * b2
    num_b = a1 * b2 + b1 * a2
    den = d1 * d2 * hom
    if e & 1:  # (A + B v) v = q B + A v
        num_a, num_b = q * num_b, num_a
    k = e >> 1  # v^e = q^k, times v when e is odd
    if k > 0:
        num_a, num_b = num_a * q**k, num_b * q**k
    elif k < 0:
        den *= q**-k
    for key, n in middles:
        t = acc.get(key)
        if t is None:
            acc[key] = [n * num_a, n * num_b, den]
        else:  # over the lcm of the two denominators
            g = gcd(t[2], den)
            t[0] = t[0] * (den // g) + n * num_a * (t[2] // g)
            t[1] = t[1] * (den // g) + n * num_b * (t[2] // g)
            t[2] = t[2] // g * den


def _coefficients(acc: dict, q: int, x: dict, y: dict, twisted: bool = False) -> dict:
    """{key: coefficient} of the _accumulate accumulator of a product x y,
    zeros dropped: SqrtExt scalars over q when the product is Euler-twisted
    or an input coefficient is a SqrtExt, Fractions otherwise (B is 0)."""
    if twisted or any(isinstance(c, SqrtExt) for c in [*x.values(), *y.values()]):
        return {k: SqrtExt(q, Fraction(a, d), Fraction(b, d)) for k, (a, b, d) in acc.items()
                if a or b}
    return {k: Fraction(a, d) for k, (a, _, d) in acc.items() if a}


def verify_associativity(
    algebra: HallAlgebra,
    ids: list[int],
    twisted: bool = False,
) -> list[dict]:
    """Check ([a][b])[c] = [a]([b][c]) over all triples from `ids`.

    The products of every listed pair are computed first, in deterministic
    order; each triple then multiplies one of them by a listed class.
    Returns one record per failing triple.
    """
    prod = algebra.twisted_product if twisted else algebra.product
    one = (lambda i: {i: SqrtExt(algebra.q, 1)}) if twisted else (lambda i: {i: Fraction(1)})
    firsts: dict[tuple[int, int], dict] = {}
    for a in ids:
        for b in ids:
            firsts[(a, b)] = prod(one(a), one(b))
    failures = []
    for a in ids:
        for b in ids:
            for c in ids:
                left = prod(firsts[(a, b)], one(c))
                right = prod(one(a), firsts[(b, c)])
                if not algebra.equal(left, right):
                    failures.append({"triple": [a, b, c], "left": left, "right": right})
    return failures
