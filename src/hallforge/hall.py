"""Hall algebra core: counting products over either backend.

The product of basis classes [A] and [C] has [B]-coefficient
|Ext^1(A, C)_B| / |Hom(A, C)|, where Ext^1(A, C)_B counts extension classes
of conflations C >-> B' ->> A with B' isomorphic to B.  Coefficients live
in Q (plain product) or in Q adjoined a square root v of q (twisted
product, which scales each pairwise product by v^{e(A, C)} with e the
Euler exponent of the pair).

Backends present a uniform interface over the two object kinds:
representations of an acyclic quiver, and complexes of projectives.  Both
count with plain Hom cardinalities and classify objects up to (strict)
isomorphism; structure constants are cached by content, keyed on canonical
object encodings, so cached and fresh runs produce identical output.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .config import Caps, DEFAULT_CAPS
from .errors import EulerUndefined, SpecError
from . import complexes as cx
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
        self.a = Fraction(a)
        self.b = Fraction(b)

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
    f = Fraction(c)
    return f.numerator, 0, f.denominator


# ---- backends ----


def _matrix_of_rows(field: Field, rows, r: int, c: int) -> Matrix:
    """The r x c matrix whose Matrix.entries() are `rows`."""
    return Matrix(field, np.array(rows, dtype=np.int64).reshape(r, c))


def _group_middles(encs, decode, registry: Registry) -> list[tuple[tuple, int]]:
    """[(witness encoding, class count)] for a list of middle encodings.

    Encodings are classified by `registry` in sorted order, so each class's
    witness is its smallest encoding and the output is in first-witness
    order.
    """
    counts: dict[tuple, int] = {}
    for enc in encs:
        counts[enc] = counts.get(enc, 0) + 1
    grouped: dict[int, int] = {}
    witness: dict[int, tuple] = {}
    for enc, n in sorted(counts.items()):
        i = registry.classify(decode(enc))
        grouped[i] = grouped.get(i, 0) + n
        witness.setdefault(i, enc)
    return [(witness[i], grouped[i]) for i in sorted(witness)]


class RepBackend:
    """Quiver representations up to isomorphism."""

    kind = "reps"

    def __init__(self, quiver: Quiver, field: Field, caps: Caps = DEFAULT_CAPS):
        self.quiver = quiver
        self.field = field
        self.caps = caps
        self.registry = rep_registry(caps)

    def signature(self) -> tuple:
        return ("reps", self.quiver.n, self.quiver.arrows, self.field.p)

    def classify(self, obj: Rep) -> int:
        return self.registry.classify(obj)

    def object(self, i: int) -> Rep:
        return self.registry.object(i)

    def encode(self, obj: Rep) -> tuple:
        return obj.encoding()

    def decode(self, enc) -> Rep:
        dims, maps = enc
        mats = [
            _matrix_of_rows(self.field, rows, dims[h - 1], dims[t - 1])
            for (t, h), rows in zip(self.quiver.arrows, maps)
        ]
        return Rep(self.quiver, self.field, dims, mats)

    def zero_id(self) -> int:
        return self.classify(Rep.zero(self.quiver, self.field))

    def raw_ext_data(self, a: Rep, c: Rep):
        """(hom cardinality, [(middle encoding, class count)])."""
        ext = ext1_space(a, c, self.caps)
        encs = [middle_term(a, c, f).encoding() for f in ext.reps]
        # rep_registry's twin, built here so its iso tests run through this
        # module's iso_test binding (the one perfbench's tracer counts)
        reg = Registry(lambda x, y: iso_test(x, y, self.caps), rep_invariant)
        return self.field.p ** ext.hom_dim, _group_middles(encs, self.decode, reg)

    def euler_exp(self, a: Rep, c: Rep) -> int:
        return euler_exponent(self.quiver, a.dims, c.dims)

    def _middle_head(self, a: Rep, c: Rep) -> tuple:
        """First part of the encoding of every middle of (a, c): its dims."""
        return tuple(x + y for x, y in zip(a.dims, c.dims))


class CxBackend:
    """Complexes of projectives up to (strict) isomorphism: the exact
    category whose conflations are the degreewise-split short exact
    sequences."""

    kind = "complexes"

    def __init__(self, cat: cx.ComplexCategory, caps: Caps = DEFAULT_CAPS):
        self.cat = cat
        self.quiver = cat.quiver
        self.field = cat.field
        self.caps = caps
        self.registry = cx.cx_registry(cat, caps)

    def signature(self) -> tuple:
        return self.cat.signature()

    def classify(self, obj: cx.Complex) -> int:
        return self.registry.classify(obj)

    def object(self, i: int) -> cx.Complex:
        return self.registry.object(i)

    def encode(self, obj: cx.Complex) -> tuple:
        return obj.encoding()

    def decode(self, enc) -> cx.Complex:
        comps_part, diffs_part = enc
        comps = {n: tuple(m) for n, m in comps_part}
        diffs = {}
        for n, vmats in diffs_part:
            src = self.cat.rep_of(comps[n]).dims
            tgt = self.cat.rep_of(comps[self.cat.next_deg(n)]).dims
            diffs[n] = tuple(
                _matrix_of_rows(self.field, rows, t, s)
                for s, t, rows in zip(src, tgt, vmats, strict=True)
            )
        return cx.Complex(self.cat, comps, diffs, validate=False)

    def zero_id(self) -> int:
        return self.classify(self.cat.zero_complex())

    def raw_ext_data(self, a: cx.Complex, c: cx.Complex):
        ext = cx.ext1_classes(a, c, self.caps)
        encs = [cx.middle_term_cx(a, c, f).encoding() for f in ext.reps]
        reg = cx.cx_registry(self.cat, self.caps)
        return cx.hom_card(a, c), _group_middles(encs, self.decode, reg)

    def euler_exp(self, a: cx.Complex, c: cx.Complex) -> int:
        return cx.euler_exponent_cx(a, c)  # raises EulerUndefined when periodic

    def _middle_head(self, a: cx.Complex, c: cx.Complex) -> tuple:
        """First part of the encoding of every middle of (a, c): the
        multiplicities degree by degree, as conflations split degreewise."""
        return tuple(
            (n, tuple(x + y for x, y in zip(a.mults(n), c.mults(n))))
            for n in sorted(set(a.comps) | set(c.comps))
        )


# ---- content-addressed structure-constant cache ----


def _enc_to_json(enc):
    """Nested tuples -> nested lists (canonical JSON form)."""
    if isinstance(enc, tuple):
        return [_enc_to_json(x) for x in enc]
    return enc


def _json_to_enc(obj):
    if isinstance(obj, list):
        return tuple(_json_to_enc(x) for x in obj)
    return obj


def _is_power(x, q: int) -> bool:
    """x is an int q^k with k >= 0."""
    if type(x) is not int or x < 1:
        return False
    while x % q == 0:
        x //= q
    return x == 1


def pair_key(signature: tuple, enc_a, enc_c) -> str:
    blob = json.dumps(
        [_enc_to_json(signature), _enc_to_json(enc_a), _enc_to_json(enc_c)],
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


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
        self._pair_keys: dict[tuple[int, int], str] = {}  # (a_id, c_id) -> pair key
        self._resolved: dict[str, tuple] = {}  # pair key -> (hom, [(b_id, n)])

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
        """(hom cardinality, [(middle id, class count)]), cache-backed.

        Every call looks its pair up in the cache once; a record's middles
        are decoded and classified only the first time its key is seen, and
        a record that fails _resolve is recomputed as if it were missing.
        """
        bk = self.backend
        key = self._pair_keys.get((a_id, c_id))
        if key is None:
            key = pair_key(bk.signature(), bk.encode(bk.object(a_id)), bk.encode(bk.object(c_id)))
            self._pair_keys[(a_id, c_id)] = key
        rec = self.cache.get(key)
        resolved = self._resolved.get(key)
        if resolved is None:
            a, c = bk.object(a_id), bk.object(c_id)
            head = bk._middle_head(a, c)
            resolved = None if rec is None else self._resolve(rec, head)
            if resolved is None:
                # missing or malformed: recompute; a malformed line stays on
                # disk, as a torn one does, and this run uses the fresh record
                hom, middles = bk.raw_ext_data(a, c)
                rec = {
                    "hom": hom,
                    "middles": [[_enc_to_json(enc), n] for enc, n in middles],
                }
                self.cache.put(key, rec)
                resolved = self._resolve(rec, head)
            self._resolved[key] = resolved
        return resolved[0], list(resolved[1])

    def _resolve(self, rec, head: tuple) -> tuple | None:
        """(hom, [(middle id, count)]) of a pair record, or None unless hom
        and the sum of the counts are powers of q and every middle is
        [encoding, count >= 1] with an encoding that starts with `head` (the
        dims or multiplicities every middle of the pair has), decodes to an
        object of the category and encodes back unchanged (so every entry
        lies in [0, q)).  For complexes d d = 0 is not checked.  Nothing is
        classified until the whole record passes.
        """
        bk = self.backend
        if not isinstance(rec, dict) or not isinstance(rec.get("middles"), list):
            return None
        if not _is_power(rec.get("hom"), self.q):
            return None
        objs = []
        for item in rec["middles"]:
            if not (isinstance(item, list) and len(item) == 2):
                return None
            enc, n = _json_to_enc(item[0]), item[1]
            if type(n) is not int or n < 1 or not (isinstance(enc, tuple) and enc[:1] == (head,)):
                return None
            try:
                obj = bk.decode(enc)
            except (ValueError, TypeError, IndexError, KeyError, OverflowError):
                return None
            if bk.encode(obj) != enc:
                return None
            objs.append((obj, n))
        if not _is_power(sum(n for _, n in objs), self.q):  # |Ext^1|
            return None
        return rec["hom"], [(bk.classify(obj), n) for obj, n in objs]

    # -- products --

    def product(self, x: dict, y: dict) -> dict:
        """Plain counting product, coefficients in Q."""
        return self._product(x, y, twisted=False)

    def twisted_product(self, x: dict, y: dict) -> dict:
        """Euler-twisted product: pairwise scaled by v^{e(A, C)}, v^2 = q."""
        return self._product(x, y, twisted=True)

    def _product(self, x: dict, y: dict, twisted: bool) -> dict:
        """Bilinear product: a pair [A], [C] with coefficients ca, cc adds
        ca cc v^e |Ext^1(A, C)_B| / |Hom(A, C)| to each middle [B], with
        e = e(A, C) when `twisted` and e = 0 otherwise.

        Every term is an integer triple (A, B, D) standing for (A + B v) / D
        with D > 0, and each middle accumulates one triple; a coefficient
        is built once, at the end: a SqrtExt when the product is twisted or
        an input coefficient is a SqrtExt, a Fraction otherwise.  Zero
        coefficients are dropped.
        """
        bk, q = self.backend, self.q
        xs = [(i, _as_triple(c, q)) for i, c in sorted(x.items())]
        ys = [(i, _as_triple(c, q)) for i, c in sorted(y.items())]
        acc: dict[int, list[int]] = {}
        for a_id, (a1, b1, d1) in xs:
            for c_id, (a2, b2, d2) in ys:
                num_a = a1 * a2 + q * b1 * b2
                num_b = a1 * b2 + b1 * a2
                den = d1 * d2
                if twisted:
                    e = bk.euler_exp(bk.object(a_id), bk.object(c_id))
                    if e & 1:  # (A + B v) v = q B + A v
                        num_a, num_b = q * num_b, num_a
                    k = e >> 1  # v^e = q^k, times v when e is odd
                    if k > 0:
                        num_a, num_b = num_a * q**k, num_b * q**k
                    elif k < 0:
                        den *= q**-k
                hom, middles = self.ext_data(a_id, c_id)
                den *= hom
                for b_id, n in middles:
                    t = acc.get(b_id)
                    if t is None:
                        acc[b_id] = [n * num_a, n * num_b, den]
                    else:  # over the lcm of the two denominators
                        g = gcd(t[2], den)
                        t[0] = t[0] * (den // g) + n * num_a * (t[2] // g)
                        t[1] = t[1] * (den // g) + n * num_b * (t[2] // g)
                        t[2] = t[2] // g * den
        radical = twisted or any(isinstance(c, SqrtExt) for c in [*x.values(), *y.values()])
        out: dict = {}
        for b_id, (num_a, num_b, den) in acc.items():
            if num_a == 0 and num_b == 0:
                continue
            if radical:
                out[b_id] = SqrtExt(q, Fraction(num_a, den), Fraction(num_b, den))
            else:
                out[b_id] = Fraction(num_a, den)
        return out


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
