"""Localized Hall module over the torus of contractible classes.

Every object of a complex category splits as K ⊕ m with K contractible and
m minimal, and the classes of contractible complexes form a quantum torus
under the Hall product (they pair trivially in ext).  Inverting those
classes turns the Hall algebra into a free module with basis
t_gamma ⋄ [m], gamma an integer exponent vector over the contractible
generators and m a minimal complex.  This module implements that basis,
the rewriting of arbitrary classes onto it, the localized product, the
relative Euler pairing and the product it twists, the corrected product on
stable classes with negative-ext factors, and verification routines for
freeness and for the tensor-factorization comparison.

Both localized products are torus bookkeeping over the strict product:
every scalar they add to a strict Hall number is a power of q (the
commutation, the torus pairings, |Hom(K_eps, u)| and the relative Euler
twist), so they read the strict pair records as exponents and sum through
`hall`'s integer accumulator, and each strict class is rewritten onto the
basis once per run.  Elements are dicts mapping (gamma, stable_id) -> Fraction.

The torus has one generator per cone K(i, n), n in the category's
`cone_degrees()`; `QuantumTorus` records each cone's (i, n, multiplicity
vector).  The shift sends K(i, n) to K(i, wrap(n - k)), which leaves the
window exactly when the torus has no such generator.

Pairings are read off degrees, with dim Hom(x_m, y_n) between projectives
from the quiver's Euler form (Ext^1(P, -) = 0).  The Hom complex
Hom^p(x, y) = prod_m Hom(x_m, y_{m+p}) is finite, so its Euler
characteristic is that of its cohomology H^p.  Hence on a bounded window:
the relative Euler pairing dim Hom - dim H^0 + sum_{i>=1} (-1)^(i+1) dim H^-i
is sum_{m>n} (-1)^(m-n+1) dim Hom(x_m, y_n), since dim Hom - dim H^0 =
dim B^0 and Hom^-N -> ... -> Hom^-1 -> B^0 has cohomology H^-i (i >= 1) only;
a basis key (gamma, m) pairs through the class of K_gamma ⊕ m, gamma of any
sign.  The Euler form sum_p (-1)^p dim H^p is sum_{m,n} (-1)^(n-m)
dim Hom(x_m, y_n) (`complexes.euler_exponent_cx`).  The cones are
projective-injective: a chain map K(i, n) -> x is any map P_i -> x_n, and
x -> K(i, n) is any map x_{n+1} -> P_i.  The derived product is the
counting product of `hall.StableBackend`: on a pair-cache miss it reads
H^-i, H^0 and H^1 of one Hom complex, dim H^k = dim Hom^k - rank d^k
- rank d^(k-1): that is still the literal route, which the `toen` suite
compares with the closed forms.  A cached pair record holds |H^0| and the
negative-Ext exponent, so a warm run computes neither.
"""

from fractions import Fraction

from . import complexes as cx
from .complexes import Complex, ComplexCategory, contractible_generators
from .config import DEFAULT_CAPS, Caps
from .errors import (
    DerivedUndefined,
    RelEulerUndefined,
    SpecError,
    WindowOverflow,
)
from .hall import CxBackend, HallAlgebra, MemoryCache, StableBackend
from .hall import _accumulate, _as_triple, _coefficients


class QuantumTorus:
    """Multiplicative group ring of contractible classes.

    t_gamma ⋄ t_delta = pairing(gamma, delta)^-1 t_{gamma+delta}, where the
    pairing is the hom cardinality extended biadditively to exponents.
    """

    def __init__(self, cat: ComplexCategory):
        self.cat = cat
        self.q = cat.field.p
        self.gens = contractible_generators(cat)
        self.keys = list(self.gens)
        self.index = {k: i for i, k in enumerate(self.keys)}
        self.rank = len(self.keys)
        # per cone K(i, n), in key order: i, n and P_i's multiplicity vector
        self._cones = [(i, n, self.gens[cx.generator_key(i, n)].mults(n))
                       for n in cat.cone_degrees() for i in range(1, cat.quiver.n + 1)]
        # pairing_exp[g][h] = log_q |Hom(K_g, K_h)|
        cols = [self.hom_from(self.gens[h]) for h in self.keys]
        self.pairing_exp = [[col[g] for col in cols] for g in range(self.rank)]

    def hom_from(self, x: Complex) -> list:
        """log_q |Hom(K_g, x)| per generator."""
        return [cx._proj_hom_dim(self.cat, e, x.mults(n)) for _, n, e in self._cones]

    def hom_to(self, x: Complex) -> list:
        """log_q |Hom(x, K_g)| per generator."""
        return [cx._proj_hom_dim(self.cat, x.mults(self.cat.next_deg(n)), e) for _, n, e in self._cones]

    def zero(self) -> tuple:
        return (0,) * self.rank

    def vector(self, exps: dict) -> tuple:
        """Exponent tuple from a {generator key: multiplicity} dict."""
        out = [0] * self.rank
        for k, m in exps.items():
            out[self.index[k]] = m
        return tuple(out)

    def named(self, gamma: tuple) -> dict:
        return {k: g for k, g in zip(self.keys, gamma) if g}

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple(x + y for x, y in zip(a, b))

    def pairing_exponent(self, gamma: tuple, delta: tuple) -> int:
        return sum(
            cg * ch * self.pairing_exp[g][h]
            for g, cg in enumerate(gamma) if cg for h, ch in enumerate(delta) if ch
        )

    def pairing(self, gamma: tuple, delta: tuple) -> Fraction:
        return Fraction(self.q) ** self.pairing_exponent(gamma, delta)


class SDH:
    """Free torus-module with basis t_gamma ⋄ [m], m minimal."""

    def __init__(self, cat: ComplexCategory, caps: Caps = DEFAULT_CAPS, cache=None):
        self.cat = cat
        self.caps = caps
        self.q = cat.field.p
        self.torus = QuantumTorus(cat)
        # one cache for both algebras: stable keys never equal strict ones
        cache = cache if cache is not None else MemoryCache()
        self.strict = HallAlgebra(CxBackend(cat, caps), cache=cache)
        self.derived = HallAlgebra(StableBackend(cat, caps), cache=cache)
        self.stable = self.derived.backend.registry
        self.zero_class = self.stable.classify(cat.zero_complex())
        self._normal: dict[int, tuple] = {}  # strict id -> _rewrite of its object
        self._key_classes: dict[tuple, dict] = {}  # (gamma, m_id) -> _key_class

    # -- hom bookkeeping --

    def gen_hom(self, gamma: tuple, m_id: int) -> Fraction:
        """|Hom(K_gamma, m)| extended to integer exponent vectors."""
        dims = self.torus.hom_from(self.stable.object(m_id))
        return Fraction(self.q) ** sum(g * d for g, d in zip(gamma, dims))

    def commutation_exponent(self, delta: tuple, m_id: int) -> int:
        """c in [m] ⋄ t_delta = q^c t_delta ⋄ [m]: log_q of the ratio
        |Hom(K_delta, m)| / |Hom(m, K_delta)|."""
        if not any(delta):
            return 0
        m = self.stable.object(m_id)
        fwd, rev = self.torus.hom_from(m), self.torus.hom_to(m)
        return sum(d * (f - r) for d, f, r in zip(delta, fwd, rev))

    # -- elements --

    def basis(self, gamma: tuple, m_id: int) -> dict:
        if len(gamma) != self.torus.rank:
            raise SpecError("exponent vector has wrong length")
        return {(tuple(gamma), m_id): Fraction(1)}

    def torus_element(self, gamma: tuple) -> dict:
        return self.basis(gamma, self.zero_class)

    def torus_inverse(self, gamma: tuple) -> dict:
        """Inverse of t_gamma: pairing(gamma, gamma)^-1 t_{-gamma}."""
        inv = 1 / self.torus.pairing(gamma, gamma)
        return {(tuple(-g for g in gamma), self.zero_class): inv}

    def normalize(self, x: Complex) -> dict:
        """Rewrite the class of an object onto the basis.

        x = K_gamma ⊕ m gives [x] = |Hom(K_gamma, m)| t_gamma ⋄ [m].
        """
        gamma, m_id, h = self._rewrite(x)
        return {(gamma, m_id): Fraction(self.q) ** h}

    def _rewrite(self, x: Complex) -> tuple:
        """(gamma, m_id, log_q |Hom(K_gamma, m)|) with x = K_gamma ⊕ m."""
        m, exps = cx.strip_contractibles(x)
        gamma = self.torus.vector(exps)
        h = sum(g * d for g, d in zip(gamma, self.torus.hom_from(m)))
        return gamma, self.stable.classify(m), h

    def _normal_form(self, sid: int) -> tuple:
        """_rewrite of a strict class's object, once per strict id."""
        if sid not in self._normal:
            self._normal[sid] = self._rewrite(self.strict.backend.object(sid))
        return self._normal[sid]

    def normalize_element(self, element: dict) -> dict:
        """Rewrite a strict-class element {strict_id: coeff} onto the basis."""
        out: dict = {}
        for sid in sorted(element):
            gamma, m_id, h = self._normal_form(sid)
            out[gamma, m_id] = out.get((gamma, m_id), 0) + element[sid] * Fraction(self.q) ** h
        return _prune(out)

    def stable_class(self, x: Complex) -> int:
        """Stable class id of an object (its minimal part's class)."""
        m, _ = cx.strip_contractibles(x)
        return self.stable.classify(m)

    def realize(self, gamma: tuple, m_id: int) -> Complex:
        """An object whose class is gen_hom(gamma, m) t_gamma ⋄ [m].

        Requires gamma >= 0 componentwise.
        """
        if any(g < 0 for g in gamma):
            raise SpecError("cannot realize negative exponents as an object")
        acc = self.stable.object(m_id)
        for k, g in zip(self.torus.keys, gamma):
            for _ in range(g):
                acc = cx.direct_sum_cx(acc, self.torus.gens[k])
        return acc

    # elements are added, scaled and compared as the strict algebra's are
    add, scale, equal = HallAlgebra.add, HallAlgebra.scale, HallAlgebra.equal

    # -- products --

    def product(self, x: dict, y: dict) -> dict:
        """Localized Hall product on the torus-module basis."""
        return self._product(x, y, twisted=False)

    def tw_product(self, x: dict, y: dict) -> dict:
        """Product twisted by the relative Euler pairing.

        Torus elements are central for this product.
        """
        return self._product(x, y, twisted=True)

    def _product(self, x: dict, y: dict, twisted: bool) -> dict:
        """Torus bookkeeping over the strict product, every scalar a power
        of q: t_gamma ⋄ [m] times t_delta ⋄ [s] is q^c / pairing(gamma,
        delta) t_{gamma+delta} ⋄ [m] ⋄ [s], c the commutation exponent
        of (delta, m), times the relative Euler pairing of the two keys
        when `twisted`.  A strict middle K_eps ⊕ u of [m] ⋄ [s] adds its
        Hall number times |Hom(K_eps, u)| / pairing(gamma+delta, eps) to
        the term of (gamma+delta+eps, u), through hall's accumulator.
        """
        q, torus, strict, obj = self.q, self.torus, self.strict, self.stable.object
        ys = [(k, _as_triple(c, q)) for k, c in sorted(y.items())]
        acc: dict = {}
        for (gamma, m_id), ta in [(k, _as_triple(c, q)) for k, c in sorted(x.items())]:
            sm = strict.backend.classify(obj(m_id))
            for (delta, s_id), tc in ys:
                e = self.commutation_exponent(delta, m_id) - torus.pairing_exponent(gamma, delta)
                if twisted:
                    e += self._rel_exponent_keys((gamma, m_id), (delta, s_id))
                gd = torus.add(gamma, delta)
                hom, middles = strict.ext_data(sm, strict.backend.classify(obj(s_id)))
                for b_id, n in sorted(middles):  # the stable registry grows in this order
                    eps, u_id, h = self._normal_form(b_id)
                    k = e + h - torus.pairing_exponent(gd, eps)
                    _accumulate(acc, [((torus.add(gd, eps), u_id), n)], ta, tc, hom, 2 * k, q)
        return _coefficients(acc, q, x, y)

    # -- relative Euler pairing and the twisted product --

    def rel_euler_exponent(self, a: Complex, b: Complex) -> int:
        """log_q of the relative Euler pairing of two objects: |Hom_F| / |stable
        Hom| times the alternating product of negative stable exts."""
        return self._rel_form(a.comps, b.comps)

    def _rel_form(self, xc: dict, yc: dict) -> int:
        """sum_{m>n} (-1)^(m-n+1) dim Hom(x_m, y_n) on degreewise classes."""
        if self.cat.kind == "periodic":
            raise RelEulerUndefined("relative Euler pairing needs a bounded window")
        return sum(
            (1 if (m - n) % 2 else -1) * cx._proj_hom_dim(self.cat, a, b)
            for m, a in xc.items() for n, b in yc.items() if m > n
        )

    def rel_euler(self, a: Complex, b: Complex) -> Fraction:
        return Fraction(self.q) ** self.rel_euler_exponent(a, b)

    def _rel_exponent_keys(self, kx: tuple, ky: tuple) -> int:
        """Biadditive extension of the relative Euler exponent to keys."""
        return self._rel_form(self._key_class(*kx), self._key_class(*ky))

    def _key_class(self, gamma: tuple, m_id: int) -> dict:
        """Degreewise class of K_gamma ⊕ m, gamma of any sign, once per key."""
        hit = self._key_classes.get((gamma, m_id))
        if hit is None:
            gens = [(self.torus.gens[k], g) for k, g in zip(self.torus.keys, gamma)]
            hit = self._key_classes[gamma, m_id] = _class_sum([(self.stable.object(m_id), 1)] + gens)
        return hit

    # -- product on stable classes with negative-ext corrections --

    def dh_product(self, x: dict, y: dict) -> dict:
        """Product of {stable_id: coeff} elements: `derived`'s counting
        product, whose pair records hold the stable hom cardinality and the
        negative-Ext exponent sum_{i=1}^{w} (-1)^(i+1) dim stable
        Hom(a, c[-i]), w the window width, and whose middles are classified
        stably.  Bounded windows only."""
        self._bounded_only("stable-class product")
        return self.derived.product(x, y)

    def _bounded_only(self, what: str) -> None:
        if self.cat.kind == "periodic":
            raise DerivedUndefined(f"{what} needs a bounded window")

    def dh_basis(self, x: Complex) -> dict:
        return {self.stable_class(x): Fraction(1)}

    # -- shift pushforward --

    def pushforward_shift(self, x: dict, k: int = 1) -> dict:
        """Image of an element under the shift functor.

        Generators move by K_{P_i @ n}[k] = K_{P_i @ wrap(n-k)}; minimal
        parts are shifted and reclassified.  Raises WindowOverflow when the
        image leaves the window: a moved generator the torus does not index,
        or a shifted degree outside `degrees()`.
        """
        torus, window = self.torus, self.cat.degrees()
        out: dict = {}
        for (gamma, m_id), co in sorted(x.items()):
            moved = [0] * torus.rank
            for (i, n, _), g in zip(torus._cones, gamma):
                if g:
                    j = torus.index.get(cx.generator_key(i, self.cat.wrap(n - k)))
                    if j is None:
                        raise WindowOverflow(
                            f"shift moves generator {cx.generator_key(i, n)} outside the window"
                        )
                    moved[j] += g
            shifted = cx.shift(self.stable.object(m_id), k)
            if any(n not in window for n in shifted.comps):
                raise WindowOverflow("shift moves a minimal part outside the window")
            if not cx.is_minimal(shifted):
                raise SpecError("shift of a minimal complex must stay minimal")
            key2 = (tuple(moved), self.stable.classify(shifted))
            out[key2] = out.get(key2, Fraction(0)) + co
        return _prune(out)

    # -- verification --

    def solve_exponents(self, a_id: int, c_id: int, u_id: int):
        """Exponent vector kappa with sum_g kappa_g cl(K_g) = cl(a) + cl(c)
        - cl(u) in the degreewise class group, or None when unsolvable.

        The system is unitriangular in the degree filtration, so the
        solution is unique when it exists.  Bounded windows only.
        """
        self._bounded_only("class-group solve")
        obj = self.stable.object
        target = _class_sum([(obj(a_id), 1), (obj(c_id), 1), (obj(u_id), -1)])
        kappa = {}
        for n in self.cat.cone_degrees():
            for i, g in enumerate(target.pop(n, ()), 1):
                if g:
                    kappa[cx.generator_key(i, n)] = g
                    target.setdefault(self.cat.next_deg(n), [0] * self.cat.quiver.n)[i - 1] -= g
        if any(any(v) for v in target.values()):
            return None
        return self.torus.vector(kappa)

    def compare_toen(self, pairs=None, max_degree_dim: int = 1, max_total_dim=None) -> dict:
        """Tensor-factorization check for the twisted product.

        The basis map mu(t_gamma ⋄ [m]) = [m] ⊗ t_gamma is tested twice on
        each pair of stable classes:

        * literally, against dh_product on the stable factor and plain
          exponent addition on the group-algebra factor; any discrepancy is
          reported per pair (first offending term), not asserted away;
        * in corrected form, where the group-algebra exponent of each term
          is the unique solution of the degreewise class-group equation and
          the coefficients must satisfy
          tw_coeff(eps, u) = dh_coeff(u) * |Hom(K_eps, u)| exactly.

        "ok" reflects the corrected form; the literal residual is data.
        """
        if pairs is None:
            ids = self.stable_sample(
                max_degree_dim=max_degree_dim, max_total_dim=max_total_dim
            )
            pairs = [(a, c) for a in ids for c in ids]
        failures = []
        literal = []
        for a_id, c_id in pairs:
            lhs = self.tw_product(
                self.basis(self.torus.zero(), a_id),
                self.basis(self.torus.zero(), c_id),
            )
            rhs = self.dh_product({a_id: Fraction(1)}, {c_id: Fraction(1)})
            lhs_classes = set()
            pair_literal = None
            for (eps, u_id), co in sorted(lhs.items()):
                lhs_classes.add(u_id)
                if any(eps) and pair_literal is None:
                    pair_literal = {
                        "pair": (a_id, c_id),
                        "class": u_id,
                        "lhs_exponents": self.torus.named(eps),
                        "rhs_exponents": {},
                    }
                kappa = self.solve_exponents(a_id, c_id, u_id)
                if kappa != eps:
                    failures.append(
                        {
                            "pair": (a_id, c_id),
                            "class": u_id,
                            "kind": "exponent",
                            "observed": eps,
                            "solved": kappa,
                        }
                    )
                    continue
                want = rhs.get(u_id, Fraction(0)) * self.gen_hom(eps, u_id)
                if co != want:
                    failures.append(
                        {
                            "pair": (a_id, c_id),
                            "class": u_id,
                            "kind": "coefficient",
                            "lhs": str(co),
                            "rhs": str(want),
                        }
                    )
            if lhs_classes != set(rhs):
                failures.append(
                    {
                        "pair": (a_id, c_id),
                        "kind": "support",
                        "lhs": sorted(lhs_classes),
                        "rhs": sorted(rhs),
                    }
                )
            if pair_literal is not None:
                literal.append(pair_literal)
        return {
            "ok": not failures,
            "pairs": len(pairs),
            "failures": failures,
            "literal_ok": not literal,
            "literal_discrepancies": literal,
        }

    def stable_sample(self, max_degree_dim=None, max_total_dim=None) -> list:
        """Ids of all stable classes with a minimal representative within
        the given size bounds, in first-encounter order."""
        seen = []
        strict_reg = cx.enumerate_complexes(
            self.cat,
            max_degree_dim=max_degree_dim,
            max_total_dim=max_total_dim,
            caps=self.caps,
        )
        for i in range(len(strict_reg)):
            obj = strict_reg.object(i)
            if not cx.is_minimal(obj):
                continue
            sid = self.stable.classify(obj)
            if sid not in seen:
                seen.append(sid)
        return seen

    def verify_freeness(self, max_degree_dim=None, max_total_dim=None) -> dict:
        """Freeness of the module over the torus, in four checks.

        i.   rewriting is idempotent: every object rewrites to one basis
             term, and rewriting the chosen representative of that term
             returns it unchanged;
        ii.  stably isomorphic objects rewrite to the same stable id, with
             torus parts differing by an invertible monomial (checked by
             padding every object with each generator);
        iii. the retraction is the identity on torus generators, and
             distinct generators stay distinct;
        iv.  distinct stable classes never mix: objects rewriting to the
             same stable id are stably isomorphic.
        """
        crit: dict = {}
        strict_reg = cx.enumerate_complexes(
            self.cat,
            max_degree_dim=max_degree_dim,
            max_total_dim=max_total_dim,
            caps=self.caps,
        )
        objs = [strict_reg.object(i) for i in range(len(strict_reg))]

        failures_i = []
        keys = {}
        for idx, obj in enumerate(objs):
            elem = self.normalize(obj)
            if len(elem) != 1:
                failures_i.append({"object": obj.encoding(), "terms": len(elem)})
                continue
            ((gamma, m_id), co), = elem.items()
            keys[idx] = (gamma, m_id)
            if co != self.gen_hom(gamma, m_id):
                failures_i.append({"object": obj.encoding(), "coeff": str(co)})
                continue
            rep = self.stable.object(m_id)
            again = self.normalize(rep)
            if again != {(self.torus.zero(), m_id): Fraction(1)}:
                failures_i.append({"object": obj.encoding(), "kind": "not idempotent"})
        crit["i"] = {"ok": not failures_i, "objects": len(objs), "failures": failures_i}

        failures_ii = []
        for idx, obj in enumerate(objs):
            if idx not in keys:
                continue
            gamma, m_id = keys[idx]
            for g, key in enumerate(self.torus.keys):
                padded = cx.direct_sum_cx(obj, self.torus.gens[key])
                elem = self.normalize(padded)
                e_g = tuple(1 if j == g else 0 for j in range(self.torus.rank))
                want_key = (self.torus.add(gamma, e_g), m_id)
                if set(elem) != {want_key}:
                    failures_ii.append(
                        {"object": obj.encoding(), "generator": key}
                    )
                    continue
                ratio = elem[want_key] / self.gen_hom(gamma, m_id)
                if ratio != self.gen_hom(e_g, m_id):
                    failures_ii.append(
                        {"object": obj.encoding(), "generator": key, "ratio": str(ratio)}
                    )
        crit["ii"] = {"ok": not failures_ii, "failures": failures_ii}

        failures_iii = []
        seen_exponents = set()
        for g, key in enumerate(self.torus.keys):
            elem = self.normalize(self.torus.gens[key])
            e_g = tuple(1 if j == g else 0 for j in range(self.torus.rank))
            if elem != {(e_g, self.zero_class): Fraction(1)}:
                failures_iii.append({"generator": key, "image": _fmt_elem(elem)})
            if e_g in seen_exponents:
                failures_iii.append({"generator": key, "kind": "collision"})
            seen_exponents.add(e_g)
        crit["iii"] = {
            "ok": not failures_iii,
            "generators": list(self.torus.keys),
            "failures": failures_iii,
        }

        failures_iv = []
        for i in range(len(objs)):
            if i not in keys:
                continue
            for j in range(i + 1, len(objs)):
                if j not in keys:
                    continue
                same_id = keys[i][1] == keys[j][1]
                stably_iso = cx.stable_iso_test(objs[i], objs[j], self.caps)
                if same_id != stably_iso:
                    failures_iv.append(
                        {
                            "objects": (objs[i].encoding(), objs[j].encoding()),
                            "same_id": same_id,
                            "stably_isomorphic": stably_iso,
                        }
                    )
        crit["iv"] = {"ok": not failures_iv, "failures": failures_iv}
        return {"ok": all(c["ok"] for c in crit.values()), "criteria": crit}


def _class_sum(parts) -> dict:
    """sum of c * (degreewise class of x) over (x, c) in parts, as
    {degree: list of projective multiplicities}."""
    out: dict = {}
    for x, c in parts:
        for n, mults in x.comps.items():
            out[n] = [a + c * b for a, b in zip(out.get(n, [0] * len(mults)), mults)]
    return out


def _prune(d: dict) -> dict:
    return {k: v for k, v in sorted(d.items()) if v != 0}


def _fmt_elem(d: dict) -> list:
    return [[list(k[0]), k[1], str(v)] for k, v in sorted(d.items())]
