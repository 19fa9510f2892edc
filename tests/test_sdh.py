"""Torus-module layer: rewriting, products, twist, comparison, freeness."""

import itertools
from fractions import Fraction

import pytest

from hallforge import complexes as cx
from hallforge.complexes import (
    ComplexCategory,
    contractible_generators,
    direct_sum_cx,
)
from hallforge.errors import (
    DerivedUndefined,
    RelEulerUndefined,
    SpecError,
    WindowOverflow,
)
from hallforge.hall import MemoryCache, SqrtExt, pair_key
from hallforge.linalg import Field
from hallforge.quiver import Quiver
from hallforge.sdh import SDH, QuantumTorus

A1 = Quiver(1, [])
A2 = Quiver(2, [(1, 2)])
F2 = Field(2)
F3 = Field(3)


def periodic_sdh(p=2):
    return SDH(ComplexCategory(A1, Field(p), "periodic", period=2))


def bounded_sdh(p=2, hi=1):
    return SDH(ComplexCategory(A1, Field(p), "bounded", lo=0, hi=hi))


# ---- torus ----


def test_torus_pairing_matrix_periodic():
    cat = ComplexCategory(A1, F2, "periodic", period=2)
    t = QuantumTorus(cat)
    assert t.keys == ["P1@0", "P1@1"]
    # every hom space between the two contractible generators is 1-dim
    assert t.pairing_exp == [[1, 1], [1, 1]]
    assert t.pairing((1, 0), (0, 1)) == Fraction(2)
    assert t.pairing((1, 0), (-1, 0)) == Fraction(1, 2)


def test_torus_relations():
    s = periodic_sdh()
    t10 = s.torus_element((1, 0))
    t01 = s.torus_element((0, 1))
    assert s.product(t10, s.torus_inverse((1, 0))) == {
        ((0, 0), s.zero_class): Fraction(1)
    }
    # t_a t_b = pairing(a,b)^-1 t_{a+b}
    assert s.product(t10, t01) == {((1, 1), s.zero_class): Fraction(1, 2)}
    assert s.product(t01, t10) == {((1, 1), s.zero_class): Fraction(1, 2)}


def test_unit_element():
    s = periodic_sdh()
    one = s.torus_element(s.torus.zero())
    x = s.normalize(s.cat.stalk(1, 0))
    assert s.equal(s.product(one, x), x)
    assert s.equal(s.product(x, one), x)


# ---- rewriting ----


@pytest.mark.parametrize("p", [2, 3])
def test_class_of_padded_object(p):
    s = periodic_sdh(p)
    gens = contractible_generators(s.cat)
    kx = direct_sum_cx(gens["P1@0"], s.cat.stalk(1, 0))
    elem = s.normalize(kx)
    ((gamma, m_id), coeff), = elem.items()
    assert gamma == (1, 0)
    assert m_id == s.stable.classify(s.cat.stalk(1, 0))
    assert coeff == Fraction(p)  # |Hom(K, X)| = q


def test_class_of_zero_is_unit_key():
    s = periodic_sdh()
    assert s.normalize(s.cat.zero_complex()) == {
        ((0, 0), s.zero_class): Fraction(1)
    }


def test_normalize_strict_element():
    s = periodic_sdh()
    x = s.cat.stalk(1, 0)
    sid = s.strict.backend.classify(x)
    out = s.normalize_element({sid: Fraction(5)})
    assert out == {((0, 0), s.stable.classify(x)): Fraction(5)}


def test_realize_round_trip():
    s = periodic_sdh(3)
    m_id = s.stable.classify(s.cat.stalk(1, 1))
    for gamma in [(0, 0), (1, 0), (2, 1)]:
        x = s.realize(gamma, m_id)
        assert s.normalize(x) == {(gamma, m_id): s.gen_hom(gamma, m_id)}
    with pytest.raises(SpecError):
        s.realize((-1, 0), m_id)


def test_product_padding_independent():
    """Multiplying padded objects strictly, then rewriting, agrees with
    rewriting first and multiplying on the basis."""
    for s in (periodic_sdh(), bounded_sdh(3)):
        ids = s.stable_sample(max_degree_dim=1)
        pads = [s.torus.zero(), tuple(1 if i == 0 else 0 for i in range(s.torus.rank))]
        for m_id in ids:
            for s_id in ids:
                for sigma in pads:
                    for tau in pads:
                        x = s.realize(sigma, m_id)
                        y = s.realize(tau, s_id)
                        route1 = s.normalize_element(
                            s.strict.product(s.strict.basis(x), s.strict.basis(y))
                        )
                        route2 = s.product(s.normalize(x), s.normalize(y))
                        assert s.equal(route1, route2), (m_id, s_id, sigma, tau)


# ---- products ----


def test_commutator_frozen_f2():
    s = periodic_sdh(2)
    X = s.normalize(s.cat.stalk(1, 0))
    Y = s.normalize(s.cat.stalk(1, 1))
    xy = s.product(X, Y)
    yx = s.product(Y, X)
    split = s.stable.classify(
        direct_sum_cx(s.cat.stalk(1, 0), s.cat.stalk(1, 1))
    )
    assert xy == {
        ((0, 0), split): Fraction(1),
        ((1, 0), s.zero_class): Fraction(1),
    }
    assert yx == {
        ((0, 0), split): Fraction(1),
        ((0, 1), s.zero_class): Fraction(1),
    }
    comm = s.add(xy, s.scale(Fraction(-1), yx))
    want = s.add(
        s.torus_element((1, 0)),
        s.scale(Fraction(-1), s.torus_element((0, 1))),
    )
    assert s.equal(comm, want)


def test_commutator_frozen_f3():
    s = periodic_sdh(3)
    X = s.normalize(s.cat.stalk(1, 0))
    Y = s.normalize(s.cat.stalk(1, 1))
    comm = s.add(s.product(X, Y), s.scale(Fraction(-1), s.product(Y, X)))
    want = s.add(
        s.scale(Fraction(2), s.torus_element((1, 0))),
        s.scale(Fraction(-2), s.torus_element((0, 1))),
    )
    assert s.equal(comm, want)


def test_torus_conjugation_is_commutation_scalar():
    s = periodic_sdh()
    X = s.normalize(s.cat.stalk(1, 0))
    m_id = next(iter(X))[1]
    conj = s.product(s.product(s.torus_element((1, 0)), X), s.torus_inverse((1, 0)))
    assert conj == {((0, 0), m_id): Fraction(2) ** -s.commutation_exponent((1, 0), m_id)}
    assert s.commutation_exponent((1, 0), m_id) == 1


def test_product_associative_periodic():
    s = periodic_sdh()
    ids = s.stable_sample(max_degree_dim=1)
    elems = [s.basis(s.torus.zero(), i) for i in ids]
    elems.append(s.torus_element((1, 0)))
    elems.append(s.torus_inverse((0, 1)))
    for x, y, z in itertools.product(elems, repeat=3):
        assert s.equal(s.product(s.product(x, y), z), s.product(x, s.product(y, z)))


def test_product_associative_bounded_plain_and_twisted():
    s = bounded_sdh()
    ids = s.stable_sample(max_degree_dim=1)
    elems = [s.basis(s.torus.zero(), i) for i in ids]
    elems.append(s.torus_element((1,)))
    elems.append(s.torus_inverse((1,)))
    for prod in (s.product, s.tw_product):
        for x, y, z in itertools.product(elems, repeat=3):
            assert s.equal(prod(prod(x, y), z), prod(x, prod(y, z)))


def test_bounded_product_frozen():
    s = bounded_sdh()
    S0 = s.normalize(s.cat.stalk(1, 0))
    S1 = s.normalize(s.cat.stalk(1, 1))
    split = s.stable.classify(
        direct_sum_cx(s.cat.stalk(1, 0), s.cat.stalk(1, 1))
    )
    assert s.product(S0, S1) == {
        ((0,), split): Fraction(1),
        ((1,), s.zero_class): Fraction(1),
    }
    assert s.product(S1, S0) == {((0,), split): Fraction(1)}


# ---- relative Euler pairing and twist ----


def test_rel_euler_frozen():
    s = bounded_sdh()
    a0 = s.cat.stalk(1, 0)
    a1 = s.cat.stalk(1, 1)
    split = direct_sum_cx(a0, a1)
    assert s.rel_euler_exponent(a0, a0) == 0
    assert s.rel_euler_exponent(a0, a1) == 0
    assert s.rel_euler_exponent(a1, a0) == 1
    assert s.rel_euler_exponent(a1, a1) == 0
    assert s.rel_euler_exponent(a1, split) == 1
    assert s.rel_euler_exponent(split, split) == 1
    # additive over direct sums in each argument
    assert s.rel_euler_exponent(split, a0) == s.rel_euler_exponent(
        a0, a0
    ) + s.rel_euler_exponent(a1, a0)
    assert s.rel_euler(a1, a0) == Fraction(2)
    # pairs of contractibles: plain hom cardinality
    gens = contractible_generators(s.cat)
    K = gens["P1@0"]
    assert s.rel_euler(K, K) == Fraction(2)
    # zero on the left or right gives 1
    assert s.rel_euler(s.cat.zero_complex(), a0) == Fraction(1)
    assert s.rel_euler(a0, s.cat.zero_complex()) == Fraction(1)


def test_rel_euler_multiplicative_over_conflations():
    from hallforge.complexes import ext1_classes, middle_term_cx

    s = SDH(ComplexCategory(A2, F2, "bounded", lo=0, hi=1))
    reg = __import__("hallforge.complexes", fromlist=["enumerate_complexes"]).enumerate_complexes(
        s.cat, max_total_dim=2
    )
    objs = [reg.object(i) for i in range(len(reg))]
    probes = objs[:4]
    checked = 0
    for a in objs:
        for c in objs:
            for f in ext1_classes(a, c).reps:
                mid = middle_term_cx(a, c, f)
                for b in probes:
                    assert s.rel_euler_exponent(mid, b) == s.rel_euler_exponent(
                        a, b
                    ) + s.rel_euler_exponent(c, b)
                    assert s.rel_euler_exponent(b, mid) == s.rel_euler_exponent(
                        b, a
                    ) + s.rel_euler_exponent(b, c)
                    checked += 1
    assert checked >= 100


def test_rel_euler_periodic_undefined():
    s = periodic_sdh()
    z = s.cat.zero_complex()
    with pytest.raises(RelEulerUndefined):
        s.rel_euler(z, z)
    X = s.normalize(s.cat.stalk(1, 0))
    with pytest.raises(RelEulerUndefined):
        s.tw_product(X, X)


def test_twisted_torus_centrality():
    s = bounded_sdh()
    a0 = s.stable.classify(s.cat.stalk(1, 0))
    t = s.torus_element((1,))
    b = s.basis(s.torus.zero(), a0)
    left = s.tw_product(t, b)
    right = s.tw_product(b, t)
    assert s.equal(left, right)
    assert left == {((1,), a0): Fraction(2)}  # twist contributes |Hom(K, S0)| = q


def test_twisted_centrality_a2():
    s = SDH(ComplexCategory(A2, F3, "bounded", lo=0, hi=1))
    ids = s.stable_sample(max_degree_dim=1)
    for delta in [(1, 0), (0, 1), (1, 2)]:
        t = s.torus_element(delta)
        for i in ids:
            b = s.basis(s.torus.zero(), i)
            assert s.equal(s.tw_product(t, b), s.tw_product(b, t))


# ---- product on stable classes ----


def test_dh_product_frozen():
    s = bounded_sdh()
    S0 = s.dh_basis(s.cat.stalk(1, 0))
    S1 = s.dh_basis(s.cat.stalk(1, 1))
    split = s.stable_class(direct_sum_cx(s.cat.stalk(1, 0), s.cat.stalk(1, 1)))
    assert s.dh_product(S1, S0) == {split: Fraction(2)}
    assert s.dh_product(S0, S1) == {
        s.zero_class: Fraction(1),
        split: Fraction(1),
    }
    # bilinear over elements
    both = {next(iter(S0)): Fraction(1), next(iter(S1)): Fraction(3)}
    out = s.dh_product(both, S0)
    byhand = {}
    for part, co in ((s.dh_product(S0, S0), 1), (s.dh_product(S1, S0), 3)):
        for k, v in part.items():
            byhand[k] = byhand.get(k, Fraction(0)) + co * v
    assert out == {k: v for k, v in sorted(byhand.items()) if v != 0}


def test_dh_unit_and_associativity():
    s = bounded_sdh()
    one = s.dh_basis(s.cat.zero_complex())
    elems = [s.dh_basis(s.cat.stalk(1, 0)), s.dh_basis(s.cat.stalk(1, 1)), one]
    for x in elems:
        assert s.dh_product(one, x) == x
        assert s.dh_product(x, one) == x
    for x, y, z in itertools.product(elems, repeat=3):
        l = s.dh_product(s.dh_product(x, y), z)
        r = s.dh_product(x, s.dh_product(y, z))
        assert l == r


def test_dh_product_periodic_undefined():
    s = periodic_sdh()
    with pytest.raises(DerivedUndefined):
        s.dh_product({s.zero_class: Fraction(1)}, {s.zero_class: Fraction(1)})


# ---- exponent solving and comparison ----


def test_solve_exponents_frozen():
    s = bounded_sdh()
    a0 = s.stable.classify(s.cat.stalk(1, 0))
    a1 = s.stable.classify(s.cat.stalk(1, 1))
    split = s.stable.classify(
        direct_sum_cx(s.cat.stalk(1, 0), s.cat.stalk(1, 1))
    )
    assert s.solve_exponents(a0, a1, split) == (0,)
    assert s.solve_exponents(a0, a1, s.zero_class) == (1,)
    # unsolvable: classes do not balance
    assert s.solve_exponents(s.zero_class, s.zero_class, a0) is None


def test_solve_exponents_periodic_undefined():
    s = periodic_sdh()
    with pytest.raises(DerivedUndefined):
        s.solve_exponents(0, 0, 0)


def test_compare_toen_bounded_a1():
    s = bounded_sdh()
    rep = s.compare_toen(max_degree_dim=1)
    assert rep["ok"]
    assert rep["pairs"] == 16
    # the identification that drops the torus exponent fails on real pairs,
    # which is reported rather than asserted away
    assert not rep["literal_ok"]
    assert len(rep["literal_discrepancies"]) == 4
    first = rep["literal_discrepancies"][0]
    assert set(first) == {"pair", "class", "lhs_exponents", "rhs_exponents"}
    assert first["rhs_exponents"] == {}


def test_compare_toen_pairs_with_zero_pass_literally():
    s = bounded_sdh()
    z = s.stable_class(s.cat.zero_complex())
    ids = s.stable_sample(max_degree_dim=1)
    pairs = [(z, i) for i in ids] + [(i, z) for i in ids]
    rep = s.compare_toen(pairs=pairs)
    assert rep["ok"]
    assert rep["literal_ok"]


def test_compare_toen_a2():
    s = SDH(ComplexCategory(A2, F3, "bounded", lo=0, hi=1))
    rep = s.compare_toen(max_degree_dim=1)
    assert rep["ok"]
    assert rep["pairs"] == 16
    assert len(rep["literal_discrepancies"]) == 4


def test_compare_toen_wide_window():
    s = bounded_sdh(hi=2)
    rep = s.compare_toen(max_degree_dim=1)
    assert rep["ok"]
    assert rep["pairs"] == 64
    assert len(rep["literal_discrepancies"]) == 28


# ---- freeness ----


@pytest.mark.parametrize("kind", ["periodic", "bounded"])
def test_verify_freeness(kind):
    if kind == "periodic":
        s = periodic_sdh()
    else:
        s = bounded_sdh()
    rep = s.verify_freeness(max_degree_dim=1)
    assert rep["ok"], rep
    assert set(rep["criteria"]) == {"i", "ii", "iii", "iv"}
    assert all(c["ok"] for c in rep["criteria"].values())


def test_verify_freeness_a2_f3():
    s = SDH(ComplexCategory(A2, F3, "bounded", lo=0, hi=1))
    rep = s.verify_freeness(max_degree_dim=1)
    assert rep["ok"], rep


# ---- shift pushforward ----


def test_shift_swaps_stalks_periodic():
    s = periodic_sdh()
    X = s.normalize(s.cat.stalk(1, 0))
    Y = s.normalize(s.cat.stalk(1, 1))
    assert s.equal(s.pushforward_shift(X, 1), Y)
    assert s.equal(s.pushforward_shift(Y, 1), X)
    assert s.equal(s.pushforward_shift(s.pushforward_shift(X, 1), 1), X)
    # generators rotate the same way
    assert s.pushforward_shift(s.torus_element((1, 0)), 1) == {
        ((0, 1), s.zero_class): Fraction(1)
    }


def test_shift_multiplicative_periodic():
    s = periodic_sdh()
    ids = s.stable_sample(max_degree_dim=1)
    elems = [s.basis(s.torus.zero(), i) for i in ids]
    elems.append(s.torus_element((1, 0)))
    for x, y in itertools.product(elems, repeat=2):
        l = s.pushforward_shift(s.product(x, y), 1)
        r = s.product(s.pushforward_shift(x, 1), s.pushforward_shift(y, 1))
        assert s.equal(l, r)


def test_shift_bounded_window_guard():
    s = bounded_sdh()
    # K at the bottom of the window cannot move down
    with pytest.raises(WindowOverflow):
        s.pushforward_shift(s.torus_element((1,)), 1)
    # stalk at the bottom cannot move down either
    S0 = s.normalize(s.cat.stalk(1, 0))
    with pytest.raises(WindowOverflow):
        s.pushforward_shift(S0, 1)
    # moving the top stalk down one degree is fine
    S1 = s.normalize(s.cat.stalk(1, 1))
    assert s.equal(s.pushforward_shift(S1, 1), S0)


@pytest.mark.parametrize("cat", [
    ComplexCategory(A2, F2, "bounded", lo=0, hi=2),
    ComplexCategory(A1, F2, "periodic", period=2),
    ComplexCategory(A2, F2, "periodic", period=3),
], ids=["a2-bounded-0-2", "a1-periodic-2", "a2-periodic-3"])
def test_shift_of_each_generator_is_cx_shift(cat):
    """For every cone generator g and k = +-1, the pushforward of t_g is the
    class of cx.shift(K_g, k), and raises WindowOverflow exactly when that
    shift raises or leaves the window; the generators sit at cone_degrees()."""
    s = SDH(cat)
    gens = contractible_generators(cat)
    assert list(gens) == s.torus.keys
    assert sorted({n for g in gens.values() for n in g.diffs}) == cat.cone_degrees()
    overflows = []
    for g, key in enumerate(s.torus.keys):
        t_g = s.torus_element(tuple(int(j == g) for j in range(s.torus.rank)))
        for k in (1, -1):
            try:
                shifted = cx.shift(gens[key], k)
            except WindowOverflow:
                shifted = None
            overflows.append(shifted is None or any(n not in cat.degrees() for n in shifted.comps))
            if overflows[-1]:
                with pytest.raises(WindowOverflow):
                    s.pushforward_shift(t_g, k)
            else:
                assert s.pushforward_shift(t_g, k) == s.normalize(shifted)
    # a bounded window loses its edge cones, a periodic one none
    assert any(overflows) == (cat.kind == "bounded") and not all(overflows)


# ---- closed forms against their Hom-complex definitions ----

A3_LINEAR = Quiver(3, [(1, 2), (2, 3)])
A3_INWARD = Quiver(3, [(1, 2), (3, 2)])

_FORM_GRIDS = {
    "a2-q2-0-1": lambda: ComplexCategory(A2, F2, "bounded", lo=0, hi=1),
    "a2-q2-0-2": lambda: ComplexCategory(A2, F2, "bounded", lo=0, hi=2),
    "a2-q3-0-1": lambda: ComplexCategory(A2, F3, "bounded", lo=0, hi=1),
    "a3-linear-q2-0-1": lambda: ComplexCategory(A3_LINEAR, F2, "bounded", lo=0, hi=1),
    "a3-inward-q2-m1-0": lambda: ComplexCategory(A3_INWARD, F2, "bounded", lo=-1, hi=0),
    "a2-q2-period-2": lambda: ComplexCategory(A2, F2, "periodic", period=2),
    "a2-q3-period-3": lambda: ComplexCategory(A2, F3, "periodic", period=3),
    "a3-inward-q2-period-2": lambda: ComplexCategory(A3_INWARD, F2, "periodic", period=2),
}


def _literal_euler(x, y):
    """sum_p (-1)^p dim stable Hom(x[-p], y) over every p with maps."""
    if not x.comps or not y.comps:
        return 0
    pmin = min(min(y.support) - max(x.support), 0)
    pmax = max(max(y.support) - min(x.support), 0)
    return sum(
        (-1) ** (p % 2) * cx.stable_hom_dim(cx.shift(x, -p), y) for p in range(pmin, pmax + 1)
    )


def _literal_rel(cat, a, b):
    """dim Hom - dim stable Hom + sum_{i=1}^{w+1} (-1)^(i+1) dim stable Hom(a, b[-i])."""
    width = cat.hi - cat.lo
    neg = sum(
        (-1) ** ((i + 1) % 2) * cx.stable_hom_dim(a, cx.shift(b, -i)) for i in range(1, width + 2)
    )
    return cx.hom_dim_cx(a, b) - cx.stable_hom_dim(a, b) + neg


@pytest.mark.parametrize("grid", list(_FORM_GRIDS))
def test_closed_forms_match_hom_complex_definitions(grid):
    s = SDH(_FORM_GRIDS[grid]())
    reg = cx.enumerate_complexes(s.cat, max_total_dim=3)
    objs = [reg.object(i) for i in range(len(reg))]
    gens = [s.torus.gens[k] for k in s.torus.keys]
    for x in objs + gens:
        assert s.torus.hom_from(x) == [cx.hom_dim_cx(k, x) for k in gens]
        assert s.torus.hom_to(x) == [cx.hom_dim_cx(x, k) for k in gens]
    if s.cat.kind == "periodic":
        return
    for a in objs:
        for b in objs:
            assert cx.euler_exponent_cx(a, b) == _literal_euler(a, b)
            assert s.rel_euler_exponent(a, b) == _literal_rel(s.cat, a, b)
    # keys with nonnegative exponents against the objects that realize them
    ids = s.stable_sample(max_total_dim=2)
    keys = [(g, m) for m in ids for g in itertools.product(range(2), repeat=s.torus.rank)]
    for kx in keys[:12]:
        for ky in keys[:12]:
            want = _literal_rel(s.cat, s.realize(*kx), s.realize(*ky))
            assert s._rel_exponent_keys(kx, ky) == want


def test_forms_and_torus_solve_no_hom_complex(monkeypatch):
    cat = ComplexCategory(A2, F2, "bounded", lo=0, hi=1)
    a = direct_sum_cx(cat.stalk(1, 0), cat.contractible_gen(2, 0))
    b = direct_sum_cx(cat.stalk(2, 1), cat.stalk(1, 0))
    # the strict products' pair records come from a cache filled beforehand,
    # so only the twists, the rewriting and the torus are left to compute
    warm = SDH(cat, cache=MemoryCache())
    x = warm.normalize(a)
    m_id = next(iter(x))[1]
    want = (
        warm.tw_product(x, warm.normalize(b)),
        cx.euler_exponent_cx(a, b),
        warm.rel_euler_exponent(a, b),
        warm.commutation_exponent((1, 1), m_id),
    )

    def forbidden(*args, **kwargs):
        raise AssertionError("Hom complex solved")

    for name in ("hom_dim_cx", "stable_hom_dim", "shift"):
        monkeypatch.setattr(cx, name, forbidden)
    s = SDH(cat, cache=warm.strict.cache)
    x, y = s.normalize(a), s.normalize(b)
    assert next(iter(x))[1] == m_id
    got = (
        s.tw_product(x, y),
        cx.euler_exponent_cx(a, b),
        s.rel_euler_exponent(a, b),
        s.commutation_exponent((1, 1), m_id),
    )
    assert got == want
    assert QuantumTorus(cat).pairing_exp == s.torus.pairing_exp


# ---- the derived product's pair records ----


def _wide_sdh(cache=None):
    return SDH(ComplexCategory(A2, F2, "bounded", lo=0, hi=2), cache=cache)


def _dh(s, a_id, c_id):
    """The derived product of two basis classes."""
    return s.dh_product({a_id: Fraction(1)}, {c_id: Fraction(1)})


def test_dh_records_hold_stable_hom_and_negative_ext_exponent():
    s = _wide_sdh()
    ids = s.stable_sample(max_total_dim=2)
    bk = s.derived.backend
    width = s.cat.hi - s.cat.lo
    for a_id in ids:
        for c_id in ids:
            _dh(s, a_id, c_id)
            a, c = s.stable.object(a_id), s.stable.object(c_id)
            rec = s.derived.cache.data[pair_key(bk.signature(), a.encoding(), c.encoding())]
            assert rec["hom"] == cx.stable_hom_card(a, c)
            # through shifted complexes, not the H^-i of one Hom complex
            assert rec["neg_ext"] == sum(
                (-1) ** (i + 1) * cx.stable_hom_dim(a, cx.shift(c, -i)) for i in range(1, width + 2)
            )


def _reference_dh_pair(s, a_id, c_id):
    """The derived product of one pair computed literally, every stripped
    middle classified in enumeration order into s.stable."""
    a, c = s.stable.object(a_id), s.stable.object(c_id)
    width = s.cat.hi - s.cat.lo
    neg = sum((-1) ** (i + 1) * cx.stable_hom_dim(a, cx.shift(c, -i)) for i in range(1, width + 2))
    scale = Fraction(s.q) ** neg / cx.stable_hom_card(a, c)
    counts = {}
    for f in cx.ext1_classes(a, c).reps:
        m, _ = cx.strip_contractibles(cx.middle_term_cx(a, c, f))
        u = s.stable.classify(m)
        counts[u] = counts.get(u, 0) + 1
    return {u: counts[u] * scale for u in sorted(counts)}


def test_warm_dh_pairs_keep_class_ids_in_any_order():
    # the benchmark's dh grid: read in reverse, witnesses grouped in any
    # other order than first occurrence change a representative here
    grid = {"max_degree_dim": 2, "max_total_dim": 3}
    cold = _wide_sdh()
    ids = cold.stable_sample(**grid)
    pairs = [(a, c) for a in ids for c in ids]
    for a, c in pairs:
        _dh(cold, a, c)
    # the same pairs in reverse order, read from the filled cache and
    # computed literally: the same coefficients, class ids and
    # representatives
    warm, ref = _wide_sdh(cache=cold.strict.cache), _wide_sdh()
    for s in (warm, ref):
        assert s.stable_sample(**grid) == ids
    got = [_dh(warm, a, c) for a, c in reversed(pairs)]
    want = [_reference_dh_pair(ref, a, c) for a, c in reversed(pairs)]
    assert got == want
    assert len(warm.stable) == len(ref.stable) > len(ids)
    for i in range(len(ref.stable)):
        assert warm.stable.object(i).encoding() == ref.stable.object(i).encoding()
    # the cold run missed every pair, and the warm run found every one
    assert (warm.derived.cache.misses, warm.derived.cache.hits) == (len(pairs), len(pairs))


def test_dh_product_of_sums_is_the_bilinear_expansion_of_literal_pairs():
    # the benchmark's dh grid, every class on each side with a coefficient
    # that is not a unit, and a short element against it
    grid = {"max_degree_dim": 2, "max_total_dim": 3}
    s, ref = _wide_sdh(), _wide_sdh()
    ids = s.stable_sample(**grid)
    assert ref.stable_sample(**grid) == ids and len(ids) == 28
    x = {a: Fraction((-1) ** i * (i + 2), 3 + i % 4) for i, a in enumerate(ids)}
    y = {c: Fraction(5 - 2 * (i % 3), 2 ** (i % 3)) for i, c in enumerate(reversed(ids))}
    short = {ids[3]: Fraction(-7, 2), ids[11]: Fraction(2, 9), ids[0]: Fraction(3)}
    for left, right in ((x, y), (short, x)):
        want = {}
        for a in sorted(left):
            for c in sorted(right):
                for u, v in _reference_dh_pair(ref, a, c).items():
                    want[u] = want.get(u, 0) + left[a] * right[c] * v
        got = s.dh_product(left, right)
        assert got == {u: v for u, v in want.items() if v != 0}
        assert all(type(v) is Fraction for v in got.values())
    assert len(s.stable) == len(ref.stable) > len(ids)
    for i in range(len(ref.stable)):
        assert s.stable.object(i).encoding() == ref.stable.object(i).encoding()


# ---- the localized products against their Fraction bodies ----


def _reference_product(s, x, y):
    """The localized product in Fraction arithmetic: torus parts move left
    through object parts via the commutation scalar, object parts multiply
    in the strict algebra, and every strict middle is rewritten onto the
    basis on every call."""
    out = {}
    for (gamma, m_id), c1 in sorted(x.items()):
        m = s.stable.object(m_id)
        m_elem = s.strict.basis(m)
        fwd, rev = s.torus.hom_from(m), s.torus.hom_to(m)
        for (delta, s_id), c2 in sorted(y.items()):
            comm = Fraction(s.q) ** sum(d * (f - r) for d, f, r in zip(delta, fwd, rev))
            pref = c1 * c2 * comm / s.torus.pairing(gamma, delta)
            gd = s.torus.add(gamma, delta)
            strict_prod = s.strict.product(m_elem, s.strict.basis(s.stable.object(s_id)))
            for b_id in sorted(strict_prod):
                u, exps = cx.strip_contractibles(s.strict.backend.object(b_id))
                eps, u_id = s.torus.vector(exps), s.stable.classify(u)
                homc = s.gen_hom(eps, u_id)
                key = (s.torus.add(gd, eps), u_id)
                term = pref * strict_prod[b_id] * homc / s.torus.pairing(gd, eps)
                out[key] = out.get(key, Fraction(0)) + term
    return {k: v for k, v in sorted(out.items()) if v != 0}


def _reference_tw_product(s, x, y):
    """The relative-Euler-twisted product as one localized product per pair
    of terms, each scaled by q to the pair's relative Euler exponent."""
    out = {}
    for kx, c1 in sorted(x.items()):
        for ky, c2 in sorted(y.items()):
            tw = Fraction(s.q) ** s._rel_exponent_keys(kx, ky)
            for key, v in _reference_product(s, {kx: c1 * tw}, {ky: c2}).items():
                out[key] = out.get(key, Fraction(0)) + v
    return {k: v for k, v in sorted(out.items()) if v != 0}


_PRODUCT_GRIDS = {
    "a2-q2-0-1": (lambda: ComplexCategory(A2, F2, "bounded", lo=0, hi=1), True),
    "a2-q2-period-2": (lambda: ComplexCategory(A2, F2, "periodic", period=2), False),
}


@pytest.mark.parametrize("grid", list(_PRODUCT_GRIDS))
def test_localized_products_match_their_fraction_bodies(grid):
    make, twisted = _PRODUCT_GRIDS[grid]
    s, ref = SDH(make()), SDH(make())
    ids = s.stable_sample(max_total_dim=2)
    assert ref.stable_sample(max_total_dim=2) == ids and len(ids) > 4
    rank = s.torus.rank

    def exps(k):  # entries in {-1, 0, 1, 2}, cycled
        return tuple((i + k) % 4 - 1 for i in range(rank))

    x = {
        (exps(0), ids[1]): Fraction(3, 2),
        (exps(1), ids[-1]): Fraction(-2),
        (exps(2), s.zero_class): Fraction(5, 4),
    }
    y = {
        (exps(3), ids[2]): Fraction(7),
        (exps(1), ids[len(ids) // 2]): Fraction(-1, 3),
        (s.torus.zero(), ids[-2]): Fraction(1),
    }
    root = {(exps(2), ids[3]): SqrtExt(s.q, Fraction(1, 2), Fraction(-3))}
    products = [(s.product, _reference_product)]
    if twisted:
        products.append((s.tw_product, _reference_tw_product))
    for new, old in products:
        for left, right in ((x, y), (y, x), (x, x), ({**y, **root}, x)):
            want = old(ref, left, right)
            got = new(left, right)
            assert got == want and want
            radical = any(isinstance(c, SqrtExt) for c in [*left.values(), *right.values()])
            assert all(type(v) is (SqrtExt if radical else Fraction) for v in got.values())
    # terms that cancel are dropped: t_a ⋄ t_b = q^-p(a, b) t_{a+b}, p the
    # torus pairing exponent
    a, b, z = exps(0), exps(1), s.zero_class
    d = Fraction(s.q) ** (s.torus.pairing_exponent(b, a) - s.torus.pairing_exponent(a, b))
    left, right = {(a, z): Fraction(1), (b, z): Fraction(-1)}, {(b, z): Fraction(1), (a, z): d}
    got = s.product(left, right)
    assert got == _reference_product(ref, left, right)
    assert set(got) == {(s.torus.add(a, a), z), (s.torus.add(b, b), z)}
    # the memoized rewriting grows the stable registry as rewriting every
    # middle on every call does
    assert len(s.stable) == len(ref.stable) > len(ids)
    for i in range(len(ref.stable)):
        assert s.stable.object(i).encoding() == ref.stable.object(i).encoding()
