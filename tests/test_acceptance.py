"""Acceptance criteria, one test per criterion.

Each test prints exactly one `ACCEPTANCE n [...]: PASS/FAIL` line and then
asserts.  Capture is disabled around these tests so the lines always reach
the terminal, whatever pytest flags are in play.  All comparisons are
exact: Fractions or integers, never floats.
"""

import itertools
import json
import time
from fractions import Fraction

import numpy as np
import pytest

import hallforge.cli as cli
import hallforge.complexes as cx
from hallforge.config import DEFAULT_CAPS
from hallforge.files import AlgebraHandle, CategorySpec, parse_dim_cap, write_element
from hallforge.hall import CxBackend, HallAlgebra, RepBackend, verify_associativity
from hallforge.linalg import Field
from hallforge.quiver import Quiver, enumerate_reps, ext1_space, hom_dim, middle_term
from hallforge.sdh import SDH
from hallforge.suites import run_suite

F2 = Field(2)
A1 = Quiver(1, [])
A2 = Quiver(2, [(1, 2)])


def a1z2():
    return cx.ComplexCategory(A1, F2, "periodic", period=2)


def a1_bounded():
    return cx.ComplexCategory(A1, F2, "bounded", lo=0, hi=1)


def a2_bounded():
    return cx.ComplexCategory(A2, F2, "bounded", lo=0, hi=1)


@pytest.fixture
def report(capsys):
    """Print one ACCEPTANCE line on the real stdout, then assert."""

    def _report(n: int, name: str, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"ACCEPTANCE {n} [{name}]: {status}{suffix}", flush=True)
        assert ok, f"criterion {n} [{name}] failed: {detail}"

    return _report


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("HALLFORGE_CACHE_DIR", str(tmp_path / "acceptance-cache"))
    yield


# ---- 1: Hall associativity on both backends ----


def test_criterion_01_hall_associativity(report):
    t0 = time.perf_counter()
    reps = HallAlgebra(RepBackend(A2, F2))
    reg = enumerate_reps(A2, F2, (1, 1), registry=reps.backend.registry)
    ids = list(range(len(reg)))
    fails_ab = verify_associativity(reps, ids)
    n_ab = len(ids) ** 3
    ab_time = time.perf_counter() - t0

    t1 = time.perf_counter()
    cxal = HallAlgebra(CxBackend(a1z2()))
    reg2 = cx.enumerate_complexes(a1z2(), max_degree_dim=1, registry=cxal.backend.registry)
    ids2 = list(range(len(reg2)))
    fails_cx = verify_associativity(cxal, ids2)
    n_cx = len(ids2) ** 3
    cx_time = time.perf_counter() - t1

    ok = (
        not fails_ab
        and not fails_cx
        and n_ab == 125
        and len(ids2) == 6
        and n_cx == 216
        and ab_time < 60
        and cx_time < 300
    )
    report(
        1,
        "hall associativity",
        ok,
        f"{n_ab} abelian triples in {ab_time:.2f}s, "
        f"{n_cx} complex triples over {len(ids2)} classes in {cx_time:.2f}s",
    )


# ---- 2: extension classes against shifted stable homs ----


def test_criterion_02_ext_matches_stable_hom(report):
    cat = a1z2()
    reg = cx.enumerate_complexes(cat, max_degree_dim=2)
    objs = [reg.object(i) for i in range(len(reg))]
    pairs = 0
    bad = 0
    for x in objs:
        for y in objs:
            pairs += 1
            n_ext = 2 ** cx.ext1_classes(x, y, DEFAULT_CAPS, enumerate_reps=False).dim
            n_stable = cx.stable_hom_card(x, cx.shift(y, 1))
            if n_ext != n_stable:
                bad += 1
    ok = bad == 0 and pairs >= 200
    report(2, "ext classes = shifted stable homs", ok, f"{pairs} ordered pairs, {bad} mismatches")


# ---- 3: Euler form descent over conflations ----


def test_criterion_03_euler_form_descent(report):
    reg = enumerate_reps(A2, F2, (2, 2))
    objs = [reg.object(i) for i in range(len(reg))]

    def form(a, b) -> Fraction:
        # form from the actual Hom and Ext spaces, not from dimension vectors
        return Fraction(2 ** hom_dim(a, b), 2 ** ext1_space(a, b, enumerate_reps=False).dim)

    conflations = []
    for a in objs:
        for c in objs:
            ext = ext1_space(a, c)
            for f in ext.reps:
                conflations.append((c, middle_term(a, c, f), a))
                if len(conflations) >= 50:
                    break
            if len(conflations) >= 50:
                break
        if len(conflations) >= 50:
            break
    tests = objs[:5]
    bad = 0
    checks = 0
    for sub, mid, quot in conflations:
        for t in tests:
            checks += 2
            if form(mid, t) != form(sub, t) * form(quot, t):
                bad += 1
            if form(t, mid) != form(t, sub) * form(t, quot):
                bad += 1
    ok = bad == 0 and len(conflations) == 50 and len(tests) == 5
    report(3, "euler form descent", ok, f"{len(conflations)} conflations, {checks} checks, {bad} bad")


# ---- 4: freeness over the torus ----


def test_criterion_04_freeness(report):
    s = SDH(a1z2())
    res = s.verify_freeness(max_degree_dim=2)
    crit = res["criteria"]
    ok = res["ok"] and all(crit[k]["ok"] for k in ("i", "ii", "iii", "iv"))
    retraction_ok = crit["iii"]["ok"] and len(crit["iii"]["generators"]) == s.torus.rank
    report(
        4,
        "freeness with identity retraction on generators",
        ok and retraction_ok,
        f"{crit['i']['objects']} objects, {s.torus.rank} generators",
    )


# ---- 5: relative Euler form multiplicativity ----


def test_criterion_05_relative_euler_multiplicative(report):
    spec = CategorySpec.from_dict(
        {
            "format_version": 1,
            "field": {"q": 2},
            "quiver": {"vertices": 2, "arrows": [[1, 2]]},
            "backend": "bounded",
            "window": [0, 1],
        }
    )
    doc = run_suite(spec, "rel-euler", parse_dim_cap(spec, "total:2"))
    ok = (
        doc["status"] == "pass"
        and doc["details"]["conflations"] >= 50
        and doc["checks"] >= 100
    )
    report(
        5,
        "relative euler multiplicativity",
        ok,
        f"{doc['details']['conflations']} conflations, {doc['checks']} checks",
    )


# ---- 6: comparison with the derived product ----


def test_criterion_06_comparison_isomorphism(report):
    t0 = time.perf_counter()
    res1 = SDH(a1_bounded()).compare_toen(max_degree_dim=1)
    res2 = SDH(a2_bounded()).compare_toen(max_degree_dim=None, max_total_dim=2)
    elapsed = time.perf_counter() - t0
    ok = res1["ok"] and res2["ok"] and elapsed < 600
    report(
        6,
        "comparison with derived product",
        ok,
        f"{res1['pairs']}+{res2['pairs']} pairs in {elapsed:.2f}s; "
        f"literal basis map reported {len(res1['literal_discrepancies'])}"
        f"+{len(res2['literal_discrepancies'])} torus-factor discrepancies",
    )


# ---- 7: shift pushforward is an algebra map ----


def test_criterion_07_shift_functoriality(report):
    spec = CategorySpec.from_dict(
        {
            "format_version": 1,
            "field": {"q": 2},
            "quiver": {"vertices": 1, "arrows": []},
            "backend": "periodic",
            "period": 2,
        }
    )
    doc = run_suite(spec, "shift-functor", parse_dim_cap(spec, "1"))
    ok = doc["status"] == "pass" and doc["checks"] >= 36
    report(7, "shift pushforward", ok, f"{doc['checks']} checks")


# ---- 8: stalk commutator against a raw matrix oracle ----


def _oracle_gauss_rank(m: np.ndarray, p: int) -> int:
    m = m.copy() % p
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i, c] % p), None)
        if piv is None:
            continue
        m[[r, piv]] = m[[piv, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        r += 1
        if r == rows:
            break
    return r


def _oracle_commutator(p: int):
    """Stalk products in the localized algebra, straight from matrices.

    Complexes over the one-vertex quiver with period 2 are pairs of
    matrices (d0: V0 -> V1, d1: V1 -> V0) with both composites zero.  The
    product [A][C] counts degree-one cocycles f (d_C f + f d_A = 0) grouped
    by the isomorphism class of the glued middle, divided by the number of
    coboundaries and by |Hom(A, C)|; contractible middles are then traded
    for torus symbols.  Nothing here touches the package's own Hom, Ext,
    or normalization code.
    """

    Z = lambda r, c: np.zeros((r, c), dtype=np.int64)
    X = ((1, 0), (Z(0, 1), Z(1, 0)))  # stalk in degree 0
    Y = ((0, 1), (Z(1, 0), Z(0, 1)))  # stalk in degree 1
    XY = ((1, 1), (Z(1, 1), Z(1, 1)))
    K0 = ((1, 1), (np.array([[1]], dtype=np.int64), Z(1, 1)))  # cone at 0
    K1 = ((1, 1), (Z(1, 1), np.array([[1]], dtype=np.int64)))  # cone at 1
    names = [("XY", XY), ("K0", K0), ("K1", K1)]

    def all_mats(r, c):
        for flat in itertools.product(range(p), repeat=r * c):
            yield np.array(flat, dtype=np.int64).reshape(r, c)

    def chain_maps(A, B):
        (a0, a1), (dA0, dA1) = A
        (b0, b1), (dB0, dB1) = B
        out = []
        for u0 in all_mats(b0, a0):
            for u1 in all_mats(b1, a1):
                if ((dB0 @ u0 - u1 @ dA0) % p == 0).all() and (
                    (dB1 @ u1 - u0 @ dA1) % p == 0
                ).all():
                    out.append((u0, u1))
        return out

    def isomorphic(A, B):
        if A[0] != B[0]:
            return False
        for u0, u1 in chain_maps(A, B):
            if (
                _oracle_gauss_rank(u0, p) == A[0][0]
                and _oracle_gauss_rank(u1, p) == A[0][1]
            ):
                return True
        return False

    def product(A, C):
        """[A] * [C]: conflations C >-> B ->> A, coefficients exact."""
        (a0, a1), (dA0, dA1) = A
        (c0, c1), (dC0, dC1) = C
        # degree +1 maps f: A -> C[1]; f0: A0 -> C1, f1: A1 -> C0
        cocycles = []
        for f0 in all_mats(c1, a0):
            for f1 in all_mats(c0, a1):
                if ((dC1 @ f0 + f1 @ dA0) % p == 0).all() and (
                    (dC0 @ f1 + f0 @ dA1) % p == 0
                ).all():
                    cocycles.append((f0, f1))
        # coboundaries: b(g) = dC g - g dA for arbitrary degree-0 g
        coboundaries = set()
        for g0 in all_mats(c0, a0):
            for g1 in all_mats(c1, a1):
                b0 = (dC0 @ g0 - g1 @ dA0) % p
                b1 = (dC1 @ g1 - g0 @ dA1) % p
                coboundaries.add((b0.tobytes(), b1.tobytes()))
        n_hom = len(chain_maps(A, C))

        def middle(f):
            f0, f1 = f
            d0 = np.block([[dC0, f0], [Z(a1, c0), dA0]]) if c0 + a0 and c1 + a1 else Z(c1 + a1, c0 + a0)
            d1 = np.block([[dC1, f1], [Z(a0, c1), dA1]]) if c0 + a0 and c1 + a1 else Z(c0 + a0, c1 + a1)
            return ((c0 + a0, c1 + a1), (d0 % p, d1 % p))

        counts: dict[str, int] = {}
        for f in cocycles:
            b = middle(f)
            name = next(nm for nm, ref in names if isomorphic(b, ref))
            counts[name] = counts.get(name, 0) + 1
        return {
            nm: Fraction(n, len(coboundaries)) / n_hom for nm, n in sorted(counts.items())
        }

    xy = product(X, Y)
    yx = product(Y, X)
    comm = dict(xy)
    for k, v in yx.items():
        comm[k] = comm.get(k, Fraction(0)) - v
    return xy, yx, {k: v for k, v in sorted(comm.items()) if v}


def test_criterion_08_commutator_vs_matrix_oracle(report):
    q = 2
    s = SDH(a1z2())
    cat = s.cat
    x_id = s.stable_class(cat.stalk(1, 0))
    y_id = s.stable_class(cat.stalk(1, 1))
    xy_id = s.stable_class(cx.direct_sum_cx(cat.stalk(1, 0), cat.stalk(1, 1)))
    zero = s.zero_class

    def to_names(elem):
        key_of = {
            ((0, 0), xy_id): "XY",
            ((1, 0), zero): "K0",
            ((0, 1), zero): "K1",
        }
        return {key_of[k]: v for k, v in elem.items()}

    xk = s.basis(s.torus.zero(), x_id)
    yk = s.basis(s.torus.zero(), y_id)
    art_xy = to_names(s.product(xk, yk))
    art_yx = to_names(s.product(yk, xk))
    art_comm = dict(art_xy)
    for k, v in art_yx.items():
        art_comm[k] = art_comm.get(k, Fraction(0)) - v
    art_comm = {k: v for k, v in art_comm.items() if v}

    orc_xy, orc_yx, orc_comm = _oracle_commutator(q)
    expected = {"K0": Fraction(q - 1), "K1": Fraction(-(q - 1))}
    ok = (
        art_xy == orc_xy
        and art_yx == orc_yx
        and art_comm == orc_comm == expected
    )
    report(
        8,
        "stalk commutator vs matrix oracle",
        ok,
        f"products {orc_xy} / {orc_yx}, commutator {orc_comm}",
    )


# ---- 9: derived product associativity ----


def test_criterion_09_derived_associativity(report):
    s = SDH(a1_bounded())
    ids = s.stable_sample(max_degree_dim=1)
    bad = 0
    for a in ids:
        for b in ids:
            for c in ids:
                left = s.dh_product(s.dh_product({a: Fraction(1)}, {b: Fraction(1)}), {c: Fraction(1)})
                right = s.dh_product({a: Fraction(1)}, s.dh_product({b: Fraction(1)}, {c: Fraction(1)}))
                if left != right:
                    bad += 1
    ok = bad == 0 and len(ids) == 4
    report(9, "derived associativity", ok, f"{len(ids) ** 3} triples, {bad} bad")


# ---- 10: byte-identical artifacts ----


A2_ABELIAN = {
    "format_version": 1,
    "field": {"q": 2},
    "quiver": {"vertices": 2, "arrows": [[1, 2]]},
    "backend": "abelian",
}
A1_PERIODIC = {
    "format_version": 1,
    "field": {"q": 2},
    "quiver": {"vertices": 1, "arrows": []},
    "backend": "periodic",
    "period": 2,
}
A1_BOUNDED = {
    "format_version": 1,
    "field": {"q": 2},
    "quiver": {"vertices": 1, "arrows": []},
    "backend": "bounded",
    "window": [0, 1],
}
A2_BOUNDED = {
    "format_version": 1,
    "field": {"q": 2},
    "quiver": {"vertices": 2, "arrows": [[1, 2]]},
    "backend": "bounded",
    "window": [0, 1],
}


def _produce_artifacts(root, specs, monkeypatch):
    monkeypatch.setenv("HALLFORGE_CACHE_DIR", str(root / "cache"))
    root.mkdir(parents=True, exist_ok=True)
    out = {}

    def run(name, argv, rc_want=0):
        path = root / name
        rc = cli.main(argv + ["--out", str(path)])
        assert rc == rc_want, (name, rc)
        out[name] = path.read_text()

    # elements for the product command
    spec = CategorySpec.from_dict(A2_ABELIAN)
    handle = AlgebraHandle(spec, "hall")
    reg = enumerate_reps(A2, F2, (1, 1), registry=handle.backend.registry)
    by_dims = {tuple(handle.backend.object(i).dims): i for i in range(len(reg))}
    for nm, dims in (("s1.json", (1, 0)), ("s2.json", (0, 1))):
        write_element(root / nm, handle, {by_dims[dims]: Fraction(1)})

    run("product.json", ["product", "--spec", specs["a2ab"], str(root / "s1.json"), str(root / "s2.json")])
    run("table-hall.json", ["table", "--spec", specs["a2ab"], "--dim-cap", "1,1"])
    run("table-sdh.json", ["table", "--spec", specs["per"], "--dim-cap", "1", "--algebra", "sdh"])
    run("rep-assoc.json", ["verify", "--spec", specs["a2ab"], "--dim-cap", "1,1", "associativity"])
    run("rep-lemma.json", ["verify", "--spec", specs["per"], "--dim-cap", "1", "lemma-ext"])
    run("rep-freeness.json", ["verify", "--spec", specs["per"], "--dim-cap", "1", "freeness"])
    run("rep-shift.json", ["verify", "--spec", specs["per"], "--dim-cap", "1", "shift-functor"])
    run("rep-releuler.json", ["verify", "--spec", specs["a2bnd"], "--dim-cap", "total:2", "rel-euler"])
    run("rep-toen.json", ["verify", "--spec", specs["a1bnd"], "--dim-cap", "1", "toen"])
    return out


def test_criterion_10_deterministic_artifacts(tmp_path, monkeypatch, report):
    specs = {}
    for nm, doc in (
        ("a2ab", A2_ABELIAN),
        ("per", A1_PERIODIC),
        ("a1bnd", A1_BOUNDED),
        ("a2bnd", A2_BOUNDED),
    ):
        p = tmp_path / f"{nm}.json"
        p.write_text(json.dumps(doc))
        specs[nm] = str(p)

    run1 = _produce_artifacts(tmp_path / "run1", specs, monkeypatch)
    run2 = _produce_artifacts(tmp_path / "run2", specs, monkeypatch)
    # third run shares run2's cache: warm-cache bytes must also agree
    run3 = _produce_artifacts(tmp_path / "run2", specs, monkeypatch)

    def body(name, text):
        if name.startswith("rep-"):
            doc = json.loads(text)
            doc.pop("wall_time", None)
            return json.dumps(doc, sort_keys=True)
        return text

    mismatches = []
    for name in run1:
        b1, b2, b3 = body(name, run1[name]), body(name, run2[name]), body(name, run3[name])
        if not (b1 == b2 == b3):
            mismatches.append(name)
        if not name.startswith("rep-"):
            # non-report artifacts must agree to the byte, timing included
            if not (run1[name] == run2[name] == run3[name]):
                mismatches.append(name + " (raw)")
    ok = not mismatches and len(run1) == 9
    report(10, "deterministic artifacts", ok, f"{len(run1)} artifacts x3 runs; mismatches: {mismatches}")
