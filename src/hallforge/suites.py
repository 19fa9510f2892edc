"""Verification suites behind `hallforge verify`.

Each suite runs one family of identities over an enumerated grid and
returns a Report document: checks run, failures, wall time.  Failures
carry canonical encodings of the offending objects, so a single failing
check can be replayed without the original registry state.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

from .errors import RelEulerUndefined, SpecError
from .files import (
    AlgebraHandle,
    CategorySpec,
    element_rows,
    grid_class_ids,
    make_report,
    rational_to_str,
)
from .hall import SqrtExt, verify_associativity

SUITES = (
    "associativity",
    "lemma-ext",
    "freeness",
    "rel-euler",
    "toen",
    "shift-functor",
)


def sanitize(x):
    """Recursively convert a result structure to plain JSON types."""
    if isinstance(x, Fraction):
        return rational_to_str(x)
    if isinstance(x, SqrtExt):
        return {"coeff": rational_to_str(x.a), "coeff_root": rational_to_str(x.b)}
    if isinstance(x, dict):
        return {_string_key(k): sanitize(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [sanitize(v) for v in x]
    if isinstance(x, bool) or x is None or isinstance(x, (int, str, float)):
        return x
    return repr(x)


def _string_key(k):
    if isinstance(k, str):
        return k
    return json.dumps(sanitize(k))


def _needs_complexes(spec: CategorySpec, suite: str) -> None:
    if spec.backend == "abelian":
        raise SpecError(f"suite {suite!r} needs a complex backend")


def _sdh_for(spec: CategorySpec, cache=None) -> SDH:
    from .sdh import SDH
    return SDH(spec.complex_category(), spec.caps, cache=cache)


def _cap_bounds(cap: dict) -> tuple:
    if cap["kind"] != "complex":
        raise SpecError("this suite needs a complex dim-cap")
    return cap["max_degree_dim"], cap["max_total_dim"]


# ---- individual suites ----


def _suite_associativity(spec, cap, cache):
    handle = AlgebraHandle(spec, "hall", cache=cache)
    ids = grid_class_ids(handle, cap)
    failures = []
    checks = 0
    passes = [False] + ([True] if spec.backend != "periodic" else [])
    for twisted in passes:
        raw = verify_associativity(handle.hall, ids, twisted=twisted)
        checks += len(ids) ** 3
        for f in raw:
            a, b, c = f["triple"]
            failures.append(
                {
                    "check": "associativity",
                    "twisted": twisted,
                    "triple": [handle.key_row(k)["encoding"] for k in (a, b, c)],
                    "left": element_rows(handle, f["left"]),
                    "right": element_rows(handle, f["right"]),
                }
            )
    return checks, failures, {"classes": len(ids), "twisted_included": len(passes) == 2}


def _suite_lemma_ext(spec, cap, cache):
    _needs_complexes(spec, "lemma-ext")
    from . import complexes as cx
    handle = AlgebraHandle(spec, "hall", cache=cache)
    ids = grid_class_ids(handle, cap)
    objs = [handle.backend.object(i) for i in ids]
    p = spec.q
    failures = []
    for i, x in enumerate(objs):
        for j, y in enumerate(objs):
            n_ext = p ** cx.ext1_classes(x, y, spec.caps, enumerate_reps=False).dim
            n_stable = cx.stable_hom_card(x, cx.shift(y, 1))
            if n_ext != n_stable:
                failures.append(
                    {
                        "check": "lemma-ext",
                        "x": handle.key_row(ids[i])["encoding"],
                        "y": handle.key_row(ids[j])["encoding"],
                        "ext_classes": n_ext,
                        "stable_hom": n_stable,
                    }
                )
    return len(objs) ** 2, failures, {"classes": len(ids)}


def _suite_freeness(spec, cap, cache):
    _needs_complexes(spec, "freeness")
    sdh = _sdh_for(spec, cache)
    max_deg, max_tot = _cap_bounds(cap)
    res = sdh.verify_freeness(max_degree_dim=max_deg, max_total_dim=max_tot)
    crit = res["criteria"]
    n_obj = crit["i"]["objects"]
    rank = sdh.torus.rank
    checks = n_obj + n_obj * rank + rank + n_obj * (n_obj - 1) // 2
    failures = []
    for name in ("i", "ii", "iii", "iv"):
        for f in crit[name]["failures"]:
            failures.append({"check": f"freeness-{name}", **sanitize(f)})
    return checks, failures, {"objects": n_obj, "torus_rank": rank}


def _conflations(handle, ids):
    """(sub, middle, quot) triples from every extension class on the grid."""
    from . import complexes as cx
    out = []
    for a_id in ids:
        for c_id in ids:
            a = handle.backend.object(a_id)
            c = handle.backend.object(c_id)
            ext = cx.ext1_classes(a, c, handle.spec.caps)
            for f in ext.reps:
                out.append((c, cx.middle_term_cx(a, c, f), a))
    return out


def _suite_rel_euler(spec, cap, cache):
    _needs_complexes(spec, "rel-euler")
    if spec.backend == "periodic":
        raise RelEulerUndefined("relative Euler form undefined on the periodic backend")
    handle = AlgebraHandle(spec, "hall", cache=cache)
    sdh = _sdh_for(spec, cache)
    ids = grid_class_ids(handle, cap)
    conflations = _conflations(handle, ids)
    tests = [handle.backend.object(i) for i in ids[:5]]
    failures = []
    checks = 0
    for sub, mid, quot in conflations:
        for t in tests:
            for side, lhs, rhs in (
                ("left", sdh.rel_euler(mid, t), sdh.rel_euler(quot, t) * sdh.rel_euler(sub, t)),
                ("right", sdh.rel_euler(t, mid), sdh.rel_euler(t, quot) * sdh.rel_euler(t, sub)),
            ):
                checks += 1
                if lhs != rhs:
                    failures.append(
                        {
                            "check": "rel-euler",
                            "side": side,
                            "sub": sanitize(sub.encoding()),
                            "middle": sanitize(mid.encoding()),
                            "quot": sanitize(quot.encoding()),
                            "test": sanitize(t.encoding()),
                            "lhs": rational_to_str(lhs),
                            "rhs": rational_to_str(rhs),
                        }
                    )
    return checks, failures, {"conflations": len(conflations), "test_objects": len(tests)}


def _suite_toen(spec, cap, cache):
    _needs_complexes(spec, "toen")
    if spec.backend == "periodic":
        raise RelEulerUndefined("twisted comparison undefined on the periodic backend")
    sdh = _sdh_for(spec, cache)
    max_deg, max_tot = _cap_bounds(cap)
    res = sdh.compare_toen(max_degree_dim=max_deg, max_total_dim=max_tot)
    failures = []
    for f in res["failures"]:
        f = dict(f)
        a_id, c_id = f["pair"]
        f["pair_encodings"] = [
            sanitize(sdh.stable.object(a_id).encoding()),
            sanitize(sdh.stable.object(c_id).encoding()),
        ]
        failures.append({"check": "toen", **sanitize(f)})
    details = {
        "pairs": res["pairs"],
        "literal_ok": res["literal_ok"],
        "literal_discrepancies": sanitize(res["literal_discrepancies"]),
    }
    return res["pairs"], failures, details


def _suite_shift_functor(spec, cap, cache):
    _needs_complexes(spec, "shift-functor")
    if spec.backend != "periodic":
        raise SpecError("suite 'shift-functor' needs the periodic backend")
    sdh = _sdh_for(spec, cache)
    max_deg, max_tot = _cap_bounds(cap)
    sample = sdh.stable_sample(max_degree_dim=max_deg, max_total_dim=max_tot)
    rank = sdh.torus.rank
    failures = []
    checks = 0

    # torus generators map to torus generators, bijectively
    perm = {}
    unit_exps = {}
    for g in range(rank):
        e_g = tuple(1 if j == g else 0 for j in range(rank))
        unit_exps[g] = e_g
        img = sdh.pushforward_shift(sdh.torus_element(e_g), 1)
        checks += 1
        ok = False
        if len(img) == 1:
            ((gamma, m_id), co), = img.items()
            if m_id == sdh.zero_class and co == 1 and sum(gamma) == 1 and set(gamma) <= {0, 1}:
                perm[g] = gamma.index(1)
                ok = True
        if not ok:
            failures.append(
                {
                    "check": "shift-generators",
                    "generator": sdh.torus.keys[g],
                    "image": sanitize(img),
                }
            )
    checks += 1
    if len(set(perm.values())) != len(perm) or len(perm) != rank:
        failures.append({"check": "shift-generators", "kind": "not a permutation",
                         "map": sanitize(perm)})

    # bijective on basis classes
    image_ids = []
    for m_id in sample:
        img = sdh.pushforward_shift(sdh.basis(sdh.torus.zero(), m_id), 1)
        checks += 1
        if len(img) != 1:
            failures.append(
                {
                    "check": "shift-basis",
                    "class": sanitize(sdh.stable.object(m_id).encoding()),
                    "image": sanitize(img),
                }
            )
            continue
        ((gamma, im_id), co), = img.items()
        if co != 1 or any(gamma):
            failures.append(
                {
                    "check": "shift-basis",
                    "class": sanitize(sdh.stable.object(m_id).encoding()),
                    "image": sanitize(img),
                }
            )
            continue
        image_ids.append(im_id)
    checks += 1
    if sorted(image_ids) != sorted(sample):
        failures.append(
            {
                "check": "shift-basis",
                "kind": "not a bijection on classes",
                "sample": sorted(sample),
                "image": sorted(image_ids),
            }
        )

    # multiplicative on all pairs drawn from the grid plus the generators
    elems = [sdh.basis(sdh.torus.zero(), m) for m in sample]
    elems += [sdh.torus_element(unit_exps[g]) for g in range(rank)]

    for x in elems:
        for y in elems:
            checks += 1
            lhs = sdh.pushforward_shift(sdh.product(x, y), 1)
            rhs = sdh.product(sdh.pushforward_shift(x, 1), sdh.pushforward_shift(y, 1))
            if not sdh.equal(lhs, rhs):
                failures.append(
                    {
                        "check": "shift-multiplicative",
                        "x": sanitize(x),
                        "y": sanitize(y),
                        "lhs": sanitize(lhs),
                        "rhs": sanitize(rhs),
                    }
                )
    return checks, failures, {"classes": len(sample), "torus_rank": rank}


_SUITE_FNS = {
    "associativity": _suite_associativity,
    "lemma-ext": _suite_lemma_ext,
    "freeness": _suite_freeness,
    "rel-euler": _suite_rel_euler,
    "toen": _suite_toen,
    "shift-functor": _suite_shift_functor,
}


def run_suite(spec: CategorySpec, suite: str, cap: dict, cache=None) -> dict:
    """Run one named suite and wrap the outcome in a Report document."""
    if suite not in SUITES:
        raise SpecError(f"unknown suite {suite!r} (choose from {', '.join(SUITES)})")
    t0 = time.perf_counter()
    checks, failures, details = _SUITE_FNS[suite](spec, cap, cache)
    report = make_report(suite, spec, checks, failures, time.perf_counter() - t0, details)
    report["dim_cap"] = cap["raw"]
    return report
