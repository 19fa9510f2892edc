"""Outside-in tracer for the hallforge layers.

`Tracer.install()` wraps the public functions of the eight layer modules,
plus the public methods of the classes named in METHOD_CLASSES, in every
hallforge module namespace that binds them.  `hall.py` and `suites.py`
import `iso_test`, `verify_associativity` and others by name, so a wrapper
installed only on the defining module would miss those calls; each binding
therefore gets its own wrapper and its own call counter (`bindings`), which
the benchmark's coverage check reads.

Per wrapped name the tracer keeps calls, inclusive time and self time.
Self time is a call's duration minus the time of the wrapped calls made
inside it.  A group (GROUPS) is a set of names that answer one kind of
question; a group's `calls` are its outermost calls only, so a recursive
`decompose` or an `iso_test_cx` nested in another iso test counts once.

Spans are aggregated in memory and read out once with `metrics()`; nothing
is written while the program runs.  The tracer assumes one thread (the
benchmark runs the CLI with its default `--jobs`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
import weakref

LAYERS = ("linalg", "quiver", "complexes", "hall", "sdh", "files", "suites", "cli")

# Classes whose public methods are wrapped.  The per-entry accessors of
# Matrix, Rep, Complex, Field and SqrtExt are left alone: they run millions
# of times and wrapping them would swamp the self times being measured.
METHOD_CLASSES = {
    "quiver": ("Registry",),
    "hall": ("RepBackend", "CxBackend", "MemoryCache", "HallAlgebra"),
    "sdh": ("SDH", "QuantumTorus"),
    "files": ("FileCache", "AlgebraHandle"),
}
EXTRA_METHODS = ("linalg.Matrix.__init__",)

GROUPS = {
    "linalg.rref": ("linalg.rref",),
    "linalg.rank": ("linalg.rank",),
    "linalg.kernel": ("linalg.kernel_basis",),
    "linalg.solve": ("linalg.solve", "linalg.solve_matrix"),
    "linalg.matrix_new": ("linalg.Matrix.__init__",),
    "quiver.hom": ("quiver.hom_basis", "quiver.hom_dim"),
    "quiver.ext1": ("quiver.ext1_space",),
    "quiver.middle": ("quiver.middle_term",),
    "quiver.iso": ("quiver.iso_test", "quiver.find_iso"),
    "quiver.decompose": ("quiver.decompose",),
    "quiver.classify": ("quiver.Registry.classify",),
    "complexes.hom": ("complexes.hom_chain_basis", "complexes.hom_dim_cx", "complexes.hom_card"),
    "complexes.stable_hom": ("complexes.stable_hom_dim", "complexes.stable_hom_card"),
    "complexes.ext1": ("complexes.ext1_classes",),
    "complexes.middle": ("complexes.middle_term_cx",),
    "complexes.iso": (
        "complexes.iso_test_cx",
        "complexes.stable_iso_test",
        "complexes.stable_iso_test_minimal",
        "complexes.find_chain_iso",
    ),
    "complexes.strip": ("complexes.strip_contractibles",),
    "complexes.decompose": ("complexes.decompose_cx",),
    "hall.ext_data": ("hall.HallAlgebra.ext_data",),
    "hall.raw_ext_data": ("hall.RepBackend.raw_ext_data", "hall.CxBackend.raw_ext_data"),
    "hall.product": ("hall.HallAlgebra.product", "hall.HallAlgebra.twisted_product"),
    "hall.cache_get": ("hall.MemoryCache.get", "files.FileCache.get"),
    "sdh.dh_product": ("sdh.SDH.dh_product",),
    "sdh.stable_class": ("sdh.SDH.stable_class",),
    "sdh.normalize": ("sdh.SDH.normalize",),
    "files.cache_load": ("files.open_cache",),
    "files.enumerate": ("files.basis_keys", "files.grid_class_ids"),
    "files.serialize": ("files.element_rows", "files.dump_doc"),
    "suites.run": ("suites.run_suite",),
    "cli.main": ("cli.main",),
}

# Groups whose result says whether an isomorphism was found.
_PREDICATES = ("quiver.iso", "complexes.iso")


class TraceError(RuntimeError):
    """The trace cannot be trusted: a wrapper is missing or counts disagree."""


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.bindings: dict[str, int] = {}  # "module.binding" -> calls
        self.groups = {g: [0, 0.0, 0] for g in GROUPS}  # outer calls, outer s, found
        self.classify = {"enc_hit": 0, "iso_hit": 0, "new": 0}
        self.ext1_classes = {"quiver": 0, "complexes": 0}
        self.ext_data_ms: list[float] = []
        self.ext_data_pairs: set = set()
        self.cache = {"hits": 0, "misses": 0}
        self.checks = 0
        self._frames: list[float] = []
        self._depth = dict.fromkeys(GROUPS, 0)
        self._group_of = {n: g for g, names in GROUPS.items() for n in names}
        self._seen_enc = weakref.WeakKeyDictionary()

    # ---- installation ----

    def install(self) -> None:
        mods = {m: importlib.import_module(f"hallforge.{m}") for m in LAYERS}
        namespaces = {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("hallforge.")
        }
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                defname = f"{layer}.{attr}"
                inner = self._probe(defname, fn)
                for short, ns in namespaces.items():
                    for bound, obj in list(vars(ns).items()):
                        if obj is fn:
                            setattr(ns, bound, self._wrap(defname, f"{short}.{bound}", inner))
            for cls_name in METHOD_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, fn in list(vars(cls).items()):
                    if attr.startswith("_") or not inspect.isfunction(fn):
                        continue
                    self._wrap_method(layer, cls, attr)
        for dotted in EXTRA_METHODS:
            layer, cls_name, attr = dotted.split(".")
            self._wrap_method(layer, getattr(mods[layer], cls_name), attr)
        missing = [n for names in GROUPS.values() for n in names if n not in self.stats]
        if missing:
            raise TraceError(f"traced names not found in hallforge: {missing}")

    def _wrap_method(self, layer, cls, attr) -> None:
        defname = f"{layer}.{cls.__name__}.{attr}"
        fn = vars(cls)[attr]
        setattr(cls, attr, self._wrap(defname, defname, self._probe(defname, fn)))

    def _wrap(self, defname: str, binding: str, fn):
        stat = self.stats.setdefault(defname, [0, 0.0, 0.0])
        self.bindings.setdefault(binding, 0)
        bindings = self.bindings
        group = self._group_of.get(defname)
        gstat = self.groups[group] if group else None
        predicate = group in _PREDICATES
        depth = self._depth
        frames = self._frames
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = group is not None and depth[group] == 0
            if group is not None:
                depth[group] += 1
            frames.append(0.0)
            found = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                found = predicate and result is not None and result is not False
                return result
            finally:
                dt = clock() - t0
                child = frames.pop()
                if frames:
                    frames[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                bindings[binding] += 1
                if group is not None:
                    depth[group] -= 1
                    if outer:
                        gstat[0] += 1
                        gstat[1] += dt
                        gstat[2] += found

        return wrapper

    def _probe(self, defname: str, fn):
        """Wrap `fn` in the observer its name needs, if any."""
        if defname == "quiver.Registry.classify":
            return self._classify_probe(fn)
        if defname == "hall.HallAlgebra.ext_data":
            return self._ext_data_probe(fn)
        if defname in ("quiver.ext1_space", "complexes.ext1_classes"):
            return self._ext1_probe(defname.split(".")[0], fn)
        if defname in GROUPS["hall.cache_get"]:
            return self._cache_probe(fn)
        if defname == "suites.run_suite":
            return self._suite_probe(fn)
        return fn

    def _classify_probe(self, fn):
        """Resolve each classification as encoding hit, iso hit or new class.

        An encoding hit is an object whose encoding this registry has
        classified before; a new class grows the registry; an iso hit is
        neither and ran at least one iso test.  The three are decided
        independently, so a registry that resolves objects some fourth way
        breaks the counter identity instead of landing in a bucket.
        """
        seen = self._seen_enc
        outcome = self.classify
        iso_groups = [self.groups[g] for g in _PREDICATES]

        def classify(registry, obj):
            known = seen.setdefault(registry, set())
            enc = obj.encoding()
            size = len(registry)
            isos = sum(g[0] for g in iso_groups)
            result = fn(registry, obj)
            grew = len(registry) > size
            ran_iso = sum(g[0] for g in iso_groups) > isos
            outcome["enc_hit"] += enc in known
            outcome["new"] += grew
            outcome["iso_hit"] += enc not in known and not grew and ran_iso
            known.add(enc)
            return result

        return classify

    def _ext_data_probe(self, fn):
        clock = time.perf_counter

        def ext_data(algebra, a_id, c_id):
            t0 = clock()
            result = fn(algebra, a_id, c_id)
            self.ext_data_ms.append((clock() - t0) * 1e3)
            self.ext_data_pairs.add((id(algebra), a_id, c_id))
            return result

        return ext_data

    def _ext1_probe(self, layer, fn):
        def ext1(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.ext1_classes[layer] += len(result.reps or ())
            return result

        return ext1

    def _cache_probe(self, fn):
        def get(cache, key):
            rec = fn(cache, key)
            self.cache["misses" if rec is None else "hits"] += 1
            return rec

        return get

    def _suite_probe(self, fn):
        def run_suite(*args, **kwargs):
            report = fn(*args, **kwargs)
            self.checks += report["checks"]
            return report

        return run_suite

    # ---- read-out ----

    def layer_self_s(self, layer: str) -> float:
        return sum(s[2] for name, s in self.stats.items() if name.split(".")[0] == layer)

    def group_self_s(self, group: str) -> float:
        return sum(self.stats[n][2] for n in GROUPS[group])

    def metrics(self) -> dict:
        """Per-layer metrics of the traced process, by benchmark name."""
        g = self.groups
        calls = {k: v[0] for k, v in g.items()}

        def ratio(num, den):
            return num / den if den else 0.0

        lat = sorted(self.ext_data_ms)
        p50 = statistics.median(lat) if lat else 0.0
        p95 = lat[min(len(lat) - 1, int(0.95 * len(lat)))] if lat else 0.0
        hits, misses = self.cache["hits"], self.cache["misses"]
        out = {
            "linalg.rref_calls": calls["linalg.rref"],
            "linalg.rank_calls": calls["linalg.rank"],
            "linalg.kernel_calls": calls["linalg.kernel"],
            "linalg.solve_calls": calls["linalg.solve"],
            "linalg.self_s": self.layer_self_s("linalg"),
            "linalg.matrix_new": self.stats["linalg.Matrix.__init__"][0],
            "quiver.hom_calls": calls["quiver.hom"],
            "quiver.hom_self_s": self.group_self_s("quiver.hom"),
            "quiver.ext1_calls": calls["quiver.ext1"],
            "quiver.ext1_classes": self.ext1_classes["quiver"],
            "quiver.middles": calls["quiver.middle"],
            "quiver.iso_calls": calls["quiver.iso"],
            "quiver.iso_useful_ratio": ratio(g["quiver.iso"][2], calls["quiver.iso"]),
            "quiver.iso_self_s": self.group_self_s("quiver.iso"),
            "quiver.decompose_calls": calls["quiver.decompose"],
            "quiver.decompose_self_s": self.group_self_s("quiver.decompose"),
            "quiver.classify_calls": self.stats["quiver.Registry.classify"][0],
            "quiver.classify_enc_hit": self.classify["enc_hit"],
            "quiver.classify_iso_hit": self.classify["iso_hit"],
            "quiver.classify_new": self.classify["new"],
            "quiver.classify_self_s": self.group_self_s("quiver.classify"),
            "complexes.hom_calls": calls["complexes.hom"],
            "complexes.hom_self_s": self.group_self_s("complexes.hom"),
            "complexes.stable_hom_calls": calls["complexes.stable_hom"],
            "complexes.stable_hom_self_s": self.group_self_s("complexes.stable_hom"),
            "complexes.ext1_calls": calls["complexes.ext1"],
            "complexes.ext1_classes": self.ext1_classes["complexes"],
            "complexes.middles": calls["complexes.middle"],
            "complexes.iso_calls": calls["complexes.iso"],
            "complexes.iso_useful_ratio": ratio(g["complexes.iso"][2], calls["complexes.iso"]),
            "complexes.iso_self_s": self.group_self_s("complexes.iso"),
            "complexes.strip_calls": calls["complexes.strip"],
            "complexes.strip_self_s": self.group_self_s("complexes.strip"),
            "complexes.decompose_calls": calls["complexes.decompose"],
            "complexes.decompose_self_s": self.group_self_s("complexes.decompose"),
            "hall.ext_data_calls": calls["hall.ext_data"],
            "hall.ext_data_distinct": len(self.ext_data_pairs),
            "hall.ext_data_self_s": self.group_self_s("hall.ext_data"),
            "hall.ext_data_p50_ms": p50,
            "hall.ext_data_p95_ms": p95,
            "hall.raw_ext_data_calls": calls["hall.raw_ext_data"],
            "hall.raw_ext_data_self_s": self.group_self_s("hall.raw_ext_data"),
            "hall.cache_hits": hits,
            "hall.cache_misses": misses,
            "hall.cache_hit_ratio": ratio(hits, hits + misses),
            "hall.product_calls": calls["hall.product"],
            "sdh.dh_product_calls": calls["sdh.dh_product"],
            "sdh.stable_class_calls": calls["sdh.stable_class"],
            "sdh.normalize_calls": calls["sdh.normalize"],
            "sdh.self_s": self.layer_self_s("sdh"),
            "files.cache_load_s": g["files.cache_load"][1],
            "files.enumerate_s": g["files.enumerate"][1],
            "files.serialize_s": g["files.serialize"][1],
            "suites.run_s": g["suites.run"][1],
            "suites.checks": self.checks,
            "cli.main_s": g["cli.main"][1],
        }
        return out

    def check_identities(self, cold: bool) -> None:
        """Raise TraceError unless the counters agree with each other."""
        m = self.metrics()
        problems = []
        if m["hall.cache_hits"] + m["hall.cache_misses"] != m["hall.ext_data_calls"]:
            problems.append("cache_hits + cache_misses != ext_data_calls")
        outcomes = ("quiver.classify_enc_hit", "quiver.classify_iso_hit", "quiver.classify_new")
        if sum(m[k] for k in outcomes) != m["quiver.classify_calls"]:
            problems.append("classify_enc_hit + classify_iso_hit + classify_new != classify_calls")
        if cold and m["hall.raw_ext_data_calls"] != m["hall.cache_misses"]:
            problems.append("cold run: raw_ext_data_calls != cache_misses")
        if not cold and m["hall.cache_misses"]:
            problems.append("warm run: cache misses on the cache the cold run wrote")
        if problems:
            raise TraceError(f"counter identities broken: {problems} in {m}")
