"""hallforge benchmark: CLI workloads, cold and warm, plus a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload in turn

Each workload is one `hallforge` CLI command on a fixed grid, run from the
checkout's `src` one process at a time (a closed loop with one client and
the default `--jobs`).  The seed lays out the spec file (key order and
indentation), so every seed does the same work and must produce the
artifact whose digest reference.json holds.

One iteration is: the set-up probe (child.py setup), a cold CLI process on
a fresh empty HALLFORGE_CACHE_DIR, the set-up probe again, and a warm CLI
process on the cache file the cold one left.  Iterations repeat for
--seconds, and the end-to-end metrics are the medians.  Every artifact is checked against its reference
digest; a non-zero exit, a timeout or a wrong digest counts as a failed
run, so `failed / attempted` is the failed ratio.

With --trace 1 the same untraced iterations run first, then one cold and
one warm process with the tracer installed (child.py trace) give the
per-layer metrics.  NOTES.md says why each workload is there and which
metric each layer should move.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are for
people.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

CHILD_TIMEOUT_S = 60.0  # one CLI process; the largest takes about 4 s
RUN_LIMIT_S = 150.0  # start no new process after this, to exit within 180 s
MIN_ITERATIONS = 3
MIN_SETUP_SAMPLES = 5


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    spec: dict  # the category spec document
    command: tuple  # CLI words before --spec
    algebra: str  # the algebra the command builds, for the set-up probe
    dim_cap: str
    classes: int  # grid size the set-up probe must find
    expect: tuple  # bindings the traced cold run must call at least once


# Bindings every traced run must reach.  `suites.verify_associativity` and
# `hall.iso_test` are `from ... import` bindings: they read zero if the
# wrappers only patch the defining module.
_COMMON = (
    "cli.main",
    "files.load_spec",
    "files.open_cache",
    "files.dump_doc",
    "files.FileCache.close",
    "linalg.Matrix.__init__",
    "quiver.Registry.classify",
)
_TABLE = ("files.compute_table", "files.basis_keys", "files.element_rows")
_STRICT = ("hall.HallAlgebra.ext_data", "files.FileCache.get", "files.FileCache.put")
_REPS = (
    "hall.RepBackend.raw_ext_data", "hall.ext1_space", "hall.middle_term",
    "hall.iso_test", "quiver.iso_test", "quiver.decompose", "quiver.hom_basis",
    "quiver.hom_dim", "quiver.rank", "quiver.kernel_basis", "quiver.rref",
)
_CX = (
    "complexes.enumerate_complexes", "complexes.hom_dim_cx", "complexes.rank",
    "complexes.kernel_basis", "complexes.ext1_classes", "complexes.middle_term_cx",
    "complexes.strip_contractibles", "complexes.stable_iso_test_minimal",
    "complexes.find_chain_iso",
)


def _spec(q: int, arrows: list, backend: str, vertices: int = 2, window=None) -> dict:
    doc = {
        "format_version": 1,
        "field": {"q": q},
        "quiver": {"vertices": vertices, "arrows": arrows},
        "backend": backend,
    }
    if window is not None:
        doc["window"] = window
    return doc


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bounded-hall-table",
            spec=_spec(2, [[1, 2]], "bounded", window=[0, 1]),
            command=("table", "--algebra", "hall"), algebra="hall",
            dim_cap="2,total:3", classes=16,
            expect=_COMMON + _TABLE + _STRICT + _CX + (
                "hall.CxBackend.raw_ext_data", "complexes.iso_test_cx",
                "hall.HallAlgebra.product",
            ),
        ),
        Workload(
            name="abelian-twisted-table",
            spec=_spec(5, [[1, 2]], "abelian"),
            command=("table", "--algebra", "twisted"), algebra="twisted",
            dim_cap="2,1", classes=8,
            expect=_COMMON + _TABLE + _STRICT + _REPS + (
                "files.enumerate_reps", "hall.HallAlgebra.twisted_product",
            ),
        ),
        Workload(
            name="abelian-assoc-verify",
            spec=_spec(2, [[1, 2]], "abelian", vertices=3),
            command=("verify", "associativity"), algebra="hall",
            dim_cap="1", classes=10,
            expect=_COMMON + _STRICT + _REPS + (
                "cli.run_suite", "suites.grid_class_ids", "suites.verify_associativity",
                "files.enumerate_reps", "hall.HallAlgebra.product",
                "hall.HallAlgebra.twisted_product",
            ),
        ),
        Workload(
            name="bounded-dh-table",
            spec=_spec(2, [[1, 2]], "bounded", window=[0, 2]),
            command=("table", "--algebra", "dh"), algebra="dh",
            dim_cap="2,total:3", classes=28,
            expect=_COMMON + _TABLE + _CX + (
                "sdh.SDH.stable_sample", "sdh.SDH.dh_product",
                "complexes.stable_hom_card", "complexes.is_minimal",
            ),
        ),
    )
}


def spec_text(w: Workload, seed: int) -> str:
    """The workload's spec file for one seed.

    The seed shuffles key order and picks the indentation, so every seed
    feeds the program a different file for the same category, and the
    work, the spec hash and the artifact stay the same.  (Relabelling the
    quiver's vertices was tried and changed the linear-algebra work by up
    to 18%, which is spread the benchmark would report as noise.)
    """
    rng = random.Random(seed)

    def shuffled(x):
        if not isinstance(x, dict):
            return x
        keys = list(x)
        rng.shuffle(keys)
        return {k: shuffled(x[k]) for k in keys}

    return json.dumps(shuffled(w.spec), indent=rng.choice([None, 1, 2, 4])) + "\n"


def cli_argv(w: Workload, spec: Path, out: Path) -> list[str]:
    return [*w.command, "--spec", str(spec), "--dim-cap", w.dim_cap, "--out", str(out)]


def artifact_digest(w: Workload, path: Path) -> str | None:
    """sha256 of a table file; for a verify report, of its body without
    wall_time (what files.report_body keeps), and None unless it passed."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    if w.command[0] == "verify":
        try:
            doc = json.loads(data)
        except json.JSONDecodeError:
            return None
        if doc.get("status") != "pass":
            return None
        body = {k: val for k, val in doc.items() if k != "wall_time"}
        data = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


@dataclasses.dataclass
class Proc:
    rc: int | None  # None: killed after CHILD_TIMEOUT_S
    wall_s: float
    rss_mb: float
    stdout: str


def spawn(argv: list[str], cache_dir: Path) -> Proc:
    """Run one child process and take its own rusage with os.wait4.

    hallforge makes no BLAS calls (its matrices are integer arrays), but
    `import numpy` starts an OpenBLAS thread pool.  Starting it costs
    nothing or about 65 ms, depending on how the host schedules the second
    CPU, which moved the median setup_s by 30% between runs tens of
    minutes apart.  One BLAS thread takes that out of every child.
    """
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC),
        HALLFORGE_CACHE_DIR=str(cache_dir),
        OPENBLAS_NUM_THREADS="1",
    )
    out = tempfile.TemporaryFile(dir=WORK)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=env, stdout=out, stdin=subprocess.DEVNULL
    )
    killed = threading.Event()
    timer = threading.Timer(CHILD_TIMEOUT_S, lambda: (killed.set(), proc.kill()))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    out.seek(0)
    text = out.read().decode("utf-8", "replace")
    out.close()
    return Proc(None if killed.is_set() else proc.returncode, wall, usage.ru_maxrss / 1024, text)


class Run:
    """Samples and failure counts of one benchmark run."""

    def __init__(self, w: Workload, seed: int, reference: str, work: Path):
        self.w, self.reference, self.work = w, reference, work
        self.spec = work / "spec.json"
        self.spec.write_text(spec_text(w, seed), encoding="utf-8")
        self.samples: dict[str, list[float]] = {
            "setup_s": [], "wall_cold_s": [], "wall_warm_s": [], "peak_rss_mb": [],
        }
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.numpy = None
        self._outputs = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    def setup_probe(self, record: bool = True) -> None:
        argv = [
            str(HERE / "child.py"), "setup", "--spec", str(self.spec),
            "--algebra", self.w.algebra, "--dim-cap", self.w.dim_cap,
        ]
        cache = self.work / "probe-cache"
        p = spawn(argv, cache)
        self.attempted += 1
        try:
            info = json.loads(p.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            info = {}
        if p.rc != 0 or info.get("classes") != self.w.classes:
            self.fail(f"setup probe: rc={p.rc} info={info}")
            return
        if not Path(info["hallforge"]).resolve().is_relative_to(SRC):
            raise SystemExit(f"hallforge imported from {info['hallforge']}, not {SRC}")
        if cache.exists():
            self.fail("setup probe wrote a pair cache")
        self.numpy = info["numpy"]
        if record:
            self.samples["setup_s"].append(info["setup_s"])

    def cli(self, argv_head: list[str], cache: Path, kind: str) -> tuple[Proc, Path]:
        """One CLI process (plain or traced); checks its artifact."""
        self._outputs += 1
        out = self.work / f"out-{self._outputs}.json"
        p = spawn([*argv_head, *cli_argv(self.w, self.spec, out)], cache)
        self.attempted += 1
        if p.rc != 0:
            self.fail(f"{kind}: exit code {p.rc}")
        elif artifact_digest(self.w, out) != self.reference:
            self.fail(f"{kind}: artifact differs from the reference")
        return p, out

    def iteration(self) -> None:
        self.setup_probe()
        cache = Path(tempfile.mkdtemp(prefix="cache-", dir=self.work))
        plain = ["-m", "hallforge.cli"]
        cold, out = self.cli(plain, cache, "cold")
        if cold.rc == 0:
            self.samples["wall_cold_s"].append(cold.wall_s)
            self.samples["peak_rss_mb"].append(cold.rss_mb)
        out.unlink(missing_ok=True)
        self.setup_probe()
        warm, out = self.cli(plain, cache, "warm")
        if warm.rc == 0:
            self.samples["wall_warm_s"].append(warm.wall_s)
        out.unlink(missing_ok=True)
        shutil.rmtree(cache)

    def traced(self) -> dict:
        """One traced cold and one traced warm process: per-layer metrics."""
        cache = Path(tempfile.mkdtemp(prefix="cache-", dir=self.work))
        cold, cold_stats, out = self._traced_cli(cache, "cold")
        cache_files = list(cache.glob("*.jsonl"))  # as the cold run left them
        _, warm_stats, _ = self._traced_cli(cache, "warm")
        dead = [b for b in self.w.expect if cold_stats["bindings"].get(b, 0) == 0]
        if dead:
            raise SystemExit(f"wrapper coverage: no calls through {dead} on {self.w.name}")
        m = dict(cold_stats["metrics"])
        m["files.cache_load_s"] = warm_stats["metrics"]["files.cache_load_s"]
        m["files.cache_records"] = sum(
            len(f.read_text(encoding="utf-8").splitlines()) - 1 for f in cache_files
        )
        m["files.cache_bytes"] = sum(f.stat().st_size for f in cache_files)
        m["files.output_bytes"] = out.stat().st_size
        m["trace_overhead_ratio"] = cold.wall_s / statistics.median(self.samples["wall_cold_s"])
        shutil.rmtree(cache)
        return m

    def _traced_cli(self, cache: Path, kind: str) -> tuple[Proc, dict, Path]:
        stats = self.work / f"trace-{kind}.json"
        head = [str(HERE / "child.py"), "trace", "--stats", str(stats), "--run", kind, "--"]
        p, out = self.cli(head, cache, f"traced {kind}")
        if p.rc != 0 or not stats.exists():
            raise SystemExit(f"traced {kind} run failed (exit code {p.rc})")
        return p, json.loads(stats.read_text(encoding="utf-8")), out


def home_cache_state() -> tuple:
    """What ~/.cache/hallforge looks like, to prove no run touched it."""
    root = Path.home() / ".cache" / "hallforge"
    if not root.exists():
        return ()
    return tuple(sorted((p.name, p.stat().st_size, p.stat().st_mtime_ns) for p in root.iterdir()))


def summarize(name: str, unit: str, values: list[float]) -> str:
    med = statistics.median(values)
    text = f"{name:<14} median {med:.4f} {unit}  min {min(values):.4f}  max {max(values):.4f}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f"  q1 {q1:.4f}  q3 {q3:.4f}"
    return text + f"  n={len(values)}"


def run_workload(w: Workload, seed: int, seconds: int, trace: bool, bench: dict) -> dict:
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))[w.name]
    home_before = home_cache_state()
    load_start = os.getloadavg()[0]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    try:
        run = Run(w, seed, reference, work)
        t0 = time.perf_counter()
        run.setup_probe(record=False)  # compiles the checkout's .pyc files
        iterations, last = 0, 0.0
        while True:
            # stop where the run ends closest to --seconds
            elapsed = time.perf_counter() - t0
            if iterations >= MIN_ITERATIONS and elapsed + last / 2 > seconds:
                break
            if elapsed + last > RUN_LIMIT_S:
                break
            started = time.perf_counter()
            run.iteration()
            iterations += 1
            last = time.perf_counter() - started
        while len(run.samples["setup_s"]) < MIN_SETUP_SAMPLES:
            run.setup_probe()
        layer = run.traced() if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only if no other run is using it
        except OSError:
            pass
    if home_cache_state() != home_before:
        run.fail("~/.cache/hallforge changed during the run")
    env = {
        "python": platform.python_version(),
        "numpy": run.numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
    }
    print(f"workload {w.name}  seed {seed}  trace {int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for name, values in run.samples.items():
        if values:
            print(summarize(name, units[name], values))
    print(f"failed_ratio   {run.failed}/{run.attempted} = {run.failed / run.attempted:.4f}")
    for p in run.problems:
        print(f"FAILED: {p}")
    if any(not values for values in run.samples.values()):
        raise SystemExit(f"{w.name}: no successful sample for some metric: {run.problems}")
    if trace:
        wanted = bench["per_layer"]
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in wanted}
        for name, mv in metrics.items():
            print(f"  {name:<32} {mv['value']:.6g} {mv['unit']}")
    else:
        metrics = {
            name: {"value": statistics.median(run.samples[name]), "unit": unit}
            for name, unit in units.items()
        }
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "hallforge" / "cli.py").is_file():
        print(f"no hallforge sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        n: run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace), bench)
        for n in names
    }
    if args.workload == "all":
        for n, r in results.items():
            print(json.dumps({"workload": n, **r}))
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{k}": mv for n, r in results.items() for k, mv in r["metrics"].items()
            },
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
