"""Each benchmark workload's traced run still covers the code.

perfbench/run.py --trace 1 stops with "wrapper coverage" when a binding its
workload expects is never called, and perfbench/child.py fails when the
tracer's counter identities break.  This runs that traced cold process once
per workload from the test suite, so a refactor shows here and not first in
a benchmark run.  It reads perfbench/ and changes nothing there.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_workload_reaches_every_expected_binding(tmp_path, name):
    w = run.WORKLOADS[name]
    spec = tmp_path / "spec.json"
    spec.write_text(run.spec_text(w, 1), encoding="utf-8")
    stats, out = tmp_path / "trace.json", tmp_path / "out.json"
    env = dict(os.environ, PYTHONPATH=str(run.SRC), HALLFORGE_CACHE_DIR=str(tmp_path / "cache"))
    argv = [
        sys.executable, str(run.HERE / "child.py"), "trace", "--stats", str(stats),
        "--run", "cold", "--", *run.cli_argv(w, spec, out),
    ]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    # child.py raises TraceError, and exits non-zero, on a broken identity
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(stats.read_text(encoding="utf-8"))
    assert [b for b in w.expect if doc["bindings"].get(b, 0) == 0] == []
    m = doc["metrics"]
    assert m["hall.cache_hits"] + m["hall.cache_misses"] == m["hall.ext_data_calls"]
    assert m["hall.raw_ext_data_calls"] == m["hall.cache_misses"] > 0
    outcomes = ("quiver.classify_enc_hit", "quiver.classify_iso_hit", "quiver.classify_new")
    assert sum(m[k] for k in outcomes) == m["quiver.classify_calls"] > 0
    if name == "bounded-dh-table":
        # every Ext^1 class of a cold run gives one middle, and every middle
        # is stripped; the other 16 strips are iso_test_cx's, while the grid
        # is enumerated
        assert (m["complexes.middles"], m["complexes.strip_calls"]) == (1725, 1741)
    reference = json.loads((run.HERE / "reference.json").read_text(encoding="utf-8"))[w.name]
    assert run.artifact_digest(w, out) == reference
