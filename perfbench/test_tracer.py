"""Tests of the benchmark's own machinery, on grids small enough to run in
seconds: the tracer's counter identities, its coverage of `from ... import`
bindings, and the inputs and references behind the correctness gate.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import GROUPS, Tracer, TraceError  # noqa: E402

A2 = {"format_version": 1, "field": {"q": 2}, "quiver": {"vertices": 2, "arrows": [[1, 2]]}}
TINY = {
    "verify": ({**A2, "backend": "abelian"}, ["verify", "associativity", "--dim-cap", "1"]),
    "table": (
        {**A2, "backend": "bounded", "window": [0, 1]},
        ["table", "--algebra", "hall", "--dim-cap", "total:2"],
    ),
}


def traced(tmp_path: Path, case: str, kind: str) -> dict:
    spec_doc, words = TINY[case]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spec_doc), encoding="utf-8")
    stats = tmp_path / f"{kind}.json"
    env = dict(os.environ, PYTHONPATH=str(run.SRC), HALLFORGE_CACHE_DIR=str(tmp_path / "cache"))
    argv = [
        sys.executable, str(run.HERE / "child.py"), "trace", "--stats", str(stats),
        "--run", kind, "--", *words, "--spec", str(spec), "--out", str(tmp_path / "out.json"),
    ]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(stats.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(TINY))
def test_counter_identities_cold_and_warm(tmp_path, case):
    for kind in ("cold", "warm"):
        m = traced(tmp_path, case, kind)["metrics"]
        assert m["hall.ext_data_calls"] > 0
        assert m["hall.cache_hits"] + m["hall.cache_misses"] == m["hall.ext_data_calls"]
        assert m["quiver.classify_calls"] > 0
        assert (
            m["quiver.classify_enc_hit"] + m["quiver.classify_iso_hit"] + m["quiver.classify_new"]
            == m["quiver.classify_calls"]
        )
        if kind == "cold":
            assert m["hall.raw_ext_data_calls"] == m["hall.cache_misses"] > 0
        else:
            assert m["hall.raw_ext_data_calls"] == m["hall.cache_misses"] == 0


def test_from_import_bindings_are_traced(tmp_path):
    bindings = traced(tmp_path, "verify", "cold")["bindings"]
    # hall.py and suites.py import these by name; a wrapper on the
    # defining module alone would leave these counters at zero
    assert bindings["suites.verify_associativity"] > 0
    assert bindings["hall.iso_test"] > 0
    assert bindings["hall.ext1_space"] > 0


def test_unresolved_classification_is_loud():
    tracer = Tracer()
    for names in GROUPS.values():
        for name in names:
            tracer.stats[name] = [0, 0.0, 0.0]
    # a classification resolved neither by encoding, iso test nor a new
    # class, as a registry keyed some other way would do
    tracer.stats["quiver.Registry.classify"][0] = 1
    with pytest.raises(TraceError, match="classify"):
        tracer.check_identities(cold=True)


def test_spec_layout_follows_the_seed():
    for w in run.WORKLOADS.values():
        texts = {run.spec_text(w, seed) for seed in range(8)}
        assert run.spec_text(w, 3) == run.spec_text(w, 3)
        assert len(texts) > 1
        assert all(json.loads(text) == w.spec for text in texts)


def test_every_workload_has_a_reference():
    reference = json.loads((run.HERE / "reference.json").read_text(encoding="utf-8"))
    assert sorted(reference) == sorted(run.WORKLOADS)
