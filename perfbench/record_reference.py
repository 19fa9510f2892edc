"""Write reference.json: the artifact digest of every workload.

    python3 perfbench/record_reference.py

Runs each workload once cold and once warm and stores the digest run.py
checks against.  Cold and warm must agree byte for byte,
and reports must pass, or nothing is written.  Record the reference only
from a commit whose outputs are known to be right (it was first recorded
on the commit that added the benchmark, before any optimisation).
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=run.WORK))
    reference = {}
    try:
        for w in run.WORKLOADS.values():
            spec = work / "spec.json"
            spec.write_text(run.spec_text(w, 0), encoding="utf-8")
            cache = work / f"cache-{w.name}"
            digests = []
            for kind in ("cold", "warm"):
                out = work / f"{kind}.json"
                p = run.spawn(["-m", "hallforge.cli", *run.cli_argv(w, spec, out)], cache)
                digests.append(run.artifact_digest(w, out) if p.rc == 0 else None)
            if digests[0] is None or digests[0] != digests[1]:
                print(f"{w.name}: cold/warm digests {digests}", file=sys.stderr)
                return 1
            reference[w.name] = digests[0]
            print(f"{w.name} {digests[0]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
