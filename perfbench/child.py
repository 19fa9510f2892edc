"""Child processes of the benchmark; run.py starts one per measurement.

    python3 perfbench/child.py setup --spec S --algebra A --dim-cap C
        The set-up path of a CLI command in a fresh interpreter: import
        hallforge, load the spec, build the AlgebraHandle and enumerate the
        grid (files.basis_keys).  Prints one JSON line with the time that
        took (interpreter start and exit excluded), the grid size, where
        hallforge was imported from and the numpy version.

    python3 perfbench/child.py trace --stats OUT --run cold|warm -- CLI ARGS
        One `hallforge` CLI command with the tracer installed.  Checks the
        counter identities and writes the per-layer metrics and per-binding
        call counts to OUT.  Exits with the command's exit code.

Both import hallforge from PYTHONPATH, which run.py points at the
checkout's `src`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def setup(args) -> int:
    t0 = time.perf_counter()
    from hallforge import files

    spec = files.load_spec(args.spec)
    handle = files.AlgebraHandle(spec, args.algebra)
    keys = files.basis_keys(handle, files.parse_dim_cap(spec, args.dim_cap))
    setup_s = time.perf_counter() - t0
    import numpy

    print(json.dumps({
        "setup_s": setup_s,
        "classes": len(keys),
        "hallforge": files.__file__,
        "numpy": numpy.__version__,
    }))
    return 0


def trace(args) -> int:
    tracer = Tracer()
    tracer.install()
    from hallforge import cli

    rc = cli.main(args.argv)
    tracer.check_identities(cold=args.run == "cold")
    doc = {"metrics": tracer.metrics(), "bindings": tracer.bindings}
    Path(args.stats).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return rc


def main() -> int:
    ap = argparse.ArgumentParser(prog="child.py")
    sub = ap.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--spec", required=True)
    p.add_argument("--algebra", required=True)
    p.add_argument("--dim-cap", required=True)
    p = sub.add_parser("trace")
    p.add_argument("--stats", required=True)
    p.add_argument("--run", choices=("cold", "warm"), required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    if args.mode == "setup":
        return setup(args)
    if args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return trace(args)


if __name__ == "__main__":
    sys.exit(main())
