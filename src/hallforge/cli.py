"""Command line workbench.

    hallforge product   --spec S.json [--algebra NAME] x.json y.json
    hallforge table     --spec S.json --dim-cap CAP [--algebra NAME]
    hallforge normalize --spec S.json x.json
    hallforge verify    --spec S.json --dim-cap CAP SUITE

Exit codes: 0 success (verify: pass), 1 verify failure, 2 invalid spec,
file, or argument combination, 3 enumeration cap breach, 4 product
undefined on the backend (no total, relative, or derived Euler data).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import files
from .errors import (
    CapError,
    DerivedUndefined,
    EulerUndefined,
    HallforgeError,
    RelEulerUndefined,
    SpecError,
)
from .suites import SUITES, run_suite


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hallforge",
        description="Exact Hall algebra computations over finite fields.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, algebra=False, dim_cap=False):
        p.add_argument("--spec", required=True, help="category spec file (JSON)")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument(
            "--no-cache",
            action="store_true",
            help="recompute structure constants (fresh ones still land in the cache)",
        )
        if algebra:
            p.add_argument(
                "--algebra",
                default="hall",
                choices=list(files.ALGEBRAS),
                help="which product to use (default: hall)",
            )
        if dim_cap:
            p.add_argument(
                "--dim-cap",
                required=True,
                help="per-vertex/per-degree cap, e.g. '1', '1,1', or 'total:2'",
            )

    p = sub.add_parser("product", help="multiply two element files")
    common(p, algebra=True)
    p.add_argument("x", help="left element file")
    p.add_argument("y", help="right element file")

    p = sub.add_parser("table", help="full multiplication table over a grid")
    common(p, algebra=True, dim_cap=True)

    p = sub.add_parser("normalize", help="rewrite a strict element onto the torus basis")
    common(p)
    p.add_argument("x", help="element file over the strict complex classes")

    p = sub.add_parser("verify", help="run a verification suite")
    common(p, dim_cap=True)
    p.add_argument("suite", choices=list(SUITES), help="which suite to run")
    return ap


def _emit(doc: dict, out) -> None:
    """Write doc, as it is serialised, into the file out or to stdout."""
    if not out:
        try:
            files.dump_doc(doc, sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError as e:
            # the reader is gone: point stdout at devnull so the flush at exit
            # has nowhere to fail
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise SpecError(f"cannot write stdout: {e.strerror}")
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            files.dump_doc(doc, fh)
    except OSError as e:
        raise SpecError(f"cannot write --out {out}: {e.strerror}")


def cmd_product(args) -> int:
    spec = files.load_spec(args.spec)
    cache = files.open_cache(spec, no_cache=args.no_cache)
    try:
        handle = files.AlgebraHandle(spec, args.algebra, cache=cache)
        x = files.read_element(args.x, handle)
        y = files.read_element(args.y, handle)
        _emit(files.element_doc(handle, handle.product(x, y)), args.out)
    finally:
        cache.close()
    return 0


def cmd_table(args) -> int:
    spec = files.load_spec(args.spec)
    cap = files.parse_dim_cap(spec, args.dim_cap)
    cache = files.open_cache(spec, no_cache=args.no_cache)
    try:
        handle = files.AlgebraHandle(spec, args.algebra, cache=cache)
        _emit(files.compute_table(handle, cap), args.out)
    finally:
        cache.close()
    return 0


def cmd_normalize(args) -> int:
    spec = files.load_spec(args.spec)
    cache = files.open_cache(spec, no_cache=args.no_cache)
    try:
        handle = files.AlgebraHandle(spec, "sdh", cache=cache)
        x = files.read_element(args.x, handle, family="strict")
        _emit(files.element_doc(handle, handle.sdh.normalize_element(x)), args.out)
    finally:
        cache.close()
    return 0


def cmd_verify(args) -> int:
    spec = files.load_spec(args.spec)
    cap = files.parse_dim_cap(spec, args.dim_cap)
    cache = files.open_cache(spec, no_cache=args.no_cache)
    try:
        report = run_suite(spec, args.suite, cap, cache=cache)
    finally:
        cache.close()
    # the file first: a failing stdout must not cost the report
    if args.out:
        _emit(report, args.out)
    _emit(report, None)
    return 0 if report["status"] == "pass" else 1


_COMMANDS = {
    "product": cmd_product,
    "table": cmd_table,
    "normalize": cmd_normalize,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (EulerUndefined, RelEulerUndefined, DerivedUndefined) as e:
        print(f"error[{e.code}]: {e}", file=sys.stderr)
        return 4
    except CapError as e:
        print(f"error[{e.code}]: {e}", file=sys.stderr)
        return 3
    except SpecError as e:
        print(f"error[{e.code}]: {e}", file=sys.stderr)
        return 2
    except HallforgeError as e:
        # window overflows and anything else domain-shaped: bad combination
        print(f"error[{e.code}]: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
