"""Compare a workload's commands of two checkouts in one process.

Usage: python tools/ab.py PARENT CHANGE [--rounds N]
           [--workload {enumerate-chordal,query-medium,verify-small}]

One Python process, writing no bytecode into either checkout, loads each
checkout's ``src/mpdagid`` under a package name of its own, so the two
never share a module.  The operations are the admitted ones of the
workload (default enumerate-chordal: 220 ``enumerate -g FILE`` calls), as
CHANGE's ``perfbench/workloads.py`` makes them at seed 1, input files
and all.  Each round runs them through each side's ``cli.main`` in turn,
with stdout and stderr captured, parent first in even-numbered rounds and
change first in odd-numbered ones, and times the whole pass.  Prints
each side's median and quartiles in ms per pass, the rounds the change
won, and whether every ``(rc, stdout, stderr)`` was identical between the
two sides; exits 1 when one was not.  Timings are raw wall-clock seconds
of this process, not scaled.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import os
import statistics
import sys
import tempfile
import time

sys.dont_write_bytecode = True

SEED = 1  # the seed the workload makes its operations from


def load_cli(checkout: str, name: str):
    """``cli`` of ``checkout``'s package, imported as the package ``name``."""
    pkg = os.path.join(os.path.abspath(checkout), "src", "mpdagid")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def run_pass(cli, argvs: list[list[str]]) -> tuple[float, list[tuple]]:
    """Seconds for one pass over ``argvs`` and each call's (rc, stdout, stderr)."""
    outcomes = []
    gc.collect()
    start = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
        outcomes.append((rc, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, outcomes


def _summary(samples: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles([s * 1000 for s in samples], n=4)
    return f"median {q2:.1f} ms (quartiles {q1:.1f}-{q3:.1f})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument(
        "--workload",
        choices=("enumerate-chordal", "query-medium", "verify-small"),
        default="enumerate-chordal",
    )
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2 for quartiles")
    sys.path.insert(0, os.path.join(os.path.abspath(args.change), "perfbench"))
    import workloads

    workloads.bind_checkout()
    sides = {
        "parent": load_cli(args.parent, "mpdagid_parent"),
        "change": load_cli(args.change, "mpdagid_change"),
    }
    times: dict[str, list[float]] = {side: [] for side in sides}
    identical = True
    with tempfile.TemporaryDirectory() as tmp:
        argvs = [op.argv for op in workloads.WORKLOADS[args.workload](SEED, tmp)]
        for r in range(args.rounds):
            order = list(sides) if r % 2 == 0 else list(reversed(sides))
            got = {}
            for side in order:
                seconds, got[side] = run_pass(sides[side], argvs)
                times[side].append(seconds)
            identical &= got["parent"] == got["change"]
    parent, change = times["parent"], times["change"]
    wins = sum(c < p for p, c in zip(parent, change))
    print(f"{args.workload}, {len(argvs)} operations per pass, "
          f"{args.rounds} alternated rounds in one process")
    print(f"  parent: {_summary(parent)}")
    print(f"  change: {_summary(change)}")
    print(f"  change faster in {wins} of {args.rounds} rounds")
    print("  every (rc, stdout, stderr) identical" if identical
          else "  OUTPUTS DIFFER between the two sides")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
