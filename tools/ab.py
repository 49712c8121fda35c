"""Check and time every benchmark operation of two checkouts in one process.

Usage: python tools/ab.py PARENT CHANGE [--rounds N]

One Python process, writing no bytecode into either checkout, loads each
checkout's ``src/mpdagid`` under a package name of its own, so the two
never share a module.  The operations are every admitted one of the three
workloads, 888 in all, as CHANGE's ``perfbench/workloads.py`` makes them
at seed 1, input files and all.  Each runs through a side's ``cli.main``
with stdout and stderr captured.  An exception it raises becomes the
operation's ``error``, worded ``raised TypeName: message`` as
``workloads.invoke`` words it, so a side that crashes shows as differing
outputs, not as a traceback.

Per workload, one untimed pass per side comes first.  It applies each
operation's own check to its ``workloads.Outcome`` and compares
``(rc, stdout, stderr, error)`` between the sides.  It also pays the
one-time costs (the numpy import, the memo and layout caches) that would
otherwise fall on whichever side runs first in the first timed round.
N timed rounds then run whole passes, parent first in even-numbered
rounds and change first in odd-numbered ones.

Prints, per workload, the operation count, the failed checks on each
side, whether every outcome was identical (naming up to three argvs that
differ), each side's median and quartiles in ms per pass, the rounds
the change won and whether that settles a direction (see ``verdict``).
Exits 1 when an outcome or a failed-check count differs.  Timings are
raw wall-clock seconds of this process, not scaled.
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

SEED = 1  # the seed the workloads make their operations from


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
    """Seconds for one pass over ``argvs`` and each call's
    ``(rc, stdout, stderr, error)``."""
    outcomes = []
    gc.collect()
    start = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        rc = error = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a differing outcome, not a crashed run
            error = f"raised {type(exc).__name__}: {exc}"
        outcomes.append((rc, out.getvalue(), err.getvalue(), error))
    return time.perf_counter() - start, outcomes


def _summary(samples: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles([s * 1000 for s in samples], n=4)
    return f"median {q2:.1f} ms (quartiles {q1:.1f}-{q3:.1f})"


def verdict(parent: list[float], change: list[float]) -> str:
    """``resolved: change faster``, ``resolved: change slower`` or
    ``unresolved`` for the per-pass times of alternated rounds, paired by
    round.  A side is faster only when it wins at least 9 of every 10
    rounds, ties counting for neither, and the two medians differ by more
    than the distance between the parent's quartiles."""
    q1, _, q3 = statistics.quantiles(parent, n=4)
    if abs(statistics.median(change) - statistics.median(parent)) > q3 - q1:
        # At least 9 of every 10 rounds, in integers.
        if 10 * sum(c < p for p, c in zip(parent, change)) >= 9 * len(parent):
            return "resolved: change faster"
        if 10 * sum(c > p for p, c in zip(parent, change)) >= 9 * len(parent):
            return "resolved: change slower"
    return "unresolved"


def compare(name: str, sides: dict, ops: list, rounds: int, workdir: str) -> int:
    """Check ``ops`` once on the ``parent`` and ``change`` sides, time
    ``rounds`` alternated passes and print the summary of workload
    ``name``; 1 when an outcome or the failed-check count differs."""
    from workloads import Outcome

    argvs = [op.argv for op in ops]
    got = {side: run_pass(cli, argvs)[1] for side, cli in sides.items()}
    failed = {  # no check reads the seconds of an Outcome
        side: sum(
            (error or op.check(Outcome(rc, out, err, 0.0, error))) is not None
            for op, (rc, out, err, error) in zip(ops, rows)
        )
        for side, rows in got.items()
    }
    differ = [
        " ".join(argv).replace(workdir, "<workdir>")
        for argv, p, c in zip(argvs, got["parent"], got["change"])
        if p != c
    ]
    print(f"{name}: {len(ops)} operations, failed checks "
          f"parent {failed['parent']}, change {failed['change']}")
    print(f"  OUTPUTS DIFFER on {len(differ)} operations, first: " + "; ".join(differ[:3])
          if differ else "  every (rc, stdout, stderr, error) identical")
    times: dict[str, list[float]] = {side: [] for side in sides}
    for r in range(rounds):
        for side in list(sides) if r % 2 == 0 else reversed(list(sides)):
            times[side].append(run_pass(sides[side], argvs)[0])
    if rounds:
        for side in sides:
            print(f"  {side}: {_summary(times[side])}")
        wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
        print(f"  change faster in {wins} of {rounds} rounds")
        print(f"  {verdict(times['parent'], times['change'])}")
    return int(bool(differ) or failed["parent"] != failed["change"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2 for quartiles")
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(os.path.abspath(args.change), "perfbench"))
    import workloads

    workloads.bind_checkout()
    sides = {
        "parent": load_cli(args.parent, "mpdagid_parent"),
        "change": load_cli(args.change, "mpdagid_change"),
    }
    print(f"seed {SEED}, {args.rounds} alternated rounds per workload in one process")
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, build in workloads.WORKLOADS.items():
            workdir = os.path.join(tmp, name)
            os.mkdir(workdir)
            status |= compare(name, sides, build(SEED, workdir), args.rounds, workdir)
    print("different outputs" if status else "same outputs")
    return status


if __name__ == "__main__":
    sys.exit(main())
