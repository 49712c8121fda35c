"""Compare the start-up time of the command line in two checkouts.

Usage: python tools/startup_ab.py PARENT CHANGE [--pairs N]

Times fresh ``python -m mpdagid.cli close`` processes on a one-edge graph,
alternating the two checkouts (parent first in even-numbered pairs, change
first in odd-numbered ones).  As in perfbench, each time is scaled by fresh
bare ``python -c pass`` processes started just before and just after it:
``took * 2 * BARE_PROCESS_S / (before + after)``.  Prints each side's
median and quartiles in ms, the pairs the change won, and the modules each
side imports beyond a bare interpreter.  Child processes write no bytecode,
so neither checkout gains a ``__pycache__`` that would skew the comparison.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time

from ab import _summary

BARE_PROCESS_S = 0.040  # perfbench/speed.py's reference for a fresh process


def _env(checkout: str | None) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    if checkout is not None:
        env["PYTHONPATH"] = os.path.join(checkout, "src")
    return env


def _run(argv: list[str], checkout: str | None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=checkout, env=_env(checkout),
        capture_output=True, text=True, timeout=60,
    )


def _bare_seconds() -> float:
    start = time.perf_counter()
    _run(["-c", "pass"], None)
    return time.perf_counter() - start


def _close_argv(graph: str) -> list[str]:
    return ["-m", "mpdagid.cli", "close", "-g", graph]


def startup_seconds(checkout: str, graph: str) -> float:
    """One scaled start-up of ``mpdagid close`` from ``checkout``."""
    before = _bare_seconds()
    start = time.perf_counter()
    done = _run(_close_argv(graph), checkout)
    took = time.perf_counter() - start
    if done.returncode != 0 or done.stdout != "A -- B\n":
        raise RuntimeError(f"{checkout}: mpdagid close failed: {done.stderr.strip()}")
    return took * 2 * BARE_PROCESS_S / (before + _bare_seconds())


def imported(argv: list[str], checkout: str | None) -> set[str]:
    """The modules a process imports, read from ``-X importtime``."""
    done = _run(["-X", "importtime", *argv], checkout)
    return {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=40)
    args = ap.parse_args()
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    times: dict[str, list[float]] = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        graph = os.path.join(tmp, "startup.g")
        with open(graph, "w") as fh:
            fh.write("A -- B\n")
        for checkout in sides.values():  # warm the file cache; not timed
            startup_seconds(checkout, graph)
        for pair in range(args.pairs):
            order = list(sides) if pair % 2 == 0 else list(reversed(sides))
            for side in order:
                times[side].append(startup_seconds(sides[side], graph))
        bare = imported(["-c", "pass"], None)
        loaded = {side: imported(_close_argv(graph), c) - bare for side, c in sides.items()}
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    print(f"mpdagid close start-up, {args.pairs} alternated pairs, scaled to a "
          f"{BARE_PROCESS_S * 1000:.0f} ms bare interpreter")
    for side in sides:
        print(f"{side}: {_summary(times[side])}")
    print(f"change faster in {wins} of {args.pairs} pairs")
    for side in sides:
        print(f"{side}: {len(loaded[side])} modules beyond a bare interpreter: "
              + ", ".join(sorted(loaded[side])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
