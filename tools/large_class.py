"""Time ``verify`` and ``enumerate`` on large Markov equivalence classes in
two checkouts.

Usage: python tools/large_class.py PARENT CHANGE [--rounds N]

Writes four graphs into a scratch directory: X -> every node of an
undirected clique K_k for k = 6, 7 and 8 (k! DAGs, one X-family group),
and an undirected K_8 holding X plus X -> Y (40,320 DAGs, 128 X-family
groups, one per parent set of X).  On each graph it runs ``mpdagid
verify`` and ``mpdagid enumerate`` from each checkout, every run in a
fresh ``python -B -m mpdagid.cli`` process with ``PYTHONDONTWRITEBYTECODE``
set, so neither checkout gains a ``__pycache__``.  The sides alternate:
parent first in even-numbered rounds and change first in odd-numbered
ones.  Each child's peak RSS is read from ``os.wait4`` on that child
alone (``RUSAGE_CHILDREN`` is a running maximum over every waited
child, so it would carry an earlier run's peak into a later one).

Prints, per graph and command, each side's median wall time, the
parent/change ratio of the medians, each side's largest peak RSS and
whether ``(rc, stdout)`` was identical in every run.  Exits 1 when an
outcome differs between the sides or between rounds.  Times are raw
wall-clock seconds, not scaled.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import statistics
import subprocess
import sys
import tempfile
import time


def x_into_clique(k: int) -> str:
    """X -> every node of an undirected clique over V1..Vk."""
    clique = [f"V{i}" for i in range(1, k + 1)]
    lines = [f"X -> {v}" for v in clique]
    lines += [f"{a} -- {b}" for a, b in itertools.combinations(clique, 2)]
    return "\n".join(lines) + "\n"


def clique_holding_x(k: int) -> str:
    """An undirected clique over X and V1..V(k-1), plus X -> Y."""
    clique = ["X", *(f"V{i}" for i in range(1, k))]
    lines = [f"{a} -- {b}" for a, b in itertools.combinations(clique, 2)]
    return "\n".join([*lines, "X -> Y"]) + "\n"


# name -> (graph text, the response node of ``verify``)
GRAPHS = {
    **{f"x-into-k{k}": (x_into_clique(k), "V1") for k in (6, 7, 8)},
    "k8-holding-x": (clique_holding_x(8), "Y"),
}


def cases(paths: dict[str, str]) -> list[tuple[str, list[str]]]:
    """``(label, cli argv)`` for every graph and command, given each
    graph's file path by name."""
    out = []
    for name, (_, y) in GRAPHS.items():
        out.append((f"{name} verify", ["verify", "-g", paths[name], "-X", "X", "-Y", y]))
        out.append((f"{name} enumerate", ["enumerate", "-g", paths[name]]))
    return out


def run_child(checkout: str, argv: list[str], cwd: str) -> tuple[float, float, tuple]:
    """Wall seconds, peak RSS in MB and ``(rc, sha256 of stdout)`` of one
    fresh ``mpdagid`` process from ``checkout``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.path.join(checkout, "src")
    with tempfile.TemporaryFile(dir=cwd) as out:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-B", "-m", "mpdagid.cli", *argv],
            cwd=cwd, env=env, stdout=out, stderr=subprocess.DEVNULL,
        )
        _, status, usage = os.wait4(child.pid, 0)
        took = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
    return took, usage.ru_maxrss / 1024, (child.returncode, digest)


def summarize(runs: dict[str, list[tuple[float, float, tuple]]]) -> tuple[str, bool]:
    """One report line for the runs of one case, by side, and whether every
    outcome of both sides was one and the same."""
    med = {side: statistics.median(r[0] for r in rs) for side, rs in runs.items()}
    rss = {side: max(r[1] for r in rs) for side, rs in runs.items()}
    same = len({r[2] for rs in runs.values() for r in rs}) == 1
    line = (
        f"parent {med['parent']:.2f} s, {rss['parent']:.0f} MB; "
        f"change {med['change']:.2f} s, {rss['change']:.0f} MB; "
        f"{med['parent'] / med['change']:.1f}x; "
        + ("stdout identical" if same else "OUTPUTS DIFFER")
    )
    return line, same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, (text, _) in GRAPHS.items():
            paths[name] = os.path.join(tmp, f"{name}.g")
            with open(paths[name], "w") as fh:
                fh.write(text)
        print(f"{args.rounds} alternated rounds, fresh processes, medians of wall time")
        for label, cli_argv in cases(paths):
            runs: dict[str, list] = {side: [] for side in sides}
            for r in range(args.rounds):
                for side in list(sides) if r % 2 == 0 else reversed(list(sides)):
                    runs[side].append(run_child(sides[side], cli_argv, tmp))
            line, same = summarize(runs)
            print(f"{label:26} {line}", flush=True)
            status |= not same
    return status


if __name__ == "__main__":
    sys.exit(main())
