"""Count the checks enumeration runs in two checkouts.

Usage: python tools/enum_checks.py PARENT CHANGE

For each checkout one Python process imports that checkout's ``src/``
(writing no bytecode there) and, over the 220 graphs of the
enumerate-chordal workload (``perfbench/golden/enumerate-chordal.json``),
closes each input as the CLI does, then enumerates its DAGs and renders
them.  It prints, per checkout: the ``meek.close`` calls, the
``meek._removal_order`` passes, the ``meek._check_no_reverse_demand``
calls, the ``meek._which_rule`` evaluations and the graphs laid out
through ``Pdag._trusted``, each split into the inputs' own closures and
the walk of enumeration (its branch closes and leaves); the DAGs; and
the function calls a cProfile of ``enumerate_dags`` plus ``to_edgelist``
records.  The split counts are the ``pstats`` call counts of two
cProfile runs, one per phase, so no function is replaced.  Every count
is deterministic; none is a time.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

# Runs in the checkout's own interpreter process: argv is [checkout].
_CHILD = r"""
import cProfile, json, os, pstats, sys
checkout = sys.argv[1]
package = os.path.join(checkout, "src", "mpdagid")
sys.path.insert(0, os.path.dirname(package))
from mpdagid import meek, oracle, parse_graph
with open(os.path.join(checkout, "perfbench", "golden", "enumerate-chordal.json")) as f:
    texts = [c["text"] for c in json.load(f)["ops"] if c["admitted"]]
COUNTED = {
    "close": "closes",
    "_removal_order": "removal passes",
    "_check_no_reverse_demand": "reverse-demand checks",
    "_which_rule": "rule evaluations",
    "_trusted": "trusted layouts",
}
phases = {"inputs": cProfile.Profile(), "branches": cProfile.Profile()}
roots, dags = [], 0
for text in texts:
    roots.append(phases["inputs"].runcall(lambda: meek.close(parse_graph(text))))
    dags += len(phases["branches"].runcall(oracle.enumerate_dags, roots[-1]))

def walk():
    for g in roots:
        for d in oracle.enumerate_dags(g):
            d.to_edgelist()

profile = cProfile.Profile()
profile.runcall(walk)
report = {"graphs": len(texts), "dags": dags, "profiled calls": pstats.Stats(profile).total_calls}
for phase, phase_profile in phases.items():
    for (filename, _, name), (_, calls, *_) in pstats.Stats(phase_profile).stats.items():
        if name in COUNTED and filename.startswith(package):
            row = f"{COUNTED[name]} {phase}"
            report[row] = report.get(row, 0) + calls
json.dump(report, sys.stdout)
"""

ROWS = (
    "graphs",
    "closes inputs",
    "closes branches",
    "removal passes inputs",
    "removal passes branches",
    "reverse-demand checks inputs",
    "reverse-demand checks branches",
    "rule evaluations inputs",
    "rule evaluations branches",
    "trusted layouts inputs",
    "trusted layouts branches",
    "dags",
    "profiled calls",
)


def counts(checkout: str) -> dict:
    """The child's report for ``checkout``, run from a scratch directory."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run(
            [sys.executable, "-B", "-c", _CHILD, os.path.abspath(checkout)],
            cwd=cwd, env=env, capture_output=True, text=True,
        )
    if done.returncode != 0:
        sys.exit(f"{checkout}: the enumeration did not run:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    args = p.parse_args(argv)
    before, after = counts(args.parent), counts(args.change)
    print(f"{'':30} {'parent':>10} {'change':>10}")
    for row in ROWS:
        print(f"{row:30} {before.get(row, 0):>10,} {after.get(row, 0):>10,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
