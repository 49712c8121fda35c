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
records.  Every count is deterministic; none is a time.
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
import cProfile, collections, json, os, pstats, sys
checkout = sys.argv[1]
sys.path.insert(0, os.path.join(checkout, "src"))
from mpdagid import Pdag, meek, oracle, parse_graph
with open(os.path.join(checkout, "perfbench", "golden", "enumerate-chordal.json")) as f:
    texts = [c["text"] for c in json.load(f)["ops"] if c["admitted"]]
counts = collections.Counter()
phase = "inputs"

def counted(name, f):
    def wrapped(*args, **kwargs):
        counts[(name, phase)] += 1
        return f(*args, **kwargs)
    return wrapped

removal_order, close = meek._removal_order, meek.close
reverse_demand, which_rule = meek._check_no_reverse_demand, meek._which_rule
trusted = Pdag.__dict__["_trusted"]
meek._removal_order = counted("removal passes", removal_order)
meek._check_no_reverse_demand = counted("reverse-demand checks", reverse_demand)
meek._which_rule = counted("rule evaluations", which_rule)
Pdag._trusted = classmethod(counted("trusted layouts", trusted.__func__))
meek.close = counted("closes", close)
# The walk calls close by name in the module that defines it.
walker = sys.modules[oracle.enumerate_dags.__module__]
walker.close = meek.close
roots = []
for text in texts:
    phase = "inputs"
    roots.append(meek.close(parse_graph(text)))
    phase = "branches"
    dags = oracle.enumerate_dags(roots[-1])
    counts[("dags", "")] += len(dags)
meek._removal_order, meek.close, walker.close = removal_order, close, close
meek._check_no_reverse_demand, meek._which_rule = reverse_demand, which_rule
Pdag._trusted = trusted

def walk():
    for g in roots:
        for d in oracle.enumerate_dags(g):
            d.to_edgelist()

# Fresh roots, so that no rank a counted pass memoised is reused.
roots = [meek.close(parse_graph(text)) for text in texts]
profile = cProfile.Profile()
profile.runcall(walk)
report = {" ".join(filter(None, k)): v for k, v in sorted(counts.items())}
report["graphs"] = len(texts)
report["profiled calls"] = pstats.Stats(profile).total_calls
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
