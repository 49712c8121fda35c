"""Compare the input layers of the command line in two checkouts.

Usage: python tools/input_ab.py PARENT CHANGE [--rounds N] [--seed S] [--passes P]

Each round starts one fresh process per checkout (parent first in
even-numbered rounds, change first in odd-numbered ones).  That process
writes no bytecode, imports the checkout's own ``src/`` and
``perfbench/workloads.py``, lets the workloads make the query-medium data
sets for ``--seed`` exactly as a benchmark run does, and times, best of
``--passes`` passes each:

- ``Dataset.from_csv`` over every query-medium data set;
- ``parse_graph`` over the recorded graph of every admitted operation of
  each workload (query-medium also parses its knowledge files).

Prints, per layer, each side's median and quartiles in ms per pass and
the rounds the change won.  The two sides must read every input to the
same columns, rows and graphs; a digest of what each side read is
compared, and a difference stops the comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

# Runs in the checkout, in a fresh interpreter: argv is seed and passes.
CHILD = r"""
import hashlib, json, sys, tempfile, time
sys.path.insert(0, "perfbench")
import workloads
workloads.bind_checkout()
from mpdagid import parse_graph
from mpdagid.estimate import Dataset

seed, passes = int(sys.argv[1]), int(sys.argv[2])
with tempfile.TemporaryDirectory() as tmp:
    golden = workloads.load_golden("query-medium")
    graphs = {g["id"]: g for g in golden["graphs"]}
    inputs = workloads.QueryInputs(seed, tmp)
    for c in workloads.admitted("query-medium", seed):
        inputs.op(c, graphs[c["graph"]])
    data = []
    for path in inputs.data.values():
        with open(path, encoding="utf-8") as fh:
            data.append(fh.read())
texts = {
    "verify-small": [c["text"] for c in workloads.admitted("verify-small", seed)],
    "query-medium": [graphs[c["graph"]]["text"] for c in workloads.admitted("query-medium", seed)]
    + [g["bk"] for g in golden["graphs"] if g["bk"]],
    "enumerate-chordal": [c["text"] for c in workloads.admitted("enumerate-chordal", seed)],
}

def best(fn, items):
    took = []
    for _ in range(passes):
        start = time.perf_counter()
        for item in items:
            fn(item)
        took.append(time.perf_counter() - start)
    return min(took)

digest = hashlib.sha256()
for text in data:
    d = Dataset.from_csv(text)
    digest.update(repr(d.columns).encode() + d.rows.tobytes())
for items in texts.values():
    for text in items:
        g = parse_graph(text)
        digest.update(repr((g.nodes, sorted(g.directed), sorted(g.undirected))).encode())
times = {f"Dataset.from_csv over {len(data)} query-medium data sets": best(Dataset.from_csv, data)}
for workload, items in texts.items():
    times[f"parse_graph over {len(items)} {workload} graphs"] = best(parse_graph, items)
print(json.dumps({"times": times, "digest": digest.hexdigest()}))
"""


def measure(checkout: str, seed: int, passes: int) -> dict:
    """One fresh process's best times, in seconds per pass, and digest."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(seed), str(passes)],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def _summary(samples: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles([s * 1000 for s in samples], n=4)
    return f"median {q2:.2f} ms (quartiles {q1:.2f}-{q3:.2f})"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=5)
    args = ap.parse_args()
    if args.rounds < 2:
        ap.error("--rounds must be at least 2 for quartiles")
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    times: dict[str, dict[str, list[float]]] = {side: {} for side in sides}
    for r in range(args.rounds):
        order = list(sides) if r % 2 == 0 else list(reversed(sides))
        got = {side: measure(sides[side], args.seed, args.passes) for side in order}
        if got["parent"]["digest"] != got["change"]["digest"]:
            print("the two checkouts read the inputs differently", file=sys.stderr)
            return 1
        for side in sides:
            for layer, t in got[side]["times"].items():
                times[side].setdefault(layer, []).append(t)
    print(f"input layers, {args.rounds} alternated rounds, seed {args.seed}, "
          f"best of {args.passes} passes per fresh process; same inputs read alike")
    for layer in times["parent"]:
        parent, change = times["parent"][layer], times["change"][layer]
        wins = sum(c < p for p, c in zip(parent, change))
        print(f"{layer}:")
        print(f"  parent: {_summary(parent)}")
        print(f"  change: {_summary(change)}")
        print(f"  change faster in {wins} of {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
