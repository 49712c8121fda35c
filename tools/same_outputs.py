"""Check that two checkouts give the same output on every benchmark operation.

Usage: python tools/same_outputs.py PARENT CHANGE [--seed N]

For each checkout one Python process imports that checkout's
``perfbench/workloads.py`` (writing no bytecode there), builds every
admitted operation of the three workloads in a temporary directory, runs
each operation in process and applies its check.  Per workload and
checkout it prints the operation count, the number of failed checks and a
SHA-256 over the (kind, rc, stdout, stderr) of every operation, with the
temporary directory masked.  Exits 1 on any difference between the two
checkouts, naming the first operations that differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

# Runs in the checkout's own interpreter process: argv is [checkout, seed].
_CHILD = r"""
import hashlib, json, os, shutil, sys, tempfile
checkout, seed = sys.argv[1], int(sys.argv[2])
sys.path.insert(0, os.path.join(checkout, "perfbench"))
import workloads
workloads.bind_checkout()
report = {}
for name, build in workloads.WORKLOADS.items():
    workdir = tempfile.mkdtemp(prefix="same-outputs-")
    try:
        ops = build(seed, workdir)
        rows, failed = [], 0
        for op in ops:
            o = workloads.invoke(op.argv)
            failed += (o.error or op.check(o)) is not None
            masked = [s.replace(workdir, "<workdir>") for s in (o.stdout, o.stderr, o.error or "")]
            row = json.dumps([op.kind, o.rc, *masked])
            argv = " ".join(op.argv).replace(workdir, "<workdir>")
            rows.append((hashlib.sha256(row.encode()).hexdigest(), argv))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report[name] = {"ops": len(rows), "failed": failed, "rows": rows}
json.dump(report, sys.stdout)
"""


def outputs(checkout: str, seed: int) -> dict:
    """The child's report for ``checkout``, run from a scratch directory."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run(
            [sys.executable, "-B", "-c", _CHILD, os.path.abspath(checkout), str(seed)],
            cwd=cwd, env=env, capture_output=True, text=True,
        )
    if done.returncode != 0:
        sys.exit(f"{checkout}: the operations did not run:\n{done.stderr}")
    return json.loads(done.stdout)


def digest(rows: list) -> str:
    return hashlib.sha256("".join(h for h, _ in rows).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    before, after = outputs(args.parent, args.seed), outputs(args.change, args.seed)
    differ = False
    for name in sorted(set(before) | set(after)):
        missing = {"ops": 0, "failed": 0, "rows": []}
        old, new = before.get(name, missing), after.get(name, missing)
        for label, side in (("parent", old), ("change", new)):
            print(f"{name:18} {label}: {side['ops']} ops, {side['failed']} failed checks, "
                  f"sha256 {digest(side['rows'])}")
        if (old["failed"], old["rows"]) != (new["failed"], new["rows"]):
            differ = True
            changed = [a for a, b in zip(old["rows"], new["rows"]) if a != b]
            print(f"{name:18} DIFFERS: {len(changed)} operations, first: "
                  + "; ".join(argv for _, argv in changed[:3]))
    print("different outputs" if differ else "same outputs")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
