"""Benchmark of the mpdagid command line, driven in process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed 1

One client runs one operation (one ``mpdagid.cli.main`` call) at a time
in this process: a closed loop.  The operations are made from ``--seed``
(see ``workloads.py``) and every output is checked.  The run repeats
passes over the operations until ``--seconds`` have gone by, and times a
fresh ``mpdagid close`` process between operations every 1.5 s.  Times
are scaled to the machine's fast state (``speed.py``).

With ``--trace 0`` the last line of stdout reports the end-to-end
metrics; with ``--trace 1`` one more pass runs with every function of
``layers.TRACED`` wrapped, and the last line reports the per-layer
metrics, the tracing overhead, and fails the run when a function that the
workload must call recorded no call.  ``--workload all`` runs each
workload in its own process and prints every metric with its unit.  The
exit code is 0 only when every output was right.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread, set before numpy loads here or in a child: OpenBLAS
# otherwise starts a thread per core whose spinning, on a two-core
# machine, competes with the measured process and doubles the variance of
# cli_startup_ms.  The matrices of the package are too small to gain from
# more threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import speed  # noqa: E402
import workloads  # noqa: E402
from layers import DERIVED, TRACED  # noqa: E402

SETUP_REPEATS = 5
SETUP_REFERENCES = 5  # speed references timed before and after each set-up
STARTUP_EVERY_S = 1.5  # a fresh process is timed for cli_startup_ms this often
STARTUP_MIN = 9


def setup(name: str, seed: int, tag: str) -> tuple[list[workloads.Op], str]:
    """Make the inputs, write them, and warm up on the cheapest operation
    of each kind.  Returns the operations and their directory."""
    workdir = os.path.join(workloads.OUT, f"work-{name}-{os.getpid()}-{tag}")
    os.makedirs(workdir)
    ops = workloads.WORKLOADS[name](seed, workdir)
    cheapest: dict[str, workloads.Op] = {}
    for op in ops:
        if op.kind not in cheapest or op.cost < cheapest[op.kind].cost:
            cheapest[op.kind] = op
    for op in cheapest.values():
        workloads.invoke(op.argv)
    return ops, workdir


def timed_setup(name: str, seed: int) -> float:
    """Seconds to import the package and set up, in a fresh process,
    scaled by the speed reference timed before and after (``speed.py``)."""
    refs = [speed.reference_seconds() for _ in range(SETUP_REFERENCES)]
    start = time.perf_counter()
    workloads.bind_checkout()
    import mpdagid.cli  # noqa: F401

    took = time.perf_counter() - start
    import oracles  # noqa: F401  (the benchmark's checker, not timed)

    start = time.perf_counter()
    _, workdir = setup(name, seed, "timed")
    took += time.perf_counter() - start
    shutil.rmtree(workdir)
    refs += [speed.reference_seconds() for _ in range(SETUP_REFERENCES)]
    return took * speed.REFERENCE_S / statistics.median(refs)


def setup_seconds(name: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up of {name} failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


class Loop:
    """Runs operations, checks each output, and keeps the tallies."""

    def __init__(self, ops: list[workloads.Op]):
        self.ops = ops
        self.latencies: dict[int, list[float]] = {i: [] for i in range(len(ops))}
        self.attempted = 0
        self.failures: list[str] = []
        self._good: dict[int, tuple] = {}  # op index -> output already checked

    def one_pass(self, tracer=None, between=None, until=float("inf")) -> float:
        """Runs the operations in order, calling ``between`` after each, and
        stops early once ``time.perf_counter()`` passes ``until``.  Each
        latency is scaled by the speed reference timed just before and
        just after the operation (see ``speed.py``); returns their sum."""
        busy = 0.0
        for i, op in enumerate(self.ops):
            if time.perf_counter() >= until:
                break
            if tracer is not None:
                tracer.op = i
            before = speed.reference_seconds()
            o = workloads.invoke(op.argv)
            latency = o.seconds * 2 * speed.REFERENCE_S / (before + speed.reference_seconds())
            if tracer is not None:
                tracer.op = None
            busy += latency
            self.attempted += 1
            seen = (o.rc, o.stdout, o.stderr)
            bad = o.error or (None if self._good.get(i) == seen else op.check(o))
            if bad:
                self.failures.append(f"{op.kind} {' '.join(op.argv)}: {bad}")
                continue
            self._good[i] = seen
            if tracer is None:
                self.latencies[i].append(latency)
            if between is not None:
                between()
        return busy

    def run(self, seconds: float, between=None) -> float:
        """One whole pass, then more until ``seconds`` have gone by, the
        last cut short at that time; calls ``between`` after each
        operation.  Returns the number of passes, the last as a fraction."""
        start = time.perf_counter()
        self.one_pass(between=between)
        passes = 1.0
        while time.perf_counter() - start < seconds:
            before = self.attempted
            self.one_pass(between=between, until=start + seconds)
            passes += (self.attempted - before) / len(self.ops)
        return passes

    def typical_ms(self) -> list[float]:
        """Each operation's median scaled latency over the passes, in ms."""
        return sorted(statistics.median(v) * 1000 for v in self.latencies.values() if v)


class StartupSampler:
    """Called after each operation: times a fresh ``mpdagid close`` process
    when ``STARTUP_EVERY_S`` have gone by since the last one, so that the
    samples spread over the whole run."""

    def __init__(self, graph: str):
        self.graph = graph
        self.samples: list[float] = []
        self.due = time.perf_counter()

    def __call__(self) -> None:
        if time.perf_counter() >= self.due:
            self.sample()
            self.due = time.perf_counter() + STARTUP_EVERY_S

    def sample(self) -> None:
        self.samples.append(startup_seconds(self.graph))


def startup_seconds(graph: str) -> float:
    """Wall time of one fresh ``python -m mpdagid.cli close`` process,
    scaled by the time of fresh bare interpreters started just before and
    just after it (see ``speed.py``)."""
    before = speed.bare_process_seconds()
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "mpdagid.cli", "close", "-g", graph],
        cwd=workloads.ROOT, env=dict(os.environ, PYTHONPATH=workloads.SRC),
        capture_output=True, text=True, timeout=60,
    )
    took = time.perf_counter() - start
    if done.returncode != 0 or done.stdout != "A -- B\n":
        raise RuntimeError(f"mpdagid close on a tiny graph failed: {done.stderr.strip()}")
    return took * 2 * speed.BARE_PROCESS_S / (before + speed.bare_process_seconds())


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(workloads.OUT, exist_ok=True)
    setups = [] if trace else [setup_seconds(name, seed) for _ in range(SETUP_REPEATS)]
    ops, workdir = setup(name, seed, "run")
    try:
        loop = Loop(ops)
        tiny = os.path.join(workdir, "startup.g")
        with open(tiny, "w") as fh:
            fh.write("A -- B\n")
        startups = StartupSampler(tiny)
        passes = loop.run(seconds, None if trace else startups)
        metrics: dict[str, tuple[float, str]] = {}
        uncovered: list[str] = []
        if trace:
            untraced_s = sum(statistics.median(v) for v in loop.latencies.values() if v)
            metrics, uncovered = traced_pass(name, loop, untraced_s)
        typical = loop.typical_ms()
        failed = len(loop.failures)
        print(f"# {name} seed={seed}: {passes:.2f} untraced passes of {len(ops)} operations; "
              f"op_fail_share {failed / loop.attempted:.4f} ({failed} of {loop.attempted}); "
              f"latency percentiles over the median scaled latency of each of {len(typical)} operations")
        if not trace and len(typical) >= 2:  # else every operation failed
            while len(startups.samples) < STARTUP_MIN:
                startups.sample()
            metrics.update({
                "ops_per_s": (1000 * len(typical) / sum(typical), "1/s"),
                "op_p50_ms": (statistics.median(typical), "ms"),
                "op_p90_ms": (statistics.quantiles(typical, n=10)[8], "ms"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "cli_startup_ms": (statistics.median(startups.samples) * 1000, "ms"),
            })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for f in loop.failures[:10]:
        print(f"FAILED {f}", file=sys.stderr)
    return {
        "correct": not loop.failures and not uncovered,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_pass(name: str, loop: Loop, untraced_pass_s: float) -> tuple[dict, list[str]]:
    """One more pass with spans on: the per-layer metrics, and the traced
    functions the workload must call but did not.  ``untraced_pass_s`` is
    the sum of the operations' median untraced latencies."""
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        traced_s = loop.one_pass(tracer)
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(workloads.OUT, f"spans-{name}.csv.gz"))
    values = layer_metrics(tracer)
    out = {}
    for fn, _ in TRACED:
        out[f"{fn}.calls"] = (values[f"{fn}.calls"], "count")
        out[f"{fn}.self_s"] = (values[f"{fn}.self_s"], "s")
    for metric, unit in DERIVED:
        if metric in values:
            out[metric] = (values[metric], unit)
    out["trace.overhead_share"] = (traced_s / untraced_pass_s - 1, "ratio")
    uncovered = [fn for fn, wls in TRACED if name in wls and values[f"{fn}.calls"] == 0]
    for fn in uncovered:
        print(f"COVERAGE {fn} recorded no call on {name}", file=sys.stderr)
    print(f"# traced pass: {len(tracer.spans)} spans, overhead {out['trace.overhead_share'][0]:.3f}")
    return out, uncovered


def run_all(args) -> int:
    """Each workload in its own process; print every metric with its unit."""
    worst = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if done.returncode in (0, 1) and lines else None
        if result is None:
            print(f"{name}: no result (exit {done.returncode})")
            worst = max(worst, 2)
            continue
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:<44} {v['value']:>14.6g} {v['unit']}")
        worst = max(worst, done.returncode)
    return worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="time one set-up in this process and exit")
    args = p.parse_args(argv)
    try:
        if args.setup_only:
            print(timed_setup(args.workload, args.seed))
            return 0
        workloads.bind_checkout()
    except workloads.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
