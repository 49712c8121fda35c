"""The three workloads: their inputs, made from the run's seed, and the
check each operation's output must pass.

One operation is one in-process ``mpdagid.cli.main(argv)`` call with
stdout and stderr captured.  Each workload runs every admitted candidate
operation recorded in ``golden/`` (see ``record.py``) with the outputs
the package gave when the benchmark was defined, in an order set by the
seed; the seed also draws the data of ``estimate``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import signal
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import checks
import families

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")


class CheckoutError(RuntimeError):
    """The directory around the benchmark holds no package to measure."""


def bind_checkout() -> None:
    """Import ``mpdagid`` from this checkout's ``src/`` and the brute-force
    oracles from its ``tests/``, never from anywhere else."""
    init = os.path.join(SRC, "mpdagid", "__init__.py")
    if not os.path.isfile(init) or not os.path.isfile(os.path.join(ROOT, "tests", "oracles.py")):
        raise CheckoutError(f"no src/mpdagid and tests/oracles.py under {ROOT}")
    sys.path[:0] = [SRC, os.path.join(ROOT, "tests")]
    import mpdagid

    if os.path.realpath(mpdagid.__file__) != os.path.realpath(init):
        raise CheckoutError(f"mpdagid was imported from {mpdagid.__file__}, not {init}")


# An operation that has not returned after DEADLINE_S seconds fails.
# Recorded candidates are admitted only below ADMIT_S, so every admitted
# operation finishes far inside the deadline and its outcome repeats.
DEADLINE_S = 10.0
ADMIT_S = 1.0

# Rows of simulated data per estimate operation; an estimated effect may
# miss the true one by TOL_K / sqrt(DATA_ROWS).  Over 40 data seeds on every
# recorded estimate the largest miss was 4.2 / sqrt(DATA_ROWS).
DATA_ROWS = 1000
TOL_K = 8.0


class DeadlineExceeded(BaseException):
    """Raised in the main thread by SIGALRM when an operation overruns."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass
class Outcome:
    rc: object  # exit code, or None when the call raised
    stdout: str
    stderr: str
    seconds: float
    error: Optional[str] = None  # why the call did not return normally


def invoke(argv: list[str], deadline: float = DEADLINE_S) -> Outcome:
    """Run ``mpdagid.cli.main(argv)`` in this process with a deadline."""
    from mpdagid import cli

    out, err = io.StringIO(), io.StringIO()
    error = None
    rc: object = None
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, deadline)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except DeadlineExceeded:
        error = f"missed the {deadline:g} s deadline"
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crash is a failed operation, not a crashed run
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return Outcome(rc, out.getvalue(), err.getvalue(), seconds, error)


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Callable[[Outcome], Optional[str]]
    cost: float  # expected relative cost; warm-up runs the cheapest op of each kind


def admitted(workload: str, seed: int) -> list[dict]:
    """Every admitted candidate of ``workload``, in an order set by the
    seed.  Running all of them, rather than a sample chosen by the seed,
    keeps the seed from moving the percentiles: recorded times rank the
    candidates too loosely for a sample to hit the same costs."""
    cands = [c for c in load_golden(workload)["ops"] if c["admitted"]]
    random.Random(seed).shuffle(cands)
    return cands


def load_golden(workload: str) -> dict:
    with open(os.path.join(GOLDEN, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _nodes(arg: str) -> frozenset[str]:
    return frozenset(arg.split(","))


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


# ---------------------------------------------------------------------------
# verify-small
# ---------------------------------------------------------------------------

def verify_small(seed: int, workdir: str) -> list[Op]:
    """``verify --models 20`` on closed random PDAGs with 3-6 nodes and
    queries with |X|, |Y| in {1, 2} (see ``record.py``)."""
    return [verify_op(c, workdir) for c in admitted("verify-small", seed)]


def verify_op(c: dict, workdir: str) -> Op:
    """The verdict must equal the brute-force witness search of
    ``tests/oracles.py``."""
    import oracles
    from mpdagid import parse_graph

    # One file per graph (id "v<graph>.<query>"): creating a file costs
    # ten times as much as rewriting one, and varies more.
    path = _write(os.path.join(workdir, f"{c['id'].split('.')[0]}.g"), c["text"])
    xs, ys = _nodes(c["X"]), _nodes(c["Y"])
    identifiable = not oracles.witness_exists(parse_graph(c["text"]), xs, ys)
    argv = ["verify", "-g", path, "-X", c["X"], "-Y", c["Y"], "--models", "20", "--seed", str(c["seed"])]
    return Op("verify", argv, _verify_check(c["text"], xs, ys, identifiable), c["ms"])


def _verify_check(text: str, xs: frozenset, ys: frozenset, identifiable: bool) -> Callable[[Outcome], Optional[str]]:
    mine = checks.parse_edgelist(text)

    def check(o: Outcome) -> Optional[str]:
        if o.rc != 0:
            return f"exit {o.rc}: {o.stderr.strip()[:200]}"
        return checks.check_verify(o.stdout, mine, xs, ys, identifiable)

    return check


# ---------------------------------------------------------------------------
# query-medium
# ---------------------------------------------------------------------------


def _status(stdout: str) -> str:
    return stdout.split(":", 1)[0].strip()


def simulate(nodes: list[str], coeffs: dict, rows: int, seed: int) -> str:
    """CSV of a linear-Gaussian SEM with unit noise variances."""
    import numpy as np  # imported here so that timing the package's import counts numpy

    rng = np.random.Generator(np.random.PCG64(seed))
    order = families.topological(nodes, list(coeffs))
    cols = {}
    for v in order:
        x = rng.standard_normal(rows)
        for (t, h), c in coeffs.items():
            if h == v:
                x = x + c * cols[t]
        cols[v] = x
    data = np.column_stack([cols[v] for v in nodes])
    buf = io.StringIO()
    np.savetxt(buf, data, fmt="%.9g", delimiter=",")
    return ",".join(nodes) + "\n" + buf.getvalue()


class QueryInputs:
    """Writes each graph, knowledge file and data set once per run."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.files: dict[str, list[str]] = {}
        self.data: dict[str, str] = {}

    def op(self, c: dict, g: dict) -> Op:
        gid = g["id"]
        if gid not in self.files:
            args = ["-g", _write(os.path.join(self.workdir, f"{gid}.g"), g["text"])]
            if g["bk"]:
                args += ["-b", _write(os.path.join(self.workdir, f"{gid}.bk"), g["bk"])]
            self.files[gid] = args
        argv = [c["args"][0]] + self.files[gid] + c["args"][1:]
        if c["kind"] == "estimate":
            if gid not in self.data:
                coeffs = {(t, h): w for t, h, w in g["sem"]}
                csv_text = simulate(_order(g), coeffs, DATA_ROWS, self.seed * 1000 + int(gid[1:]))
                self.data[gid] = _write(os.path.join(self.workdir, f"{gid}.csv"), csv_text)
            argv += ["--data", self.data[gid]]
        return Op(c["kind"], argv, _query_check(c, g), c["ms"])


def _order(g: dict) -> list[str]:
    return [f"N{i}" for i in range(len(checks.parse_edgelist(g["text"]).nodes))]


def query_medium(seed: int, workdir: str) -> list[Op]:
    """A fixed mix of close, identify, adjust and estimate on three graph
    families with 14-30 nodes (see ``record.py``)."""
    golden = load_golden("query-medium")
    graphs = {g["id"]: g for g in golden["graphs"]}
    inputs = QueryInputs(seed, workdir)
    return [inputs.op(c, graphs[c["graph"]]) for c in admitted("query-medium", seed)]


def _query_check(c: dict, g: dict) -> Callable[[Outcome], Optional[str]]:
    """Compares with the recorded ``c["rc"]`` and ``c["stdout"]``."""
    kind, args = c["kind"], c["args"]
    closed = checks.parse_edgelist(g["closed"])
    if kind != "close":
        xs, ys = _nodes(_flag(args, "-X")), _nodes(_flag(args, "-Y"))

    def check(o: Outcome) -> Optional[str]:
        if o.rc != c["rc"]:
            return f"exit {o.rc}, recorded {c['rc']}: {o.stderr.strip()[:200]}"
        if o.rc == 2 and kind in ("identify1", "identify2", "estimate"):
            if o.stdout != "not identifiable\n" or not o.stderr.startswith("witness: "):
                return "non-identifiable answer without a witness"
            return checks.check_witness(o.stderr[len("witness: "):], closed, xs, ys)
        if kind == "adjust2":
            if _status(o.stdout) != _status(c["stdout"]):
                return f"adjust status {o.stdout.strip()!r}, recorded {c['stdout'].strip()!r}"
            return None
        if kind == "estimate":
            x_order = _flag(args, "-X").split(",")
            (y,) = ys
            coeffs = {(t, h): w for t, h, w in g["sem"]}
            truth = checks.total_effects(_order(g), coeffs, x_order, y)
            return checks.check_effect(o.stdout, x_order, y, truth, TOL_K / DATA_ROWS**0.5)
        if o.stdout != c["stdout"]:
            return f"stdout differs from the recorded output: {o.stdout[:80]!r}"
        return None

    return check


# ---------------------------------------------------------------------------
# enumerate-chordal
# ---------------------------------------------------------------------------


def enumerate_chordal(seed: int, workdir: str) -> list[Op]:
    """``enumerate`` on chordal CPDAGs with 6-9 nodes (see ``record.py``)."""
    ops = []
    for c in admitted("enumerate-chordal", seed):
        path = _write(os.path.join(workdir, f"{c['id']}.g"), c["text"])
        mine = checks.parse_edgelist(c["text"])

        def check(o: Outcome, mine=mine, count=c["count"]) -> Optional[str]:
            if o.rc != 0:
                return f"exit {o.rc}: {o.stderr.strip()[:200]}"
            return checks.check_dag_list(o.stdout, mine, count)

        ops.append(Op("enumerate", ["enumerate", "-g", path], check, c["count"]))
    return ops


WORKLOADS = {
    "verify-small": verify_small,
    "query-medium": query_medium,
    "enumerate-chordal": enumerate_chordal,
}
