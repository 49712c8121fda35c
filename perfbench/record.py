"""Record the candidate operations of every workload with the package's
current outputs.

    python3 perfbench/record.py

Writes ``perfbench/golden/<workload>.json``.  Each candidate is run in
process and timed by the fastest of RECORD_REPEATS runs; one that fails,
or takes ADMIT_S or longer, is kept in the file with ``"admitted": false``
and never runs in the benchmark, so the benchmark's operations all
complete far inside their deadline.  Every
admitted output must pass the benchmark's own check.  Re-record only in a
change that redefines the benchmark: the goldens are the reference a
later change is compared with.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile

import checks
import families
from workloads import ADMIT_S, GOLDEN, OUT, Outcome, QueryInputs, bind_checkout, invoke, verify_op

VERIFY_SEED = 20200722
VERIFY_GRAPHS = 200  # 50 each of 3, 4, 5 and 6 nodes, two queries each
QUERY_SEED = 20200723
QUERY_GRAPHS_PER_FAMILY = 16
ENUM_SEED = 20200724
ENUM_GRAPHS = 220
RECORD_DEADLINE_S = 3.0
RECORD_REPEATS = 3  # the fastest of these timings admits a candidate


def verify_candidates() -> dict:
    from mpdagid import InconsistentKnowledgeError, Pdag, close

    rng = random.Random(VERIFY_SEED)
    ops = []
    for i in range(VERIFY_GRAPHS):
        n = 3 + i % 4
        while True:
            try:
                g = close(Pdag(*families.random_pdag(rng, n, 0.5)))
                break
            except InconsistentKnowledgeError:
                continue
        text = families.edgelist(list(g.nodes), g.directed, g.undirected)
        for q in range(2):
            kx, ky = rng.choice([(a, b) for a in (1, 2) for b in (1, 2) if a + b <= n])
            picked = rng.sample(list(g.nodes), kx + ky)
            ops.append({"id": f"v{i}.{q}", "kind": "verify", "text": text, "seed": rng.randrange(10**6),
                        "X": ",".join(sorted(picked[:kx])), "Y": ",".join(sorted(picked[kx:]))})
    return {"ops": ops}


def record_verify(workdir: str) -> dict:
    golden = verify_candidates()
    for c in golden["ops"]:
        c["ms"] = 0.0
        op = verify_op(c, workdir)
        o = _timed(op.argv)
        _admit(c, o)
        bad = op.check(o) if c["admitted"] else None
        if bad:
            sys.exit(f"record: {c['id']} fails its own check: {bad}")
        print(f"{c['id']:>8} {c['ms']:8.1f} ms {c.get('note', '')}", flush=True)
    return golden


def _sem(rng: random.Random, directed) -> list:
    return [[t, h, round(rng.choice((-1, 1)) * rng.uniform(0.3, 0.7), 3)] for t, h in sorted(directed)]


def _queries(rng: random.Random, order: list[str], causal: bool, dag) -> list[tuple[str, list[str]]]:
    """(kind, args) per operation; with ``causal`` every X precedes Y in
    the true DAG's topological order."""

    def pick(kx: int, ky: int):
        if not causal:
            s = rng.sample(order, kx + ky)
            return s[:kx], s[kx:]
        s = [order[i] for i in sorted(rng.sample(range(len(order)), kx + ky))]
        return s[:kx], s[kx:]

    def args(cmd: str, xs, ys):
        return [cmd, "-X", ",".join(sorted(xs)), "-Y", ",".join(sorted(ys))]

    out = [("close", ["close"])]
    out.append(("identify1", args("identify", *pick(1, 1))))
    out.append(("identify2", args("identify", *pick(*rng.choice([(2, 1), (1, 2)])))))
    out.append(("adjust1", args("adjust", *pick(1, 1))))
    out.append(("adjust2", args("adjust", *pick(*rng.choice([(2, 1), (1, 2)])))))
    if dag is not None:
        # estimate: Y in the later half, X among its ancestors when it has
        # enough, so most effects are nonzero.
        y = order[rng.randrange(len(order) // 2, len(order))]
        anc, frontier = set(), [y]
        while frontier:
            v = frontier.pop()
            for t, h in dag:
                if h == v and t not in anc:
                    anc.add(t)
                    frontier.append(t)
        kx = rng.choice((1, 2))
        pool = sorted(anc) if len(anc) >= kx else [v for v in order[: order.index(y)]]
        xs = rng.sample(pool, kx)
        out.append(("estimate", ["estimate", "-X", ",".join(xs), "-Y", y]))
    return out


def query_candidates() -> dict:
    rng = random.Random(QUERY_SEED)
    graphs, ops = [], []
    for family in ("chordal", "cpdag", "dag"):
        for _ in range(QUERY_GRAPHS_PER_FAMILY):
            n = rng.randint(14, 30)
            gid = f"g{len(graphs)}"
            bk, dag = None, None
            if family == "chordal":
                nodes, und = families.chordal(rng, n)
                text = families.edgelist(nodes, (), und)
                nbrs = sorted(b if a == "N0" else a for a, b in und if "N0" in (a, b))
                bk = f"N0 -> {rng.choice(nbrs)}\n"
                order = nodes
            elif family == "cpdag":
                nodes, dag = families.random_dag(rng, n, 3.0 / (n - 1))
                text = families.edgelist(nodes, *families.pattern(nodes, dag))
                order = families.topological(nodes, dag)
            else:
                nodes, dag = families.random_dag(rng, n, 0.3)
                text = families.edgelist(nodes, dag)
                order = families.topological(nodes, dag)
            g = {"id": gid, "family": family, "text": text, "bk": bk,
                 "sem": _sem(rng, dag) if dag is not None else None}
            graphs.append(g)
            for kind, args in _queries(rng, order, family != "chordal", dag):
                ops.append({"id": f"{gid}.{kind}", "graph": gid, "kind": kind, "args": args})
    return {"graphs": graphs, "ops": ops}


def enum_candidates() -> dict:
    rng = random.Random(ENUM_SEED)
    ops = []
    for i in range(ENUM_GRAPHS):
        nodes, und = families.chordal(rng, rng.randint(6, 9), 3)
        ops.append({"id": f"e{i}", "kind": "enumerate", "text": families.edgelist(nodes, (), und)})
    return {"ops": ops}


def _timed(argv: list[str]) -> Outcome:
    """The first outcome, timed by the fastest of RECORD_REPEATS runs."""
    first = invoke(argv, RECORD_DEADLINE_S)
    if first.error is None:
        first.seconds = min([first.seconds] + [invoke(argv).seconds for _ in range(RECORD_REPEATS - 1)])
    return first


def _admit(c: dict, o: Outcome) -> None:
    c["ms"] = round(o.seconds * 1000, 3)
    c["admitted"] = o.error is None and o.seconds < ADMIT_S
    if o.error is not None:
        c["note"] = o.error
    elif not c["admitted"]:
        c["note"] = f"took {o.seconds:.2f} s, over the {ADMIT_S:g} s admission limit"


def record_query(workdir: str) -> dict:
    golden = query_candidates()
    graphs = {g["id"]: g for g in golden["graphs"]}
    for g in golden["graphs"]:
        argv = ["close", "-g", os.path.join(workdir, "close.g")]
        with open(argv[-1], "w") as fh:
            fh.write(g["text"])
        if g["bk"]:
            argv += ["-b", os.path.join(workdir, "close.bk")]
            with open(argv[-1], "w") as fh:
                fh.write(g["bk"])
        o = invoke(argv)
        if o.rc != 0:
            sys.exit(f"record: close failed on {g['id']}: {o.stderr}")
        g["closed"] = o.stdout
    inputs = QueryInputs(0, workdir)
    for c in golden["ops"]:
        c["ms"] = 0.0
        op = inputs.op(c, graphs[c["graph"]])
        o = _timed(op.argv)
        c.update(rc=o.rc, stdout=o.stdout)
        _admit(c, o)
        bad = op.check(o) if c["admitted"] else None
        if bad:
            sys.exit(f"record: {c['id']} fails its own check: {bad}")
        print(f"{c['id']:>14} rc={c['rc']} {c['ms']:9.1f} ms {c.get('note', '')}", flush=True)
    return golden


def record_enum(workdir: str) -> dict:
    golden = enum_candidates()
    for c in golden["ops"]:
        path = os.path.join(workdir, "e.g")
        with open(path, "w") as fh:
            fh.write(c["text"])
        o = _timed(["enumerate", "-g", path])
        c["count"] = int(o.stdout.partition("\n")[0]) if o.rc == 0 else None
        _admit(c, o)
        if c["admitted"]:
            bad = checks.check_dag_list(o.stdout, checks.parse_edgelist(c["text"]), c["count"])
            if bad:
                sys.exit(f"record: {c['id']} fails its own check: {bad}")
        print(f"{c['id']:>6} {c['count']} DAGs {c['ms']:8.1f} ms", flush=True)
    return golden


def _dump(workload: str, golden: dict) -> None:
    os.makedirs(GOLDEN, exist_ok=True)
    with open(os.path.join(GOLDEN, f"{workload}.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> None:
    bind_checkout()
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        _dump("verify-small", record_verify(workdir))
        _dump("enumerate-chordal", record_enum(workdir))
        _dump("query-medium", record_query(workdir))


if __name__ == "__main__":
    main()
