"""Output checks that share no code with the package under test.

Graphs are read with a parser of their own, and every predicate follows
its textbook definition.  Each check returns ``None`` when the output is
right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Optional

Arc = tuple[str, str]


class Graph:
    """Node set plus directed arcs and undirected pairs (sorted tuples)."""

    def __init__(self, nodes: Iterable[str], directed: Iterable[Arc], undirected: Iterable[Arc]):
        self.nodes = frozenset(nodes)
        self.directed = frozenset(directed)
        self.undirected = frozenset((min(a, b), max(a, b)) for a, b in undirected)

    def skeleton(self) -> frozenset:
        return frozenset(frozenset(e) for e in self.directed | self.undirected)

    def unshielded_colliders(self) -> frozenset:
        skel = self.skeleton()
        parents: dict[str, list[str]] = {}
        for a, b in self.directed:
            parents.setdefault(b, []).append(a)
        out = set()
        for b, pa in parents.items():
            pa.sort()
            for i, a in enumerate(pa):
                for c in pa[i + 1 :]:
                    if frozenset((a, c)) not in skel:
                        out.add((a, b, c))
        return frozenset(out)

    def acyclic(self) -> bool:
        indeg = {n: 0 for n in self.nodes}
        children: dict[str, list[str]] = {n: [] for n in self.nodes}
        for a, b in self.directed:
            indeg[b] += 1
            children[a].append(b)
        ready = [n for n, d in indeg.items() if d == 0]
        seen = 0
        while ready:
            n = ready.pop()
            seen += 1
            for c in children[n]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        return seen == len(self.nodes)


def parse_edgelist(text: str) -> Graph:
    """Read the edge-list format: ``a -> b``, ``a -- b``, ``node a``, ``#``."""
    nodes, directed, undirected = set(), [], []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].split()
        if not line:
            continue
        if len(line) == 2 and line[0] == "node":
            nodes.add(line[1])
            continue
        if len(line) != 3 or line[1] not in ("->", "--"):
            raise ValueError(f"malformed edge line: {raw!r}")
        a, mark, b = line
        nodes.update((a, b))
        (directed if mark == "->" else undirected).append((a, b))
    return Graph(nodes, directed, undirected)


def check_witness(path_text: str, g: Graph, xs: frozenset, ys: frozenset) -> Optional[str]:
    """A printed witness must be a proper possibly causal path from X to
    Y in ``g`` whose first edge is undirected."""
    tokens = path_text.split()
    if len(tokens) < 3 or len(tokens) % 2 == 0:
        return f"witness {path_text!r} is not a path"
    path = tokens[0::2]
    marks = tokens[1::2]
    if len(set(path)) != len(path):
        return f"witness {path_text!r} repeats a node"
    for u, mark, w in zip(path, marks, path[1:]):
        edge = {
            "->": (u, w) in g.directed,
            "<-": (w, u) in g.directed,
            "--": (min(u, w), max(u, w)) in g.undirected,
        }.get(mark)
        if not edge:
            return f"witness step {u} {mark} {w} is not an edge of the closed graph"
    if marks[0] != "--":
        return f"witness {path_text!r} does not start undirected"
    for j in range(1, len(path)):
        for i in range(j):
            if (path[j], path[i]) in g.directed:
                return f"witness has arrow {path[j]} -> {path[i]} from later to earlier"
    if path[0] not in xs or any(n in xs for n in path[1:]):
        return f"witness {path_text!r} is not proper for X"
    if path[-1] not in ys:
        return f"witness {path_text!r} does not end in Y"
    return None


def check_dag_list(stdout: str, g: Graph, expected_count: int) -> Optional[str]:
    """``enumerate`` output: a count line, then one DAG per blank-line
    separated block.  Every DAG must be acyclic, keep g's skeleton and
    arrows, have exactly g's unshielded colliders, and be distinct."""
    head, _, body = stdout.partition("\n")
    try:
        count = int(head)
    except ValueError:
        return f"count line {head!r} is not a number"
    if count != expected_count:
        return f"count {count} != recorded {expected_count}"
    blocks = [b for b in body.split("\n\n") if b.strip()]
    if len(blocks) != count:
        return f"{len(blocks)} DAGs printed, count line says {count}"
    skeleton = g.skeleton()
    colliders = g.unshielded_colliders()
    seen = set()
    for i, block in enumerate(blocks):
        d = parse_edgelist(block)
        if d.undirected:
            return f"DAG {i} has an undirected edge"
        if d.nodes != g.nodes:
            return f"DAG {i} has another node set"
        if d.skeleton() != skeleton:
            return f"DAG {i} has another skeleton"
        if not g.directed <= d.directed:
            return f"DAG {i} reverses an arrow of the input"
        if not d.acyclic():
            return f"DAG {i} has a directed cycle"
        if d.unshielded_colliders() != colliders:
            return f"DAG {i} changes the unshielded colliders"
        seen.add(d.directed)
    if len(seen) != count:
        return f"only {len(seen)} of {count} DAGs are distinct"
    return None


def total_effects(nodes: list[str], coeffs: dict[Arc, float], xs: list[str], y: str) -> list[float]:
    """d E[y | do(xs)] / d x_i in a linear SEM: entries of (I - A)^-1 with
    the arrows into X removed."""
    import numpy as np  # imported here so that timing the package's import counts numpy

    idx = {n: i for i, n in enumerate(nodes)}
    a = np.zeros((len(nodes), len(nodes)))
    for (t, h), c in coeffs.items():
        if h not in xs:
            a[idx[h], idx[t]] = c
    inv = np.linalg.inv(np.eye(len(nodes)) - a)
    return [float(inv[idx[y], idx[x]]) for x in xs]


def check_effect(stdout: str, xs: list[str], y: str, truth: list[float], tol: float) -> Optional[str]:
    """``estimate`` output: JSON with the response and one effect per X,
    each within ``tol`` of the true total effect."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return f"estimate output is not JSON: {stdout[:60]!r}"
    if payload.get("response") != y or sorted(payload.get("effect", {})) != sorted(xs):
        return f"estimate output names the wrong nodes: {stdout.strip()}"
    for x, true in zip(xs, truth):
        got = payload["effect"][x]
        if not (isinstance(got, float) and math.isfinite(got)) or abs(got - true) > tol:
            return f"effect of {x} on {y} is {got}, true {true:.4f}, tolerance {tol:.3f}"
    return None


def parse_report(stdout: str) -> dict[str, str]:
    """``verify`` prints ``key: value`` lines (the first may be a bare verdict)."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        out[key if sep else "verdict"] = value if sep else key
    return out


def check_verify(stdout: str, g: Graph, xs: frozenset, ys: frozenset, identifiable: bool) -> Optional[str]:
    """``verify`` output against the brute-force verdict and the tolerances
    of the package contract."""
    rep = parse_report(stdout)
    if identifiable:
        if "identifiable" not in rep:
            return "verify says not identifiable; brute force finds no witness"
        dev = max(float(rep["max cross-dag deviation"]), float(rep["max formula deviation"]))
        if not dev <= 1e-9:
            return f"deviation {dev:g} exceeds 1e-9"
        return None
    if rep.get("verdict") != "not identifiable":
        return "verify says identifiable; brute force finds a witness"
    bad = check_witness(rep.get("witness", ""), g, xs, ys)
    if bad:
        return bad
    cov = float(rep["covariance max diff"])
    delta = float(rep["interventional mean gap (delta)"])
    if not (cov <= 1e-12 and delta > 0):
        return f"witness models: covariance diff {cov:g}, delta {delta:g}"
    return None
