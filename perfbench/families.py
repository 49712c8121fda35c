"""Seeded graph families, written in the package's edge-list format.

Every generator takes a ``random.Random`` and returns plain node and
edge lists; nothing here imports the package, so the same seed gives the
same graph whatever the code under test does.  Nodes are named ``N0``,
``N1``, ... and each edge list is sorted.
"""

from __future__ import annotations

import itertools
import random

Edges = list[tuple[str, str]]


def node_names(n: int) -> list[str]:
    return [f"N{i}" for i in range(n)]


def edgelist(nodes: list[str], directed: Edges = (), undirected: Edges = ()) -> str:
    """Edge-list text; the ``node`` lines first fix the node order."""
    lines = [f"node {n}" for n in nodes]
    lines += [f"{a} -> {b}" for a, b in sorted(directed)]
    lines += [f"{a} -- {b}" for a, b in sorted(undirected)]
    return "\n".join(lines) + "\n"


def random_pdag(rng: random.Random, n: int, p_edge: float) -> tuple[list[str], Edges, Edges]:
    """Acyclic random PDAG: each present edge is undirected or follows a
    random node order, with even odds."""
    nodes = node_names(n)
    order = nodes[:]
    rng.shuffle(order)
    rank = {v: i for i, v in enumerate(order)}
    directed, undirected = [], []
    for a, b in itertools.combinations(nodes, 2):
        if rng.random() >= p_edge:
            continue
        if rng.random() < 0.5:
            undirected.append((a, b))
        else:
            directed.append((a, b) if rank[a] < rank[b] else (b, a))
    return nodes, directed, undirected


def random_dag(rng: random.Random, n: int, p_edge: float) -> tuple[list[str], Edges]:
    """Random DAG whose edges follow a random node order."""
    nodes = node_names(n)
    order = nodes[:]
    rng.shuffle(order)
    directed = [
        (order[i], order[j])
        for i, j in itertools.combinations(range(n), 2)
        if rng.random() < p_edge
    ]
    return nodes, directed


def pattern(nodes: list[str], directed: Edges) -> tuple[Edges, Edges]:
    """Keep the edges of unshielded colliders directed, undirect the rest.

    Closing the result gives the CPDAG of the DAG.
    """
    adj = {frozenset(e) for e in directed}
    parents: dict[str, list[str]] = {n: [] for n in nodes}
    for a, b in directed:
        parents[b].append(a)
    keep = set()
    for b, pa in parents.items():
        for a, c in itertools.combinations(pa, 2):
            if frozenset((a, c)) not in adj:
                keep.update({(a, b), (c, b)})
    undirected = [(min(a, b), max(a, b)) for a, b in directed if (a, b) not in keep]
    return sorted(keep), sorted(undirected)


def chordal(rng: random.Random, n: int, max_clique: int = 4) -> tuple[list[str], Edges]:
    """Undirected chordal graph: each new node joins a clique of at most
    ``max_clique`` earlier nodes (the target size is drawn uniformly),
    grown greedily from a random earlier node's neighbourhood.  Adding nodes this way keeps a perfect
    elimination order, so the graph is chordal."""
    nodes = node_names(n)
    nbrs: dict[str, set[str]] = {nodes[0]: set()}
    edges: Edges = []
    for v in nodes[1:]:
        size = rng.randint(1, max_clique)
        root = rng.choice(sorted(nbrs))
        clique = [root]
        for c in rng.sample(sorted(nbrs[root]), len(nbrs[root])):
            if len(clique) == size:
                break
            if all(c in nbrs[k] for k in clique):
                clique.append(c)
        nbrs[v] = set()
        for k in clique:
            nbrs[k].add(v)
            nbrs[v].add(k)
            edges.append((min(k, v), max(k, v)))
    return nodes, sorted(edges)


def topological(nodes: list[str], directed: Edges) -> list[str]:
    parents = {n: {a for a, b in directed if b == n} for n in nodes}
    order: list[str] = []
    while len(order) < len(nodes):
        for n in nodes:
            if n not in order and parents[n] <= set(order):
                order.append(n)
                break
    return order
