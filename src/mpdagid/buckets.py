"""Buckets and the partial causal ordering of node sets in an MPDAG.

A bucket of a node set D is a maximal subset of D whose members are
pairwise connected by undirected paths in the host graph (the paths may
leave D).  Buckets of D are therefore exactly the nonempty intersections
of D with the undirected connected components of the full node set.
"""

from __future__ import annotations

from typing import Iterable

from .graphs import GraphError, Pdag
from .meek import require_mpdag

Bucket = frozenset[str]
Buckets = tuple[Bucket, ...]


def _components(g: Pdag) -> list[frozenset[str]]:
    """Undirected connected components of the full node set."""
    seen: set[str] = set()
    comps: list[frozenset[str]] = []
    for start in g.nodes:
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            n = frontier.pop()
            for m in g.und_neighbors(n):
                if m not in comp:
                    comp.add(m)
                    frontier.append(m)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def pco(g: Pdag, D: Iterable[str]) -> Buckets:
    """Partial causal ordering of D in the MPDAG ``g``.

    Repeatedly removes a component of the full node set whose remaining
    external edges all point into it and prepends its intersection with D.
    Adjacent output buckets satisfy: every edge between bucket i and
    bucket j with i < j is directed from i to j.  When several components
    are removable at once, the one whose smallest member is largest is
    taken, which fixes the emitted order.
    """
    g = require_mpdag(g)
    dset = g.require(D)
    concomp = _components(g)
    ordered: list[Bucket] = []
    while concomp:
        removable = []
        for comp in concomp:
            rest = set().union(*(c for c in concomp if c is not comp)) if len(concomp) > 1 else set()
            ok = True
            for a, b in g.directed:
                if a in comp and b in rest:
                    ok = False
                    break
            if ok:
                removable.append(comp)
        if not removable:
            raise GraphError("no removable component; graph is not an MPDAG")
        comp = max(removable, key=min)
        concomp.remove(comp)
        part = comp & dset
        if part:
            ordered.insert(0, frozenset(part))
    return tuple(ordered)
