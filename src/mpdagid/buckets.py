"""Buckets and the partial causal ordering of node sets in an MPDAG.

A bucket of a node set D is a maximal subset of D whose members are
pairwise connected by undirected paths in the host graph (the paths may
leave D).  Buckets of D are therefore exactly the nonempty intersections
of D with the undirected connected components of the full node set.
"""

from __future__ import annotations

from typing import Iterable

from .graphs import GraphError, Pdag, reach, topological_order
from .meek import require_mpdag

Bucket = frozenset[str]
Buckets = tuple[Bucket, ...]


def pco(g: Pdag, D: Iterable[str]) -> Buckets:
    """Partial causal ordering of D in the MPDAG ``g``.

    The undirected connected components of the full node set, joined by
    the directed edges between them, form the component graph, which is
    acyclic in an MPDAG.  PCO is a topological order of it, each component
    cut down to its intersection with D and empty ones dropped, so every
    edge between bucket i and bucket j with i < j is directed from i to j.
    The order is built by removing sinks: when several components are
    sinks at once, the one whose smallest member is largest is removed
    first and so is placed last, which fixes the emitted order.
    """
    g = require_mpdag(g)
    dset = g.require(D)
    comp_of: dict[str, Bucket] = {}
    comps: list[Bucket] = []
    for n in g.nodes:
        if n not in comp_of:
            comp = reach((n,), g._und)
            comps.append(comp)
            comp_of.update(dict.fromkeys(comp, comp))
    comps.sort(key=min, reverse=True)
    into: dict[Bucket, set[Bucket]] = {c: set() for c in comps}
    out_of: dict[Bucket, set[Bucket]] = {c: set() for c in comps}
    for a, b in g.directed:
        ca, cb = comp_of[a], comp_of[b]
        if ca is not cb:
            out_of[ca].add(cb)
            into[cb].add(ca)
    # On the reversed component graph a component is placed once all its
    # children are, so the sort removes sinks first.
    removed = topological_order(comps, out_of, into)
    if len(removed) < len(comps):
        raise GraphError("no removable component; graph is not an MPDAG")
    return tuple(part for part in (c & dset for c in reversed(removed)) if part)
