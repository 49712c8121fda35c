"""Closure of a PDAG into a maximally oriented PDAG, and the DAGs it represents.

Four orientation rules are applied to a fixpoint.  Each rule eliminates
one of the four forbidden induced subgraphs that characterize maximal
orientation, so a graph is maximally oriented exactly when no rule fires:

* rule 1: ``c -> a - b`` with c, b nonadjacent        =>  ``a -> b``
* rule 2: ``a -> c -> b`` with ``a - b``              =>  ``a -> b``
* rule 3: ``a - b``, ``a - c``, ``a - d``, ``c -> b``, ``d -> b``,
  c, d nonadjacent                                    =>  ``a -> b``
* rule 4: ``a - b``, ``a - c``, ``a - d``, ``c -> d``, ``d -> b``,
  c, b nonadjacent                                    =>  ``a -> b``

The closure is a worklist over parent, child and undirected-neighbour
sets.  It keeps the map of every fireable orientation and, after each
orientation, re-evaluates only the edges whose rule inputs it changed
(Meek 1995, "Causal inference and causal explanation with background
knowledge").

A graph tagged ``dag`` or ``mpdag`` represents at least one DAG.  A
:func:`_removal_order` pass decides whether a graph does:
:func:`require_mpdag`, the one check that tags a graph ``mpdag``, and the
full check of :func:`close` run it; :func:`consistent_extension` runs it to
find one such DAG, which points every undirected edge from the node
removed later to the one removed earlier.  The rules are complete under
background knowledge (Meek 1995), so a checked MPDAG orients each
undirected edge both ways among the DAGs it represents, and closing it
with one pair on one of them gives an MPDAG: no rule demands the
reverse of an orientation, and no removal-order pass is needed, so
:func:`close` runs neither check.
:func:`enumerate_dags` walks such one-pair closes down to a closure with
one undirected edge, and orients that edge both ways without a close: by
the same completeness each orientation is a DAG of the class, and no
undirected edge is left for a rule to orient.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .graphs import (
    GraphError,
    GraphParseError,
    Pdag,
    UnknownNodeError,
    parse_graph,
    topological_order,
)

BackgroundKnowledge = frozenset[tuple[str, str]]

NodeSets = dict[str, set[str]]


class InconsistentKnowledgeError(GraphError):
    """Background knowledge conflicts with the graph or with itself."""


def _which_rule(
    pa: NodeSets, ch: NodeSets, und: NodeSets, adj: NodeSets, a: str, b: str
) -> Optional[int]:
    """Lowest rule index demanding ``a -> b``.

    Reads only ``pa/ch/und[a]``, ``pa[b]``, adjacency and ``pa[d]`` for
    ``d`` in ``und[a]``; ``close`` relies on this to re-evaluate only the
    edges an orientation can affect.  Rules 2-4 each need a parent of
    ``b``, so without one the answer after rule 1 is ``None``.
    """
    # rule 1: c -> a, c != b, c and b nonadjacent
    if not pa[a] <= adj[b]:
        return 1
    pa_b = pa[b]
    if not pa_b:
        return None
    # rule 2: a -> c -> b
    if not pa_b.isdisjoint(ch[a]):
        return 2
    cands = und[a] & pa_b
    if cands:
        # rule 3: a - c -> b, a - d -> b, c and d nonadjacent
        if len(cands) > 1 and any(not cands <= adj[c] for c in cands):
            return 3
        # rule 4: a - c, c -> d, a - d, d -> b, c and b nonadjacent
        und_a, adj_b = und[a], adj[b]
        for d in cands:
            if not (und_a & pa[d]) <= adj_b:
                return 4
    return None


def _sink_order(
    nodes: Sequence[str], pa: NodeSets, ch: NodeSets, und: NodeSets, adj: NodeSets
) -> Optional[list[str]]:
    """Dor-Tarsi sink elimination; the nodes in removal order, or ``None``
    when it gets stuck (no consistent extension exists).

    Repeatedly removes the first node ``v`` of ``nodes`` with no children
    whose neighbours other than ``w`` are all adjacent to ``w``, for every
    undirected neighbour ``w``; orienting its undirected edges into it
    adds no collider.  Any such choice works, so the order of removal does
    not matter for success; taking the first keeps it independent of
    string hashing.  A removal only shrinks the child counts and
    neighbour sets of the removed node's parents and undirected
    neighbours, so a node that failed the test is tested again only after
    one of those changes.  A childless node with no live undirected
    neighbour has no ``w`` to test, so it is removed without building its
    neighbour set.  The sets are read, not changed.
    """
    live = dict(und)  # undirected neighbours still live; replaced, not mutated
    n_children = {n: len(s) for n, s in ch.items()}
    alive = list(nodes)
    stuck: set[str] = set()
    order: list[str] = []
    while alive:
        for i, v in enumerate(alive):
            if v in stuck or n_children[v]:
                continue
            live_v = live[v]
            if not live_v:
                break
            # A removed node was a sink, so pa[v] holds live nodes only;
            # adj is static, so nb <= adj[w] tests adjacency among live nodes.
            nb = pa[v] | live_v
            for w in live_v:
                if not nb <= adj[w]:
                    stuck.add(v)
                    break
            else:
                break
        else:
            return None
        del alive[i]
        order.append(v)
        for p in pa[v]:
            n_children[p] -= 1
            stuck.discard(p)
        for w in live[v]:
            live[w] = live[w] - {v}
            stuck.discard(w)
    return order


def _removal_order(
    nodes: Sequence[str], pa: NodeSets, ch: NodeSets, und: NodeSets, adj: NodeSets
) -> Optional[list[str]]:
    """The nodes in a sinks-first removal order of one DAG that the graph
    represents, or ``None`` when it represents none (a directed cycle, or
    no consistent extension).

    With undirected edges this is Dor-Tarsi sink elimination; without
    them a reversed topological order removes sinks first, and its keyed
    pick keeps it independent of string hashing.  The only code that
    picks between the two passes.
    """
    if any(und.values()):
        return _sink_order(nodes, pa, ch, und, adj)
    order = topological_order(nodes, pa, ch)[::-1]
    return order if len(order) == len(nodes) else None


def consistent_extension(g: Pdag) -> Pdag:
    """One DAG that the MPDAG ``g``, tagged other than ``pdag``,
    represents, tagged ``dag`` and sharing ``g``'s neighbourhood map.  One
    removal-order pass over ``g``'s sets finds it; ``g`` is not changed."""
    pa, ch, und = g._parents, g._children, g._und
    rank = {v: i for i, v in enumerate(_removal_order(g.nodes, pa, ch, und, g._adj))}
    parents = {v: pa[v] | {w for w in und[v] if rank[w] > rank[v]} for v in g.nodes}
    children = {v: ch[v] | {w for w in und[v] if rank[w] < rank[v]} for v in g.nodes}
    no_und = dict.fromkeys(g.nodes, frozenset())
    edges = frozenset((p, v) for v in g.nodes for p in parents[v]), frozenset()
    return Pdag._trusted(g.nodes, parents, children, no_und, "dag", edges, g._adj)


def is_mpdag(g: Pdag) -> bool:
    """True when no orientation rule fires, i.e. no forbidden induced
    subgraph occurs.  Assumes ``g`` is acyclic (enforced by ``Pdag`` and,
    on the closures it builds, by :func:`close`)."""
    pa, ch, und, adj = g._parents, g._children, g._und, g._adj
    for a, b in g.undirected:
        if _which_rule(pa, ch, und, adj, a, b) is not None:
            return False
        if _which_rule(pa, ch, und, adj, b, a) is not None:
            return False
    return True


def require_mpdag(g: Pdag) -> Pdag:
    """``g`` itself when its tag vouches for closure, else ``g`` checked
    and re-tagged ``"mpdag"``; raises :class:`GraphError` if a rule still
    fires or ``g`` represents no DAG."""
    if g.class_tag != "pdag":
        return g
    if not is_mpdag(g):
        raise GraphError("graph is not maximally oriented; close it first")
    if _removal_order(g.nodes, g._parents, g._children, g._und, g._adj) is None:
        raise GraphError("closure represents no DAG (no consistent extension exists)")
    edges = (g.directed, g.undirected)
    return Pdag._trusted(g.nodes, g._parents, g._children, g._und, "mpdag", edges, g._adj)


def close(g: Pdag, bk: Iterable[tuple[str, str]] = ()) -> Pdag:
    """Close ``g`` plus background knowledge into its maximal orientation,
    tagged ``"mpdag"``.

    Each ``(tail, head)`` pair in ``bk`` must be an adjacency of ``g`` and
    is oriented as ``tail -> head`` before the rules run.  The result
    contains every directed edge of the input, has ``g``'s skeleton and
    shares ``g``'s neighbourhood map.  An untagged ``g``, the way every
    input enters, and knowledge that orients two or more edges are
    checked in full.  A tagged ``g`` with knowledge that orients at most
    one edge runs no check, neither for reverse demands nor for an
    extension (the module docstring says why).  That trusted path, each
    branch step of :func:`enumerate_dags`, relies on the tag vouching for
    a checked MPDAG.  The knowledge checks still run on it, in the same
    order with the same messages; they read ``g._adj`` for the node and
    adjacency tests, so ``g``'s neighbourhood map must be exact.  Each
    step applies the least (rule index, then edge) application; the
    closure does not depend on the order.

    Raises
    ------
    UnknownNodeError
        If a pair in ``bk`` names a node that ``g`` does not have.
    InconsistentKnowledgeError
        If ``bk`` contains a pair in both orientations, demands orienting
        an edge against an existing direction, names a non-adjacent pair,
        a rule demands reversing an orientation the closure already made,
        the closure would create a directed cycle, or the closed graph
        would represent no DAG at all (no consistent extension).
    """
    # Shallow copies of the graph's maps.  Orienting an edge replaces the
    # sets it changes instead of writing into them, so the graph's own sets
    # stay untouched and the closure shares every set it does not change.
    # Orienting keeps adjacency, so the closure shares ``g``'s map of it.
    nodes = g.nodes
    pa: NodeSets = g._parents.copy()
    ch: NodeSets = g._children.copy()
    und: NodeSets = g._und.copy()
    adj = g._adj
    # Orientations made here, in order; the position picks which demand
    # is reported when several conflict at once.
    oriented: dict[tuple[str, str], int] = {}
    pairs = sorted(frozenset(bk))
    for tail, head in pairs:
        for n in (tail, head):
            if n not in adj:
                raise UnknownNodeError(f"unknown node: {n}")
        if tail != head and (head, tail) in pairs:
            raise InconsistentKnowledgeError(
                f"background knowledge orients {tail} and {head} both ways"
            )
        if tail == head or head not in adj[tail]:
            raise InconsistentKnowledgeError(
                f"background knowledge pair {tail} -> {head} is not an adjacency"
            )
        if head in ch[tail]:
            continue
        if tail in ch[head]:
            raise InconsistentKnowledgeError(
                f"background knowledge {tail} -> {head} opposes existing edge"
            )
        und[tail] = und[tail] - {head}
        und[head] = und[head] - {tail}
        ch[tail] = ch[tail] | {head}
        pa[head] = pa[head] | {tail}
        oriented[(tail, head)] = len(oriented)
    # A checked MPDAG closed with one pair on one of its edges is an MPDAG,
    # so no check below can fail on it.
    trusted = g.class_tag != "pdag" and len(oriented) <= 1

    if not trusted:
        _check_no_reverse_demand(pa, ch, und, adj, list(oriented))
    # Orienting t -> h changes only pa[h], ch[t], und[t] and und[h].  By what
    # ``_which_rule`` reads, the verdict for a -> b can then change only when
    # a is t, h or in und[h] (rule 4 reads pa[d] for d in und[a]), or when b
    # is h, which again puts a in und[h]; ``around`` holds those tails.
    # A graph tagged dag or mpdag was checked closed when it was built, so
    # only the rules near the knowledge can fire.
    if g.class_tag == "pdag":
        around = nodes
    else:
        around = {n for t, h in oriented for n in (t, h, *und[h])}
    # (tail, head) -> (lowest rule, tail, head), so the least value is the
    # next application; a verdict of no rule drops the edge, if pending.
    pending: dict[tuple[str, str], tuple[int, str, str]] = {}
    while True:
        for a in around:
            for b in und[a]:
                rule = _which_rule(pa, ch, und, adj, a, b)
                if rule is not None:
                    pending[(a, b)] = (rule, a, b)
                elif pending:
                    pending.pop((a, b), None)
        if not pending:
            break
        _, tail, head = min(pending.values())
        und[tail] = und[tail] - {head}
        und[head] = und[head] - {tail}
        ch[tail] = ch[tail] | {head}
        pa[head] = pa[head] | {tail}
        oriented[(tail, head)] = len(oriented)
        del pending[(tail, head)]
        pending.pop((head, tail), None)

        around = und[head] | {tail, head}
        if trusted:
            continue
        # A rule pattern demanding the reverse of an orientation made by
        # the knowledge or by an earlier rule means no DAG is compatible
        # with the input (input edges are exempt: an arrow into an
        # existing v-structure is not a demand).  Only the verdicts for
        # edges into the affected nodes, or out of the head, can change.
        suspects = [(u, v) for v in around for u in pa[v] if (u, v) in oriented]
        suspects += [(head, v) for v in ch[head] if (head, v) in oriented]
        _check_no_reverse_demand(pa, ch, und, adj, sorted(suspects, key=oriented.__getitem__))

    # The removal-order pass also gets stuck on a directed cycle, so it
    # decides alone; the cycle test only picks the message.
    if not trusted and _removal_order(nodes, pa, ch, und, adj) is None:
        if len(topological_order(nodes, pa, ch)) < len(nodes):
            raise InconsistentKnowledgeError(
                "closure creates a directed cycle; knowledge is inconsistent"
            )
        raise InconsistentKnowledgeError(
            "closure represents no DAG (no consistent extension exists)"
        )
    # Reached the rule fixpoint, acyclic and extendable: an MPDAG (Meek
    # 1995).  An untagged input still gets the boundary rule check.
    edges = (
        g.directed.union(oriented),
        g.undirected.difference([(t, h) if t < h else (h, t) for t, h in oriented]),
    )
    closed = Pdag._trusted(nodes, pa, ch, und, "mpdag", edges, adj)
    if g.class_tag == "pdag" and not is_mpdag(closed):
        raise GraphError("closure is not maximally oriented")
    return closed


def _check_no_reverse_demand(
    pa: NodeSets, ch: NodeSets, und: NodeSets, adj: NodeSets, edges: list[tuple[str, str]]
) -> None:
    """Raise for the first ``tail -> head`` in ``edges`` that a rule
    demands to be ``head -> tail``."""
    for tail, head in edges:
        rule = _which_rule(pa, ch, und, adj, head, tail)
        if rule is not None:
            raise InconsistentKnowledgeError(
                f"rule {rule} demands {head} -> {tail} against {tail} -> {head}"
            )


def enumerate_dags(g: Pdag) -> list[Pdag]:
    """All DAGs represented by the MPDAG ``g``, in the order of their
    orientation bitstrings over the sorted skeleton (``a -> b`` with
    ``a < b`` before ``b -> a``), so the list is canonical.

    Every returned DAG has the adjacencies and unshielded colliders of
    ``g`` and contains all its directed edges.  Each branch with two or
    more undirected edges is closed with one pair; the last undirected
    edge is oriented both ways without a close (the module docstring
    says why).
    """
    return list(_depth_first(require_mpdag(g)))


def _depth_first(h: Pdag) -> Iterator[Pdag]:
    """The DAGs represented by the closed ``h``, depth first.

    It branches ``a -> b`` before ``b -> a`` on the least undirected edge
    ``(a, b)`` and closes the parent with that pair.  Every skeleton edge
    below that one is already directed, so leaves come in
    orientation-bitstring order.  Orientation only removes undirected
    edges, so a branch's least undirected edge comes after its parent's in
    the root's sorted list: each stack entry carries the position to scan
    from.  Each branch closes to an MPDAG (the module docstring says why),
    so every branch holds a leaf.  A closure with exactly one undirected
    edge ``(a, b)`` is not branched: its two leaves, ``a -> b`` first, are
    laid out without a close (the module docstring says why too).  A leaf
    is laid out once, tagged ``dag``, unchecked; it shares the root's
    neighbourhood map.  A branch is closed only when popped, so a
    caller that stops early closes no branch it did not reach.
    """
    order = sorted(h.undirected)
    stack: list[tuple[Pdag, Optional[tuple[str, str]], int]] = [(h, None, 0)]
    while stack:
        g, pair, i = stack.pop()
        if pair is not None:
            g = close(g, (pair,))
        und = g.undirected
        if len(und) > 1:
            while order[i] not in und:
                i += 1
            a, b = order[i]
            stack.append((g, (b, a), i + 1))
            stack.append((g, (a, b), i + 1))
        elif und:
            ((a, b),) = und
            no_und = g._und.copy()
            no_und[a] = no_und[b] = frozenset()
            for tail, head in ((a, b), (b, a)):
                pa = g._parents.copy()
                ch = g._children.copy()
                pa[head] = pa[head] | {tail}
                ch[tail] = ch[tail] | {head}
                edges = (g.directed | {(tail, head)}, frozenset())
                yield Pdag._trusted(g.nodes, pa, ch, no_und, "dag", edges, g._adj)
        else:
            edges = (g.directed, und)
            yield Pdag._trusted(g.nodes, g._parents, g._children, g._und, "dag", edges, g._adj)


def parse_background_knowledge(text: str) -> BackgroundKnowledge:
    """Parse a background-knowledge file: edge-list format, directed lines
    only; the first undirected line is reported with its line number."""
    g = parse_graph(text)
    if g.undirected:
        for lineno, raw in enumerate(text.splitlines(), 1):
            tokens = raw.split("#", 1)[0].split()
            if len(tokens) == 3 and tokens[1] == "--":
                a, _, b = tokens
                message = f"background knowledge must be directed: {a} -- {b}"
                raise GraphParseError(lineno, message)
    return frozenset(g.directed)
