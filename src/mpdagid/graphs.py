"""Partially directed graphs over named nodes.

A :class:`Pdag` holds directed and undirected edges with at most one edge
per node pair and no directed cycles.  Graph values are immutable after
construction, so they hash, compare, and can be shared across threads:
no read writes to a graph.
:func:`parse_graph` tokenises edge-list text and builds through the
checking constructor, which checks each name and edge once; only text it
refuses is scanned again, line by line, for the line to report.
"""

from __future__ import annotations

import re
from collections import deque
from heapq import heappop, heappush
from typing import AbstractSet, Hashable, Iterable, Literal, Mapping, Optional, Sequence, TypeVar

NODE_NAME = re.compile(r"[A-Za-z0-9_.]+\Z")
# Any run of valid characters: joined names match it when each one is valid.
_NAME_CHARS = re.compile(r"[A-Za-z0-9_.]*")

ClassTag = Literal["pdag", "dag", "mpdag"]

# A state of the possibly causal search: (previous node, current node).
_State = tuple[Optional[str], str]

T = TypeVar("T", bound=Hashable)


class GraphError(ValueError):
    """Invalid graph structure, class tag, or graph query."""


class GraphParseError(GraphError):
    """Malformed edge-list input; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class UnknownNodeError(GraphError):
    """A queried node is not part of the graph."""


# The two errors below belong to ``estimate`` and ``oracle``, which re-export
# them; they live here so that ``cli`` can catch them without importing numpy.


class EstimationError(ValueError):
    """Bad data, a singular regression, or a formula/data mismatch."""


class DegenerateConditioningError(ValueError):
    """A formula factor conditions on a zero-probability event."""


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not NODE_NAME.match(name):
        raise GraphError(f"invalid node name: {name!r}")
    return name


class Pdag:
    """Immutable partially directed acyclic graph.

    Parameters
    ----------
    nodes:
        Node names in presentation order (duplicates rejected).
    directed:
        Iterable of ``(tail, head)`` pairs.
    undirected:
        Iterable of unordered pairs (any endpoint order).
    class_tag:
        Validity assertion, checked eagerly: ``"pdag"`` only requires
        acyclicity and ``"dag"`` also forbids undirected edges.  These are
        the tags a graph's edges decide alone.  The ``"mpdag"`` tag
        (closed under the orientation rules, representing at least one
        DAG) is given by ``meek.require_mpdag``, which checks it, and by
        ``meek.close``.

    Graphs the package derives from graphs it already holds skip the
    checks through :meth:`_trusted`, the one unchecked constructor, their
    maker vouching for the tag: closures, enumeration leaves, graphs
    ``meek.require_mpdag`` has just checked and the DAG
    ``meek.consistent_extension`` finds.

    The private ``_adj`` is a plain dict from each node to its closed
    neighbourhood ``N(n) | {n}``.  Orientation keeps the skeleton, so
    every graph derived through :meth:`_trusted` shares the map of the
    graph it came from.  This constructor builds one as it checks the
    edges (its duplicate test reads it).
    """

    __slots__ = (
        "nodes",
        "directed",
        "undirected",
        "class_tag",
        "_parents",
        "_children",
        "_und",
        "_adj",
    )

    def __init__(
        self,
        nodes: Iterable[str],
        directed: Iterable[tuple[str, str]] = (),
        undirected: Iterable[tuple[str, str]] = (),
        class_tag: Literal["pdag", "dag"] = "pdag",
    ):
        # adj doubles as the node set (in order) and the duplicate test.  The
        # joined names match only when every name is a str of valid
        # characters, so the per-name loop, which raises the first fault in
        # node order, runs only when that fails, a name is empty or repeats.
        nodes = list(nodes)
        try:
            valid = _NAME_CHARS.fullmatch("".join(nodes)) is not None
        except TypeError:  # a name that is not a str
            valid = False
        adj: dict[str, set[str]] = {n: {n} for n in nodes} if valid else {}
        if len(adj) < len(nodes) or "" in adj:
            adj = {}
            for n in nodes:
                _check_name(n)
                if n in adj:
                    raise GraphError(f"duplicate node: {n}")
                adj[n] = {n}
        parents: dict[str, set[str]] = {n: set() for n in adj}
        children: dict[str, set[str]] = {n: set() for n in adj}
        und: dict[str, set[str]] = {n: set() for n in adj}

        d_edges: list[tuple[str, str]] = []
        u_edges: list[tuple[str, str]] = []  # keyed (min, max)
        for is_directed, edges in ((True, directed), (False, undirected)):
            for a, b in edges:
                if a not in adj or b not in adj or a == b:
                    self._reject_endpoints(adj, a, b)
                if b in adj[a]:
                    raise GraphError(f"more than one edge between {a} and {b}")
                adj[a].add(b)
                adj[b].add(a)
                if is_directed:
                    d_edges.append((a, b))
                    parents[b].add(a)
                    children[a].add(b)
                else:
                    u_edges.append((a, b) if a < b else (b, a))
                    und[a].add(b)
                    und[b].add(a)

        if class_tag not in ("pdag", "dag"):
            raise GraphError(f"unknown class tag: {class_tag!r}")
        if d_edges and len(topological_order(nodes, parents, children)) < len(nodes):
            raise GraphError("graph contains a directed cycle")
        if class_tag == "dag" and u_edges:
            raise GraphError("dag tag forbids undirected edges")
        edges = frozenset(d_edges), frozenset(u_edges)
        self._lay_out(tuple(adj), edges, parents, children, und, class_tag, adj)

    def _lay_out(self, nodes, edges, parents, children, und, class_tag, adj) -> None:
        """Set every field; the one place that lays out a graph.  Every
        caller hands over the ``(directed, undirected)`` edge frozensets and
        the neighbourhood map.  ``edges`` stays one argument: unpacking
        ``*edges`` into the call cost about 0.25 us more per graph
        (Python 3.11, 2-core Xeon)."""
        self.nodes = nodes
        self.directed, self.undirected = edges
        self._parents = parents
        self._children = children
        self._und = und
        self.class_tag = class_tag
        self._adj = adj

    @classmethod
    def _trusted(
        cls,
        nodes: tuple[str, ...],
        parents: dict[str, set[str]],
        children: dict[str, set[str]],
        und: dict[str, set[str]],
        class_tag: ClassTag,
        edges: tuple[frozenset, frozenset],
        adj: dict[str, set[str]],
    ) -> "Pdag":
        """A graph that adopts the caller's parent, child and undirected
        neighbour sets (keyed by every node), its ``(directed,
        undirected)`` edge frozensets and the neighbourhood map of a graph
        with the same skeleton, and checks nothing.  The caller vouches for
        everything ``class_tag`` asserts and that the fields agree, and
        hands them over: they must not change afterwards.
        """
        g = object.__new__(cls)
        g._lay_out(nodes, edges, parents, children, und, class_tag, adj)
        return g

    @staticmethod
    def _reject_endpoints(known, a, b) -> None:
        for n in (a, b):
            if n not in known:
                raise UnknownNodeError(f"unknown node: {n}")
        raise GraphError(f"self-loop at {a}")

    # -- basic queries ---------------------------------------------------

    def __contains__(self, node: str) -> bool:
        return node in self._parents

    def require(self, nodes: Iterable[str]) -> frozenset[str]:
        """Return ``nodes`` as a frozenset, raising on unknown members."""
        out = frozenset(nodes)
        for n in out:
            if n not in self._parents:
                raise UnknownNodeError(f"unknown node: {n}")
        return out

    def parents_of(self, node: str) -> frozenset[str]:
        return frozenset(self._parents[node])

    def children_of(self, node: str) -> frozenset[str]:
        return frozenset(self._children[node])

    def und_neighbors(self, node: str) -> frozenset[str]:
        return frozenset(self._und[node])

    def adjacent(self, a: str, b: str) -> bool:
        return b in self._parents[a] or b in self._children[a] or b in self._und[a]

    def has_directed(self, tail: str, head: str) -> bool:
        return (tail, head) in self.directed

    def __eq__(self, other) -> bool:
        # Value equality: node set and edge sets; presentation order and
        # class tag are not part of graph identity.
        if not isinstance(other, Pdag):
            return NotImplemented
        return (
            set(self.nodes) == set(other.nodes)
            and self.directed == other.directed
            and self.undirected == other.undirected
        )

    def __hash__(self) -> int:
        # Each edge frozenset caches its own hash.
        return hash((frozenset(self.nodes), self.directed, self.undirected))

    def __repr__(self) -> str:
        return (
            f"Pdag(nodes={len(self.nodes)}, directed={len(self.directed)}, "
            f"undirected={len(self.undirected)}, tag={self.class_tag})"
        )

    # -- ancestral relations ----------------------------------------------

    def ancestors(self, xs: Iterable[str]) -> frozenset[str]:
        """Nodes with a causal (fully directed) path into ``xs``, plus ``xs``."""
        return reach(self.require(xs), self._parents)

    def descendants(self, xs: Iterable[str]) -> frozenset[str]:
        """Nodes reachable from ``xs`` along causal paths, plus ``xs``."""
        return reach(self.require(xs), self._children)

    def set_parents(self, xs: Iterable[str]) -> frozenset[str]:
        """Union of parents of the members of ``xs``, minus ``xs`` itself."""
        xset = self.require(xs)
        out: set[str] = set()
        for x in xset:
            out |= self._parents[x]
        return frozenset(out - xset)

    def possible_descendants(self, xs: Iterable[str]) -> frozenset[str]:
        """Nodes at the far end of a possibly causal path from ``xs``, plus ``xs``.

        A path is possibly causal when no edge in the graph points from a
        later path node back to an earlier one; the condition ranges over
        all node pairs on the path, not just consecutive ones.  Requires
        an MPDAG (an untagged graph is checked first): there, every
        possibly causal path has an unshielded possibly causal subsequence
        with the same end points (Perković, Kalisch & Maathuis 2017,
        "Interpreting and using CPDAGs with background knowledge"), so the
        polynomial search of :meth:`_possibly_causal_search` is exact.
        """
        from . import meek

        g = meek.require_mpdag(self)
        reached, _ = g._possibly_causal_search(g.require(xs))
        return reached

    def possible_ancestors(self, xs: Iterable[str]) -> frozenset[str]:
        """Nodes with a possibly causal path into ``xs``, plus ``xs``; requires
        an MPDAG.  The search of :meth:`possible_descendants`, run backward."""
        from . import meek

        g = meek.require_mpdag(self)
        reached, _ = g._possibly_causal_search(g.require(xs), backward=True)
        return reached

    def _possibly_causal_search(
        self,
        sources: Iterable[str],
        avoid: AbstractSet[str] = frozenset(),
        targets: AbstractSet[str] = frozenset(),
        *,
        backward: bool = False,
    ) -> tuple[frozenset[str], Optional[tuple[str, ...]]]:
        """Breadth-first search along possibly causal paths that never
        enter ``avoid``.

        A state is a (previous node, current node) pair.  From a source
        the search takes any edge ``u -> w`` or ``u -- w`` with ``w``
        outside ``avoid``; after that it steps from ``u`` to ``w`` only when
        ``w`` is not adjacent to the previous node, so the walk is
        unshielded past its first node.  Neighbours are expanded in
        sorted order, sources too.  With ``backward`` it steps along
        ``u <- w`` or ``u -- w`` instead and so walks the paths into the
        sources from their far end.

        Returns the nodes reached, sources included, and the path to the
        first target reached, where the search stops; with
        breadth-first order and sorted expansion that path is the
        lexicographically least shortest one.  The path is ``None`` when
        no target is reachable.
        """
        pa, ch, und = self._parents, self._children, self._und
        ahead = pa if backward else ch
        back: dict[_State, Optional[_State]] = {}
        queue: deque[_State] = deque()
        hit = None
        for s in sorted(sources):
            state = (None, s)
            back[state] = None
            queue.append(state)
            if s in targets:
                hit = state
                break
        while queue and hit is None:
            state = queue.popleft()
            prev, u = state
            step = (ahead[u] | und[u]) - avoid
            if prev is not None:
                step -= pa[prev] | ch[prev] | und[prev]
                step.discard(prev)
            for w in sorted(step):
                nxt = (u, w)
                if nxt in back:
                    continue
                back[nxt] = state
                if w in targets:
                    hit = nxt
                    break
                queue.append(nxt)
        reached = frozenset(u for _, u in back)
        if hit is None:
            return reached, None
        path = []
        while hit is not None:
            path.append(hit[1])
            hit = back[hit]
        return reached, tuple(reversed(path))

    def to_edgelist(self) -> str:
        """Render in the edge-list text format (parse round-trips): the
        isolated nodes, sorted, then the edges sorted by ``(a, b)``.

        A node is isolated when its closed neighbourhood in ``_adj`` holds
        only itself.  A pair has one edge, so ``(a, b)`` decides the order.
        Without undirected edges the rendered ``a -> b`` lines are sorted
        as strings, which is ``(a, b)`` order: a space sorts below every
        character a node name may hold.  With both marks the strings would
        not sort that way (``-`` sorts below ``>``), so the pairs are sorted.
        A property test checks both against a reference that sorts
        ``(a, b, mark)`` triples, on names that share prefixes.
        """
        adj, directed, undirected = self._adj, self.directed, self.undirected
        lines = [f"node {n}" for n in sorted([n for n in self.nodes if len(adj[n]) == 1])]
        if undirected:
            lines += [
                f"{a} -> {b}" if (a, b) in directed else f"{a} -- {b}"
                for a, b in sorted(directed | undirected)
            ]
        else:
            lines += sorted([f"{a} -> {b}" for a, b in directed])
        return "\n".join(lines) + ("\n" if lines else "")


def topological_order(
    nodes: Sequence[T], parents: Mapping[T, AbstractSet[T]], children: Mapping[T, AbstractSet[T]]
) -> list[T]:
    """Kahn's algorithm with a keyed pick: each step places the earliest
    item of ``nodes`` whose parents are all placed.  Items need only be
    hashable.  The result is shorter than ``nodes`` when they hold a
    directed cycle."""
    rank = {n: i for i, n in enumerate(nodes)}
    indeg = [len(parents[n]) for n in nodes]
    ready = [i for i, d in enumerate(indeg) if d == 0]  # ascending: a heap
    order = []
    while ready:
        n = nodes[heappop(ready)]
        order.append(n)
        for c in children[n]:
            i = rank[c]
            indeg[i] -= 1
            if indeg[i] == 0:
                heappush(ready, i)
    return order


def reach(
    sources: Iterable[T], step: Mapping[T, AbstractSet[T]], avoid: AbstractSet[T] = frozenset()
) -> frozenset[T]:
    """``sources`` plus every item reachable from them along ``step``
    without entering ``avoid``.  Sources are always kept, even those in
    ``avoid``; nothing is checked against a graph."""
    seen = set(sources)
    frontier = list(seen)
    while frontier:
        for m in step[frontier.pop()]:
            if m not in seen and m not in avoid:
                seen.add(m)
                frontier.append(m)
    return frozenset(seen)


def parse_graph(text: str) -> Pdag:
    """Parse the edge-list format into a ``Pdag`` tagged ``"pdag"``.

    Format: one edge per line, ``A -> B`` (directed) or ``A -- B``
    (undirected); ``# ...`` comments; blank lines ignored; isolated nodes
    declared as ``node A``.  Node order is first-appearance order.

    One pass only tokenises: it collects the names and the two edge lists,
    and the checking constructor then checks the names, self-loops,
    duplicate edges and cycles.  Lines are cut at ``#`` only when the text
    holds one: without a ``#``, no line has a comment to cut.  A malformed
    line, or a refusal by the constructor, sends the text to
    :func:`_first_bad_line`, so the first bad line is reported; a directed
    cycle, which no one line shows, keeps the constructor's error.
    """
    names: list[str] = []
    directed: list[tuple[str, str]] = []
    undirected: list[tuple[str, str]] = []
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    for raw in lines:
        tokens = raw.split()
        if len(tokens) == 3:
            edge = tokens[0], tokens[2]
            if tokens[1] == "->":
                directed.append(edge)
            elif tokens[1] == "--":
                undirected.append(edge)
            else:
                raise _first_bad_line(text)
            names += edge
        elif len(tokens) == 2 and tokens[0] == "node":
            names.append(tokens[1])
        elif tokens:
            raise _first_bad_line(text)
    try:
        return Pdag(dict.fromkeys(names), directed, undirected, "pdag")
    except GraphError:
        bad = _first_bad_line(text)
        if bad is None:
            raise
        raise bad from None


def _first_bad_line(text: str) -> Optional[GraphParseError]:
    """The error of the first line that is malformed, names an invalid
    node, or adds a self-loop or a second edge between two nodes; ``None``
    when no line does.  A neighbour set per node gives the duplicate test."""
    nbrs: dict[str, set[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if len(tokens) == 2 and tokens[0] == "node":
            names = tokens[1:]
        elif len(tokens) == 3 and tokens[1] in ("->", "--"):
            names = tokens[::2]
        else:
            return GraphParseError(lineno, f"malformed line: {raw.strip()!r}")
        for name in names:
            if name not in nbrs:
                if not NODE_NAME.match(name):
                    return GraphParseError(lineno, f"invalid node name: {name!r}")
                nbrs[name] = set()
        if len(names) == 2:
            a, b = names
            if a == b:
                return GraphParseError(lineno, f"self-loop at {a}")
            if b in nbrs[a]:
                return GraphParseError(lineno, f"more than one edge between {a} and {b}")
            nbrs[a].add(b)
            nbrs[b].add(a)
    return None
