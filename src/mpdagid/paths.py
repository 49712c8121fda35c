"""Path classification, d-separation, the forbidden set and the witness.

The possibly causal questions (the amenability witness, whether any
possibly causal path exists, the forbidden set) are answered by the one
polynomial search behind :meth:`Pdag.possible_descendants`, and so
require an MPDAG.  d-separation and the non-causal path search still
enumerate simple paths explicitly: exponential in the worst case, exact
for every PDAG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .graphs import GraphError, Pdag
from .meek import require_mpdag

Path = tuple[str, ...]


@dataclass(frozen=True)
class PathStatus:
    possibly_causal: bool
    definite_status: bool
    proper: bool


def _validate_path(g: Pdag, p: Sequence[str]) -> Path:
    nodes = tuple(p)
    if len(nodes) < 2:
        raise GraphError("a path needs at least two nodes")
    g.require(nodes)
    if len(set(nodes)) != len(nodes):
        raise GraphError("path nodes must be distinct")
    for u, w in zip(nodes, nodes[1:]):
        if not g.adjacent(u, w):
            raise GraphError(f"{u} and {w} are not adjacent")
    return nodes


def is_possibly_causal(g: Pdag, p: Sequence[str]) -> bool:
    """No directed edge from a later path node back into an earlier one."""
    nodes = _validate_path(g, p)
    for j in range(1, len(nodes)):
        for i in range(j):
            if g.has_directed(nodes[j], nodes[i]):
                return False
    return True


def _interior_status(g: Pdag, a: str, b: str, c: str) -> Optional[str]:
    """Status of ``b`` on the subpath ``a, b, c``: ``"collider"``,
    ``"noncollider"`` (definite), or ``None`` when not of definite status."""
    if g.has_directed(a, b) and g.has_directed(c, b):
        return "collider"
    if g.has_directed(b, a) or g.has_directed(b, c):
        return "noncollider"
    if g.has_undirected(a, b) and g.has_undirected(b, c) and not g.adjacent(a, c):
        return "noncollider"
    return None


def is_definite_status(g: Pdag, p: Sequence[str]) -> bool:
    """Every interior node is a collider or a definite non-collider."""
    nodes = _validate_path(g, p)
    return all(
        _interior_status(g, nodes[i - 1], nodes[i], nodes[i + 1]) is not None
        for i in range(1, len(nodes) - 1)
    )


def classify_path(g: Pdag, p: Sequence[str], sources: Iterable[str]) -> PathStatus:
    """Classify a path relative to a source set.

    ``proper`` holds when the first node is the only one in ``sources``.
    """
    nodes = _validate_path(g, p)
    srcs = g.require(sources)
    proper = nodes[0] in srcs and all(n not in srcs for n in nodes[1:])
    return PathStatus(
        possibly_causal=is_possibly_causal(g, nodes),
        definite_status=is_definite_status(g, nodes),
        proper=proper,
    )


def _validate_disjoint(g: Pdag, X, Y, *, names=("X", "Y")) -> tuple[frozenset, frozenset]:
    xs, ys = g.require(X), g.require(Y)
    if not xs or not ys:
        raise GraphError(f"{names[0]} and {names[1]} must be nonempty")
    if xs & ys:
        raise GraphError(f"{names[0]} and {names[1]} must be disjoint")
    return xs, ys


def amenability_witness(g: Pdag, X, Y) -> Optional[Path]:
    """A shortest proper possibly causal path from X to Y starting with an
    undirected edge, or ``None`` when no such path exists.

    Of the shortest such paths the lexicographically least is returned.
    For each ``x`` the search starts at the undirected neighbours of
    ``x`` outside X and avoids X (the path stays proper) and pa(x) (a
    parent of ``x`` on the path would point back at it).  The first step
    out of a neighbour may be shielded, so witnesses such as
    ``X - V -> Y`` alongside ``X -> Y`` are found too.
    """
    g = require_mpdag(g)
    xs, ys = _validate_disjoint(g, X, Y)
    found: list[Path] = []
    for x in sorted(xs):
        avoid = xs | g.parents_of(x)
        _, path = g._possibly_causal_search(g.und_neighbors(x) - xs, avoid, ys)
        if path is not None:
            found.append((x,) + path)
    return min(found, key=lambda p: (len(p), p), default=None)


def exists_proper_pcp_starting_undirected(g: Pdag, X, Y) -> bool:
    return amenability_witness(g, X, Y) is not None


def exists_possibly_causal(g: Pdag, X, Y) -> bool:
    """True when any possibly causal path runs from X to Y.

    Any such path has a proper suffix, so the possible descendants of X
    decide it.
    """
    g = require_mpdag(g)
    xs, ys = _validate_disjoint(g, X, Y)
    return bool(g.possible_descendants(xs) & ys)


def forbidden_set(g: Pdag, X, Y) -> frozenset[str]:
    """Possible descendants of non-X nodes on proper possibly causal paths
    from X to Y.  Members of X are excluded from the result; a candidate
    adjustment set is disjoint from X anyway.

    Every node of such a path is a possible descendant of the path's
    second node, so the second nodes suffice: the children and undirected
    neighbours ``v`` of an ``x`` that lie in Y or reach it avoiding X and
    pa(x).  Defined for amenable (X, Y) only: a qualifying ``v`` joined to
    ``x`` by an undirected edge starts a witness, and raises
    :class:`GraphError`.
    """
    g = require_mpdag(g)
    xs, ys = _validate_disjoint(g, X, Y)
    second: set[str] = set()
    for x in sorted(xs):
        avoid = xs | g.parents_of(x)
        und_x = g.und_neighbors(x)
        for v in sorted((g.children_of(x) | und_x) - xs):
            _, path = g._possibly_causal_search((v,), avoid, ys)
            if path is None:
                continue
            if v in und_x:
                raise GraphError(
                    f"forbidden set undefined: {x} -- {v} starts a proper "
                    "possibly causal path to Y (not amenable)"
                )
            second.add(v)
    if not second:
        return frozenset()
    return g.possible_descendants(second) - xs


def _connecting_path_search(
    g: Pdag,
    xs: frozenset,
    ys: frozenset,
    zs: frozenset,
    *,
    proper: bool,
    require_noncausal: bool,
) -> Optional[Path]:
    """A definite-status path from X to Y that is d-connecting given Z.

    With ``proper`` the interior avoids X but may revisit Y (needed for the
    universally quantified adjustment condition, where truncating at an
    interior response node can destroy non-causality); without it the
    interior avoids X and Y, which is sufficient for plain d-connection.
    With ``require_noncausal`` only paths that are not possibly causal count.
    """
    de_cache: dict[str, bool] = {}

    def collider_open(n: str) -> bool:
        if n not in de_cache:
            de_cache[n] = bool(g.descendants([n]) & zs)
        return de_cache[n]

    def ok_interior(a: str, b: str, c: str) -> bool:
        status = _interior_status(g, a, b, c)
        if status is None:
            return False
        if status == "collider":
            return collider_open(b)
        return b not in zs

    def walk(path: list[str]) -> Optional[Path]:
        u = path[-1]
        for w in sorted(g.neighbors(u)):
            if w in path or w in xs:
                continue
            if len(path) >= 2 and not ok_interior(path[-2], u, w):
                continue
            path.append(w)
            if w in ys and (not require_noncausal or not is_possibly_causal(g, path)):
                return tuple(path)
            # The plain d-connection search can stop at Y: a connecting
            # path through an interior Y node has a connecting prefix.
            # The non-causal search must keep going, because truncating at
            # an interior Y node can turn a non-causal path causal.
            if w not in ys or proper:
                found = walk(path)
                if found is not None:
                    return found
            path.pop()
        return None

    for x in sorted(xs):
        found = walk([x])
        if found is not None:
            return found
    return None


def d_separated(g: Pdag, X, Y, Z) -> bool:
    """True when Z blocks every definite-status path between X and Y."""
    xs, ys = _validate_disjoint(g, X, Y)
    zs = g.require(Z)
    if zs & (xs | ys):
        raise GraphError("X, Y, Z must be pairwise disjoint")
    return (
        _connecting_path_search(g, xs, ys, zs, proper=False, require_noncausal=False)
        is None
    )


def unblocked_proper_noncausal_path(g: Pdag, X, Y, Z) -> Optional[Path]:
    """A proper non-causal definite-status path from X to Y not blocked by
    Z, or ``None`` when Z blocks them all."""
    xs, ys = _validate_disjoint(g, X, Y)
    zs = g.require(Z)
    if zs & (xs | ys):
        raise GraphError("X, Y, Z must be pairwise disjoint")
    return _connecting_path_search(g, xs, ys, zs, proper=True, require_noncausal=True)
