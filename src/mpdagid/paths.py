"""D-separation, the forbidden set and the amenability witness.

Every search here is polynomial and requires an MPDAG.  The possibly
causal questions (the amenability witness, whether any possibly causal
path exists, the forbidden set) are answered by the one search behind
:meth:`Pdag.possible_descendants`.
The separation questions (d-separation, and the blocked non-causal
paths of the adjustment criterion) are answered by one Bayes-ball
reachability (Shachter 1998, "Bayes-Ball: the rational pastime") over
one DAG the checked MPDAG represents (``meek.consistent_extension``),
since Markov equivalent DAGs share their d-separations.
"""

from __future__ import annotations

from typing import Optional

from .graphs import GraphError, Pdag, reach
from .meek import consistent_extension, require_mpdag

Path = tuple[str, ...]


def _validate_disjoint(g: Pdag, X, Y) -> tuple[frozenset, frozenset]:
    xs, ys = g.require(X), g.require(Y)
    if not xs or not ys:
        raise GraphError("X and Y must be nonempty")
    if xs & ys:
        raise GraphError("X and Y must be disjoint")
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


def _validate_separation(g: Pdag, X, Y, Z) -> tuple[frozenset, frozenset, frozenset]:
    xs, ys = _validate_disjoint(g, X, Y)
    zs = g.require(Z)
    if zs & (xs | ys):
        raise GraphError("X, Y, Z must be pairwise disjoint")
    return xs, ys, zs


def _d_connected(pa, ch, xs: frozenset, ys: frozenset, zs: frozenset) -> bool:
    """Bayes-ball: whether some path of the DAG with parent sets ``pa`` and
    child sets ``ch`` joins X to Y without being blocked by Z.

    A ball arriving at ``n`` from a child passes on to every parent and
    child unless ``n`` is in Z.  One arriving from a parent passes on to
    the children unless ``n`` is in Z, and bounces back to the parents
    when ``n`` is an ancestor of Z (an open collider).  Each (node,
    direction) state is visited once, so the search is linear.
    """
    anc_z = reach(zs, pa)
    seen: set[tuple[str, bool]] = set()
    balls = [(x, True) for x in xs]  # (node, arrived from a child)
    while balls:
        state = balls.pop()
        if state in seen:
            continue
        seen.add(state)
        n, up = state
        if n not in zs:
            if n in ys:
                return True
            balls.extend((c, False) for c in ch[n])
        if (up and n not in zs) or (not up and n in anc_z):
            balls.extend((p, True) for p in pa[n])
    return False


def d_separated(g: Pdag, X, Y, Z) -> bool:
    """True when Z d-separates X and Y in every DAG the MPDAG ``g``
    represents, i.e. blocks every definite-status path between them."""
    g = require_mpdag(g)
    xs, ys, zs = _validate_separation(g, X, Y, Z)
    d = consistent_extension(g)
    return not _d_connected(d._parents, d._children, xs, ys, zs)


def unblocked_proper_noncausal_path(g: Pdag, X, Y, Z) -> bool:
    """True when some proper non-causal definite-status path from X to Y
    is not blocked by Z, i.e. when condition 3 of the generalized
    adjustment criterion fails.

    Defined for an amenable (X, Y) and a Z that avoids the forbidden set;
    anything else raises :class:`GraphError`.  There, Z blocks those paths
    exactly when it d-separates X and Y in the proper back-door graph
    (Perković, Textor, Kalisch & Maathuis 2018, "Complete graphical
    characterization and construction of adjustment sets in Markov
    equivalence classes of ancestral graphs"), taken here as a represented
    DAG without its edges from X into the forbidden set.
    """
    g = require_mpdag(g)
    xs, ys, zs = _validate_separation(g, X, Y, Z)
    forbidden = forbidden_set(g, xs, ys)
    if zs & forbidden:
        raise GraphError("Z meets the forbidden set")
    d = consistent_extension(g)
    pa, ch = dict(d._parents), dict(d._children)
    for x in xs:
        cut = ch[x] & forbidden
        ch[x] = ch[x] - cut
        for w in cut:
            pa[w] = pa[w] - {x}
    return _d_connected(pa, ch, xs, ys, zs)
