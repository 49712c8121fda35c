"""Independent brute-force oracles used to cross-check the library.

Deliberately dumb implementations: path predicates follow the raw
definitions over exhaustively enumerated node sequences, equivalence
classes come from filtering all edge orientations, the Meek closure
re-derives every rule application from the edge sets after each
orientation, orders come from rescanning what is left after each pick,
discrete evaluation walks python dicts (or, for bit-exact
comparison, rebuilds numpy tables from the CPTs on every call, and draws
and refits random models node by node), and
Gaussian covariances come from a matrix solve or from summing coefficient
products over every collider-free simple path.
None of this shares code with the package under test.

It also holds the few helpers tests need that the package does not
offer: formula equality up to factor order, the adjustment functional,
interventional means of a linear SEM, one slice of an interventional
table, and a dataset written as CSV.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque

import networkx as nx
import numpy as np

from mpdagid import Factor, GraphError, IdFormula, InconsistentKnowledgeError, Pdag, close
from mpdagid.meek import require_mpdag


# --------------------------------------------------------------------------
# Paths by raw definition
# --------------------------------------------------------------------------


def simple_paths(g: Pdag, a: str, b: str):
    """Every simple path between a and b, by permutation enumeration."""
    others = [n for n in g.nodes if n not in (a, b)]
    for k in range(len(others) + 1):
        for mid in itertools.permutations(others, k):
            path = (a,) + mid + (b,)
            if all(g.adjacent(u, w) for u, w in zip(path, path[1:])):
                yield path


def possibly_causal(g: Pdag, path) -> bool:
    n = len(path)
    return not any(
        g.has_directed(path[j], path[i]) for i in range(n) for j in range(i + 1, n)
    )


def witness_exists(g: Pdag, X, Y) -> bool:
    """A proper possibly causal path from X to Y starting undirected."""
    xs, ys = set(X), set(Y)
    for x in xs:
        for y in ys:
            for path in simple_paths(g, x, y):
                if any(n in xs for n in path[1:]):
                    continue
                if not g.has_undirected(path[0], path[1]):
                    continue
                if possibly_causal(g, path):
                    return True
    return False


def possible_descendants(g: Pdag, xs) -> frozenset:
    out = set(xs)
    for x in set(xs):
        for w in g.nodes:
            if w in out or w == x:
                continue
            if any(possibly_causal(g, p) for p in simple_paths(g, x, w)):
                out.add(w)
    return frozenset(out)


# --------------------------------------------------------------------------
# Possibly causal searches over simple paths
# --------------------------------------------------------------------------
# The package once answered these questions with these exhaustive walkers;
# they now check the polynomial search that replaced them.  A walk extends
# a simple path along an adjacency only while the raw pairwise definition
# (``possibly_causal``) still holds, so it is exact on every PDAG.


def _steps(g: Pdag, path):
    """Neighbours of the path's end that extend it to a possibly causal
    simple path, in sorted order."""
    for w in sorted(g.neighbors(path[-1])):
        if w not in path and possibly_causal(g, (*path, w)):
            yield w


def reference_possible_descendants(g: Pdag, xs) -> frozenset:
    """Depth-first over every possibly causal simple path from ``xs``."""
    reached = set(xs)

    def walk(path) -> None:
        for w in _steps(g, path):
            reached.add(w)
            walk((*path, w))

    for x in sorted(xs):
        walk((x,))
    return frozenset(reached)


def reference_possible_ancestors(g: Pdag, xs) -> frozenset:
    xs = frozenset(xs)
    return xs | {w for w in g.nodes if reference_possible_descendants(g, {w}) & xs}


def reference_witness(g: Pdag, X, Y):
    """Breadth-first over simple paths: the first proper possibly causal
    path from X to Y starting undirected, i.e. the lexicographically
    least of the shortest; ``None`` when there is none."""
    xs, ys = frozenset(X), frozenset(Y)
    queue = deque()
    for x in sorted(xs):
        for w in sorted(g.und_neighbors(x) - xs):
            if w in ys:
                return (x, w)
            queue.append((x, w))
    while queue:
        path = queue.popleft()
        for w in _steps(g, path):
            if w in xs:
                continue
            if w in ys:
                return (*path, w)
            queue.append((*path, w))
    return None


def reference_witness_paths(g: Pdag, X, Y) -> list:
    """Every proper possibly causal path from X to Y that starts
    undirected and meets Y only at its end, sorted by (length, path)."""
    xs, ys = frozenset(X), frozenset(Y)
    found = []

    def walk(path) -> None:
        if path[-1] in ys:
            found.append(path)
            return
        for w in _steps(g, path):
            if w not in xs:
                walk((*path, w))

    for x in sorted(xs):
        for w in sorted(g.und_neighbors(x) - xs):
            walk((x, w))
    return sorted(found, key=lambda p: (len(p), p))


def reference_exists_possibly_causal(g: Pdag, X, Y) -> bool:
    xs, ys = frozenset(X), frozenset(Y)
    queue = deque((x,) for x in sorted(xs))
    while queue:
        path = queue.popleft()
        for w in _steps(g, path):
            if w in xs:
                continue
            if w in ys:
                return True
            queue.append((*path, w))
    return False


def reference_forbidden_set(g: Pdag, X, Y) -> frozenset:
    """Possible descendants of the non-X nodes on proper possibly causal
    paths from X to Y, less X."""
    xs, ys = frozenset(X), frozenset(Y)
    on_paths = set()

    def walk(path) -> None:
        for w in _steps(g, path):
            if w in xs:
                continue
            if w in ys:
                on_paths.update(path[1:])
                on_paths.add(w)
            walk((*path, w))

    for x in sorted(xs):
        walk((x,))
    if not on_paths:
        return frozenset()
    return reference_possible_descendants(g, on_paths) - xs


# --------------------------------------------------------------------------
# Separation and adjustment by simple-path walks
# --------------------------------------------------------------------------
# The package once decided d-separation and condition 3 of the generalized
# adjustment criterion with this walker, and searched adjustment sets over
# every subset; they now check the Bayes-ball search and the constructive
# set that replaced them.  The walker is exact on every PDAG.


def _interior_status(g: Pdag, a: str, b: str, c: str):
    """Status of ``b`` on the subpath ``a, b, c``: ``"collider"``,
    ``"noncollider"`` (definite), or ``None`` when not of definite status."""
    if g.has_directed(a, b) and g.has_directed(c, b):
        return "collider"
    if g.has_directed(b, a) or g.has_directed(b, c):
        return "noncollider"
    if g.has_undirected(a, b) and g.has_undirected(b, c) and not g.adjacent(a, c):
        return "noncollider"
    return None


def _connecting_path_search(g: Pdag, xs, ys, zs, *, proper: bool, require_noncausal: bool):
    """A definite-status path from X to Y that is d-connecting given Z.

    With ``proper`` the interior avoids X but may revisit Y (needed for the
    universally quantified adjustment condition, where truncating at an
    interior response node can destroy non-causality); without it the
    interior avoids X and Y, which is sufficient for plain d-connection.
    With ``require_noncausal`` only paths that are not possibly causal count.
    """
    de_cache: dict = {}

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

    def walk(path: list):
        u = path[-1]
        for w in sorted(g.neighbors(u)):
            if w in path or w in xs:
                continue
            if len(path) >= 2 and not ok_interior(path[-2], u, w):
                continue
            path.append(w)
            if w in ys and (not require_noncausal or not possibly_causal(g, path)):
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


def reference_d_separated(g: Pdag, X, Y, Z) -> bool:
    """Z blocks every definite-status path between X and Y."""
    xs, ys, zs = frozenset(X), frozenset(Y), frozenset(Z)
    path = _connecting_path_search(g, xs, ys, zs, proper=False, require_noncausal=False)
    return path is None


def reference_unblocked_noncausal_path(g: Pdag, X, Y, Z):
    """A proper non-causal definite-status path from X to Y not blocked by
    Z, or ``None`` when Z blocks them all."""
    xs, ys, zs = frozenset(X), frozenset(Y), frozenset(Z)
    return _connecting_path_search(g, xs, ys, zs, proper=True, require_noncausal=True)


def reference_check_adjustment(g: Pdag, X, Y, Z) -> bool:
    """The generalized adjustment criterion from the path walks alone."""
    if reference_witness(g, X, Y) is not None:
        return False
    if frozenset(Z) & reference_forbidden_set(g, X, Y):
        return False
    return reference_unblocked_noncausal_path(g, X, Y, Z) is None


def reference_find_adjustment_set(g: Pdag, X, Y):
    """``(status, set)``: the parent set of X for singletons, otherwise the
    least subset (by size, then sorted order) of the nodes outside X, Y and
    the forbidden set that passes the criterion."""
    xs, ys = frozenset(X), frozenset(Y)
    if len(xs) == len(ys) == 1 and ys <= g.set_parents(xs):
        return "zero_effect", None
    if reference_witness(g, xs, ys) is not None:
        return "none_exists", None
    if len(xs) == len(ys) == 1:
        return "set_found", g.set_parents(xs)
    universe = sorted(frozenset(g.nodes) - xs - ys - reference_forbidden_set(g, xs, ys))
    for size in range(len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            if reference_unblocked_noncausal_path(g, xs, ys, combo) is None:
                return "set_found", frozenset(combo)
    return "none_exists", None


# --------------------------------------------------------------------------
# Orders by rescanning what is left
# --------------------------------------------------------------------------


def undirected_components(g: Pdag) -> list[frozenset[str]]:
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


def reference_pco(g: Pdag, D):
    """Partial causal ordering of D: repeatedly remove a component whose
    remaining external edges all point into it, rescanning every directed
    edge for each component, and prepend its intersection with D; of
    several removable components, the one whose smallest member is
    largest goes first."""
    g = require_mpdag(g)
    dset = g.require(D)
    concomp = undirected_components(g)
    ordered: list[frozenset[str]] = []
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


def reference_topological_order(dag: Pdag) -> list[str]:
    """Topological order that rescans the pending nodes in graph order and
    places the first one whose parents are all placed."""
    order: list[str] = []
    placed: set[str] = set()
    pending = list(dag.nodes)
    while pending:
        for n in pending:
            if dag.parents_of(n) <= placed:
                order.append(n)
                placed.add(n)
                pending.remove(n)
                break
        else:
            raise GraphError("cyclic model")
    return order


# --------------------------------------------------------------------------
# Equivalence classes by filtering all orientations
# --------------------------------------------------------------------------


def unshielded_colliders(g: Pdag) -> frozenset:
    out = set()
    for b in g.nodes:
        for a, c in itertools.combinations(sorted(g.parents_of(b)), 2):
            if not g.adjacent(a, c):
                out.add((a, b, c))
    return frozenset(out)


def carried_dag(h: Pdag) -> Pdag:
    """The DAG that the removal rank carried by a closure stands for: each
    skeleton edge points from the higher rank to the lower.  A strict
    order leaves no directed cycle; whether the DAG keeps the directed
    edges and the unshielded colliders of ``h`` is for the caller to check."""
    rank = h._rank
    edges = [(a, b) if rank[a] > rank[b] else (b, a) for a, b in h.directed | h.undirected]
    return Pdag(h.nodes, edges, class_tag="dag")


def reference_sink_order(nodes, pa, ch, und):
    """Dor-Tarsi sink elimination over parent, child and undirected-
    neighbour maps by rescanning: after each removal, remove the first
    live node of ``nodes`` with no live children whose live neighbours
    other than ``w`` are all adjacent to ``w``, for every live undirected
    neighbour ``w``.  The removal order, or None when no node qualifies."""
    adj = {n: pa[n] | ch[n] | und[n] | {n} for n in nodes}
    alive = list(nodes)
    order = []
    while alive:
        live = set(alive)
        for v in alive:
            if ch[v] & live:
                continue
            und_nb = und[v] & live
            nb = (pa[v] | und_nb) & live
            if all(nb <= adj[w] for w in und_nb):
                break
        else:
            return None
        alive.remove(v)
        order.append(v)
    return order


def all_represented_dags(g: Pdag) -> set[frozenset]:
    """Directed-edge sets of every DAG with the skeleton and unshielded
    colliders of ``g`` that keeps all of g's directed edges."""
    und = sorted(g.undirected)
    base = set(g.directed)
    target_colliders = unshielded_colliders(g)
    out = set()
    for bits in itertools.product((0, 1), repeat=len(und)):
        edges = set(base)
        for (a, b), bit in zip(und, bits):
            edges.add((a, b) if bit == 0 else (b, a))
        try:
            cand = Pdag(g.nodes, directed=edges, class_tag="dag")
        except ValueError:
            continue
        if unshielded_colliders(cand) == target_colliders:
            out.add(frozenset(edges))
    return out


def to_networkx(dag: Pdag) -> nx.DiGraph:
    h = nx.DiGraph()
    h.add_nodes_from(dag.nodes)
    h.add_edges_from(dag.directed)
    return h


def dag_d_separated(dag: Pdag, X, Y, Z) -> bool:
    return nx.is_d_separator(to_networkx(dag), set(X), set(Y), set(Z))


# --------------------------------------------------------------------------
# Closure by full rescan
# --------------------------------------------------------------------------


class EdgeSets:
    """Directed and undirected edge sets; every query scans them."""

    def __init__(self, g: Pdag):
        self.nodes = g.nodes
        self.directed = set(g.directed)
        self.undirected = set(g.undirected)

    def has_dir(self, a, b) -> bool:
        return (a, b) in self.directed

    def has_und(self, a, b) -> bool:
        return (min(a, b), max(a, b)) in self.undirected

    def adjacent(self, a, b) -> bool:
        return self.has_dir(a, b) or self.has_dir(b, a) or self.has_und(a, b)

    def und_neighbors(self, n) -> list:
        return sorted(b if a == n else a for a, b in self.undirected if n in (a, b))

    def parents(self, n) -> list:
        return sorted(a for a, b in self.directed if b == n)

    def orient(self, tail, head) -> None:
        self.undirected.discard((min(tail, head), max(tail, head)))
        self.directed.add((tail, head))

    def rule_applications(self) -> list:
        apps = set()
        for a, b in sorted(self.undirected):
            for tail, head in ((a, b), (b, a)):
                rule = self.which_rule(tail, head)
                if rule is not None:
                    apps.add((rule, tail, head))
        return sorted(apps)

    def which_rule(self, a, b):
        """Lowest Meek rule demanding ``a -> b``, by the raw patterns."""
        for c in self.parents(a):
            if c != b and not self.adjacent(c, b):
                return 1
        for c in self.parents(b):
            if self.has_dir(a, c):
                return 2
        und_a = self.und_neighbors(a)
        pa_b = self.parents(b)
        cands3 = [c for c in und_a if c in pa_b]
        for i, c in enumerate(cands3):
            for d in cands3[i + 1 :]:
                if not self.adjacent(c, d):
                    return 3
        for d in und_a:
            if not self.has_dir(d, b):
                continue
            for c in und_a:
                if c != d and self.has_dir(c, d) and not self.adjacent(c, b):
                    return 4
        return None

    def has_consistent_extension(self) -> bool:
        directed = set(self.directed)
        undirected = set(self.undirected)
        alive = set(self.nodes)

        def neighbors(n):
            return {b if a == n else a for a, b in directed | undirected if n in (a, b)}

        while alive:
            for v in sorted(alive):
                if any(a == v for a, b in directed):
                    continue
                und_nb = {b if a == v else a for a, b in undirected if v in (a, b)}
                rest = neighbors(v) - und_nb
                adj = {n: neighbors(n) for n in und_nb}
                if all(rest <= adj[w] | {w} for w in und_nb) and all(
                    u in adj[w] for u in und_nb for w in und_nb if u != w
                ):
                    directed = {(a, b) for a, b in directed if v not in (a, b)}
                    undirected = {(a, b) for a, b in undirected if v not in (a, b)}
                    alive.remove(v)
                    break
            else:
                return False
        return True

    def has_directed_cycle(self) -> bool:
        return not nx.is_directed_acyclic_graph(nx.DiGraph(list(self.directed)))


def reference_close(g: Pdag, bk=(), *, rng: random.Random | None = None):
    """Closure that re-derives every rule application from scratch after
    each orientation; returns ``(directed, undirected)`` frozensets.

    Raises ``InconsistentKnowledgeError`` in the same cases and with the
    same messages as ``mpdagid.close``, and consumes ``rng`` the same way.
    """
    scratch = EdgeSets(g)
    oriented = []
    pairs = sorted(frozenset(bk))
    for tail, head in pairs:
        if (head, tail) in pairs:
            raise InconsistentKnowledgeError(
                f"background knowledge orients {tail} and {head} both ways"
            )
        if not scratch.adjacent(tail, head):
            raise InconsistentKnowledgeError(
                f"background knowledge pair {tail} -> {head} is not an adjacency"
            )
        if scratch.has_dir(tail, head):
            continue
        if scratch.has_dir(head, tail):
            raise InconsistentKnowledgeError(
                f"background knowledge {tail} -> {head} opposes existing edge"
            )
        scratch.orient(tail, head)
        oriented.append((tail, head))

    while True:
        for tail, head in oriented:
            rule = scratch.which_rule(head, tail)
            if rule is not None:
                raise InconsistentKnowledgeError(
                    f"rule {rule} demands {head} -> {tail} against {tail} -> {head}"
                )
        apps = scratch.rule_applications()
        if not apps:
            break
        _, tail, head = apps[0] if rng is None else rng.choice(apps)
        scratch.orient(tail, head)
        oriented.append((tail, head))

    if scratch.has_directed_cycle():
        raise InconsistentKnowledgeError(
            "closure creates a directed cycle; knowledge is inconsistent"
        )
    if not scratch.has_consistent_extension():
        raise InconsistentKnowledgeError(
            "closure represents no DAG (no consistent extension exists)"
        )
    return frozenset(scratch.directed), frozenset(scratch.undirected)


# --------------------------------------------------------------------------
# Formulas
# --------------------------------------------------------------------------


def structurally_equal(a: IdFormula, b: IdFormula) -> bool:
    """Equality up to factor reordering (product commutativity)."""

    def canon(f: IdFormula):
        return (
            sorted((sorted(fc.targets), sorted(fc.given)) for fc in f.factors),
            sorted(f.integrate_over),
            sorted(f.intervened),
            sorted(f.response),
        )

    return canon(a) == canon(b)


def adjustment_formula(X, Y, Z) -> IdFormula:
    """The adjustment functional ∫ f(y | x, z) f(z) dz as an IdFormula."""
    xs, ys, zs = frozenset(X), frozenset(Y), frozenset(Z)
    factors = [Factor(targets=ys, given=xs | zs)]
    if zs:
        factors.insert(0, Factor(targets=zs))
    return IdFormula(factors=tuple(factors), intervened=xs, response=ys)


# --------------------------------------------------------------------------
# Discrete evaluation over python dicts
# --------------------------------------------------------------------------


def gformula_dict(model, x_assign, Y) -> dict:
    """Truncated factorization by looping over configurations."""
    nodes = list(model.dag.nodes)
    cards = model.cards
    ys = sorted(Y)
    out: dict = {}
    for config in itertools.product(*[range(cards[n]) for n in nodes]):
        assign = dict(zip(nodes, config))
        if any(assign[k] != v for k, v in x_assign.items()):
            continue
        p = 1.0
        for v in nodes:
            if v in x_assign:
                continue
            pa = sorted(model.dag.parents_of(v))
            idx = (assign[v],) + tuple(assign[q] for q in pa)
            p *= float(model.cpts[v][idx])
        key = tuple(assign[y] for y in ys)
        out[key] = out.get(key, 0.0) + p
    return out


def slice_x(table, x_assign) -> np.ndarray:
    """The response's distribution in an ``InterventionalTable`` at one
    configuration of the intervened nodes; an x axis of size one (the law
    does not depend on that node) is read at 0."""
    if frozenset(x_assign) != frozenset(table.x_nodes):
        raise GraphError("x assignment must cover exactly the intervened set")
    shape = table.table.shape
    return table.table[tuple(x_assign[n] if k > 1 else 0 for n, k in zip(table.x_nodes, shape))]


# --------------------------------------------------------------------------
# Discrete tables rebuilt from the CPTs on every call
# --------------------------------------------------------------------------
# The package memoises factors, joints and marginals on each model.  These
# rebuild every table from the CPTs with the same numpy operations in the
# same order, so the memoised tables must equal them bit for bit.


def _expand(nodes, table, table_axes):
    pos = {n: i for i, n in enumerate(nodes)}
    order = sorted(range(len(table_axes)), key=lambda i: pos[table_axes[i]])
    t = np.transpose(table, order)
    shape = [1] * len(nodes)
    for i in order:
        shape[pos[table_axes[i]]] = table.shape[i]
    return t.reshape(shape)


def reference_joint_table(m) -> np.ndarray:
    """The observational joint, axes following ``m.dag.nodes``."""
    nodes = m.dag.nodes
    full = np.ones([m.cards[n] for n in nodes])
    for v in nodes:
        axes = [v] + sorted(m.dag.parents_of(v))
        full = full * _expand(nodes, m.cpts[v], axes)
    return full


def reference_gformula_table(m, X, Y) -> np.ndarray:
    """Truncated factorization, axes ``sorted(X) + sorted(Y)``."""
    xs, ys = frozenset(X), frozenset(Y)
    nodes = m.dag.nodes
    full = np.ones([m.cards[n] for n in nodes])
    for v in nodes:
        if v in xs:
            continue
        axes = [v] + sorted(m.dag.parents_of(v))
        full = full * _expand(nodes, m.cpts[v], axes)
    drop = tuple(i for i, n in enumerate(nodes) if n not in xs | ys)
    table = full.sum(axis=drop)
    kept = [n for n in nodes if n in xs | ys]
    target = sorted(xs) + sorted(ys)
    return np.transpose(table, [kept.index(n) for n in target])


def reference_random_model(dag: Pdag, cardinalities, seed: int) -> dict:
    """The CPTs of ``random_model``, drawn with one ``dirichlet`` call per
    node."""
    rng = np.random.Generator(np.random.PCG64(seed))
    cpts = {}
    for v in dag.nodes:
        pa = sorted(dag.parents_of(v))
        n_cols = math.prod(cardinalities[p] for p in pa) if pa else 1
        draw = rng.dirichlet(np.ones(cardinalities[v]), size=n_cols)
        cpts[v] = np.ascontiguousarray(
            draw.T.reshape((cardinalities[v],) + tuple(cardinalities[p] for p in pa))
        )
    return cpts


def reference_model_from_joint(joint, nodes, cards, dag: Pdag) -> dict:
    """The CPTs of ``model_from_joint``, every family's axes and division
    worked out afresh."""
    cpts = {}
    for v in dag.nodes:
        keep = [v] + sorted(dag.parents_of(v))
        drop = tuple(i for i, n in enumerate(nodes) if n not in keep)
        marg = joint.sum(axis=drop)
        kept_in_order = [n for n in nodes if n in keep]
        marg = np.transpose(marg, [kept_in_order.index(n) for n in keep])
        den = marg.sum(axis=0, keepdims=True)
        cpts[v] = np.divide(marg, den, out=np.full_like(marg, 1.0 / cards[v]), where=den > 0)
    return cpts


def reference_id_formula_table(f, m) -> np.ndarray:
    """A formula evaluated on the joint of ``m``, axes
    ``sorted(intervened) + sorted(response)``."""
    nodes = m.dag.nodes
    joint = reference_joint_table(m)
    pos = {n: i for i, n in enumerate(nodes)}
    prod = np.ones([1] * len(nodes))
    for factor in f.factors:
        keep = factor.targets | factor.given
        drop = tuple(i for i, n in enumerate(nodes) if n not in keep)
        num = joint.sum(axis=drop, keepdims=True)
        den = num.sum(axis=tuple(pos[t] for t in factor.targets), keepdims=True)
        bad = den == 0
        if bad.any():
            raise ValueError("conditioning on a zero-probability event")
        prod = prod * np.divide(num, den, out=np.zeros_like(num), where=~bad)
    io_axes = tuple(pos[n] for n in f.integrate_over)
    table = prod.sum(axis=io_axes, keepdims=True) if io_axes else prod
    keep_nodes = f.intervened | f.response
    drop_axes = tuple(i for i, n in enumerate(nodes) if n not in keep_nodes)
    if drop_axes:
        table = table.squeeze(axis=drop_axes)
    kept = [n for n in nodes if n in keep_nodes]
    target = sorted(f.intervened) + sorted(f.response)
    return np.transpose(table, [kept.index(n) for n in target])


# --------------------------------------------------------------------------
# Gaussian covariance by matrix solve and by path sums
# --------------------------------------------------------------------------


def sem_cov_linalg(model) -> np.ndarray:
    """(I - A)^-1 Omega (I - A)^-T for the SEM coefficient matrix A, where
    A[j, i] is the coefficient of node_i -> node_j."""
    nodes = model.dag.nodes
    idx = {n: i for i, n in enumerate(nodes)}
    a = np.zeros((len(nodes), len(nodes)))
    for (t, h), c in model.coeffs.items():
        a[idx[h], idx[t]] = c
    omega = np.diag([model.noise_vars[n] for n in nodes])
    inv = np.linalg.inv(np.eye(len(nodes)) - a)
    return inv @ omega @ inv.T


def reference_wright_cov(m):
    """Covariance matrix by summing edge-coefficient products over all
    collider-free paths; assumes the unit-variance construction, so the
    diagonal is one."""
    nodes = m.dag.nodes
    idx = {n: i for i, n in enumerate(nodes)}
    cov = np.eye(len(nodes))

    def edge_coeff(a: str, b: str) -> float:
        return m.coeff(a, b) if m.dag.has_directed(a, b) else m.coeff(b, a)

    def paths_between(a: str, b: str):
        found: list[float] = []

        def walk(path: list[str]) -> None:
            u = path[-1]
            for w in sorted(m.dag.neighbors(u)):
                if w in path:
                    continue
                if len(path) >= 2:
                    prev = path[-2]
                    if m.dag.has_directed(prev, u) and m.dag.has_directed(w, u):
                        continue  # collider at u
                path.append(w)
                if w == b:
                    found.append(
                        math.prod(edge_coeff(p, q) for p, q in zip(path, path[1:]))
                    )
                else:
                    walk(path)
                path.pop()

        walk([a])
        return found

    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            s = float(sum(paths_between(a, b)))
            cov[idx[a], idx[b]] = cov[idx[b], idx[a]] = s
    return nodes, cov


def unit_variance_noise(dag: Pdag, coeffs: dict) -> dict:
    """Residual variances that make every SEM variable have variance one.

    Built incrementally in topological order: the variance contributed by
    the parents is a quadratic form in the already-fixed covariances.
    """
    order = reference_topological_order(dag)
    cov = {}
    noise = {}
    for v in order:
        pa = sorted(dag.parents_of(v))
        quad = sum(
            coeffs.get((p, v), 0.0) * coeffs.get((q, v), 0.0) * cov[(p, q)]
            for p in pa
            for q in pa
        )
        if quad >= 1.0:
            raise ValueError("coefficients too large for unit variances")
        noise[v] = 1.0 - quad
        for u in order[: order.index(v)]:
            c = sum(coeffs.get((p, v), 0.0) * cov[(p, u)] for p in pa)
            cov[(v, u)] = cov[(u, v)] = c
        cov[(v, v)] = 1.0
    return noise


def interventional_means(m, x_assign) -> dict:
    """E[V | do(x)] for every node of a zero-mean linear SEM."""
    means: dict = {}
    for v in reference_topological_order(m.dag):
        if v in x_assign:
            means[v] = float(x_assign[v])
        else:
            means[v] = sum(m.coeff(p, v) * means[p] for p in m.dag.parents_of(v))
    return means


def to_csv(data) -> str:
    """A ``Dataset`` as CSV text; ``repr`` keeps every float exact."""
    lines = [",".join(data.columns)]
    lines += [",".join(map(repr, row)) for row in data.rows.tolist()]
    return "\n".join(lines) + "\n"


def causal_path_gradient(dag: Pdag, x: str, other_x, y: str, coeff) -> float:
    """Total effect of x on y with the rest of X held fixed: the sum of
    coefficient products over directed paths avoiding other_x."""
    blocked = set(other_x)
    total = 0.0
    stack = [(x, 1.0)]
    while stack:
        node, prod = stack.pop()
        if node == y:
            total += prod
            continue
        for child in dag.children_of(node):
            if child in blocked:
                continue
            c = coeff.get((node, child), 0.0)
            if c != 0.0:
                stack.append((child, prod * c))
    return total


# --------------------------------------------------------------------------
# Random graph generation
# --------------------------------------------------------------------------


def random_pdag(rng: random.Random, n_nodes: int, p_edge: float = 0.5) -> Pdag:
    """Acyclic random PDAG: directed edges follow a random node order."""
    names = [f"N{i}" for i in range(n_nodes)]
    order = names[:]
    rng.shuffle(order)
    rank = {n: i for i, n in enumerate(order)}
    directed, undirected = [], []
    for a, b in itertools.combinations(names, 2):
        if rng.random() >= p_edge:
            continue
        if rng.random() < 0.5:
            undirected.append((a, b))
        else:
            t, h = (a, b) if rank[a] < rank[b] else (b, a)
            directed.append((t, h))
    return Pdag(names, directed, undirected)


def random_dag(rng: random.Random, n_nodes: int, p_edge: float) -> Pdag:
    """Random DAG: each pair is joined with probability ``p_edge``, the
    arrow following a random node order."""
    names = [f"N{i}" for i in range(n_nodes)]
    order = rng.sample(names, n_nodes)
    edges = [(a, b) for a, b in itertools.combinations(order, 2) if rng.random() < p_edge]
    return Pdag(names, edges, class_tag="dag")


def random_mpdags(seed: int, count: int, n_nodes=(2, 3, 4, 5), p_edge: float = 0.5):
    """Yield ``count`` distinct MPDAGs from closing random PDAGs."""
    rng = random.Random(seed)
    seen = set()
    made = 0
    while made < count:
        n = rng.choice(n_nodes)
        try:
            g = close(random_pdag(rng, n, p_edge))
        except InconsistentKnowledgeError:
            continue
        key = (g.nodes, g.directed, g.undirected)
        if key in seen:
            continue
        seen.add(key)
        made += 1
        yield g
