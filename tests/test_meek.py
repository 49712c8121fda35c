import collections
import cProfile
import itertools
import os
import pstats
import random
import re

import pytest

from mpdagid import meek
from mpdagid import (
    GraphError,
    GraphParseError,
    InconsistentKnowledgeError,
    Pdag,
    UnknownNodeError,
    close,
    identify,
    is_mpdag,
    parse_background_knowledge,
    parse_graph,
)

import oracles
from conftest import fresh_python


def test_closure_with_knowledge_matches_target(cpdag4, mpdag4):
    closed = close(cpdag4, {("Y1", "X"), ("X", "Y2")})
    assert closed == mpdag4
    assert closed.class_tag == "mpdag"


def test_closing_a_dag_is_identity(twotreat7):
    assert close(twotreat7, ()) == twotreat7


def test_contradictory_knowledge_rejected(pair):
    with pytest.raises(InconsistentKnowledgeError):
        close(pair, {("X", "Y"), ("Y", "X")})


def test_knowledge_must_be_an_adjacency():
    g = parse_graph("A -- B\nnode C")
    with pytest.raises(InconsistentKnowledgeError):
        close(g, {("A", "C")})


def test_knowledge_against_existing_direction():
    g = parse_graph("A -> B")
    with pytest.raises(InconsistentKnowledgeError):
        close(g, {("B", "A")})


def test_cyclic_knowledge_rejected():
    g = parse_graph("A -- B\nB -- C\nA -- C")
    with pytest.raises(InconsistentKnowledgeError):
        close(g, {("A", "B"), ("B", "C"), ("C", "A")})


def _checked_mpdag() -> Pdag:
    """A - B - C with C -> D, checked by ``require_mpdag``."""
    return meek.require_mpdag(Pdag("ABCD", [("C", "D")], [("A", "B"), ("B", "C")]))


@pytest.mark.parametrize(
    "bk, error, message",
    [
        ([("Z", "A")], UnknownNodeError, "unknown node: Z"),
        ([("A", "Z")], UnknownNodeError, "unknown node: Z"),
        (
            [("B", "A"), ("A", "B")],
            InconsistentKnowledgeError,
            "background knowledge orients A and B both ways",
        ),
        (
            [("A", "C")],
            InconsistentKnowledgeError,
            "background knowledge pair A -> C is not an adjacency",
        ),
        # (A, A) is its own reverse, but it is no adjacency, not two ways.
        (
            [("A", "A")],
            InconsistentKnowledgeError,
            "background knowledge pair A -> A is not an adjacency",
        ),
        (
            [("D", "C")],
            InconsistentKnowledgeError,
            "background knowledge D -> C opposes existing edge",
        ),
        # One pair given as a tuple, the form of enumerate_dags' branch step.
        ((("Z", "A"),), UnknownNodeError, "unknown node: Z"),
        (
            (("A", "C"),),
            InconsistentKnowledgeError,
            "background knowledge pair A -> C is not an adjacency",
        ),
        (
            (("A", "A"),),
            InconsistentKnowledgeError,
            "background knowledge pair A -> A is not an adjacency",
        ),
        (
            (("D", "C"),),
            InconsistentKnowledgeError,
            "background knowledge D -> C opposes existing edge",
        ),
    ],
    ids=[
        "unknown-tail", "unknown-head", "both-ways", "non-adjacent", "self-pair", "against-arrow",
        "unknown-tail-tuple", "non-adjacent-tuple", "self-pair-tuple", "against-arrow-tuple",
    ],
)
def test_knowledge_checks_run_on_a_checked_mpdag(bk, error, message):
    g = _checked_mpdag()
    with pytest.raises(GraphError) as caught:
        close(g, bk)
    assert caught.type is error
    assert str(caught.value) == message


def test_knowledge_repeating_an_arrow_of_a_checked_mpdag_changes_nothing():
    g = _checked_mpdag()
    h = close(g, [("C", "D")])
    assert h == g
    assert h.class_tag == "mpdag"
    assert h._adj is g._adj


def test_one_pair_on_an_untagged_graph_is_checked_in_full():
    # The chordless 4-cycle fires no rule; A -> B propagates round it.
    g = parse_graph("A -- B\nB -- C\nC -- D\nD -- A\n")
    with pytest.raises(InconsistentKnowledgeError) as caught:
        close(g, (("A", "B"),))
    assert str(caught.value) == "closure creates a directed cycle; knowledge is inconsistent"
    rng = random.Random(35)
    cases = failures = 0
    for _ in range(200):
        g = oracles.random_pdag(rng, rng.randint(3, 7), rng.choice((0.4, 0.7)))
        for a, b in sorted(g.directed | g.undirected):
            for pair in ((a, b), (b, a)):
                expected = _outcome(oracles.reference_close, g, (pair,))
                assert _outcome(close, g, (pair,)) == expected, (g.to_edgelist(), pair)
                cases += 1
                failures += isinstance(expected, str)
    assert 0 < failures < cases


def _same_closure(h, ref, g):
    """``h`` equals ``ref`` in edges and maps, is tagged ``mpdag`` and
    shares ``g``'s neighbourhood map."""
    assert (h.directed, h.undirected) == (ref.directed, ref.undirected)
    assert (h._parents, h._children, h._und) == (ref._parents, ref._children, ref._und)
    assert h.class_tag == "mpdag"
    assert h._adj is g._adj


def test_knowledge_form_does_not_matter(sweep):
    # Every form of one pair, and the pair repeated, which takes the
    # general knowledge checks, give the same closure.
    forms = (list, frozenset, set, lambda bk: (pair for pair in bk), lambda bk: bk * 2)
    graphs = [g for g, _ in sweep]
    graphs += oracles.random_mpdags(seed=35, count=100, n_nodes=(6, 7, 8), p_edge=0.6)
    cases = 0
    for g in graphs:
        for a, b in sorted(g.undirected):
            for bk in (((a, b),), ((b, a),)):
                ref = close(g, bk)
                for form in forms:
                    _same_closure(close(g, form(bk)), ref, g)
                cases += 1
    assert cases > 1000


def test_enumeration_closes_each_branch_through_the_module_close(monkeypatch):
    # perfbench's tracer times the branch closes by rebinding meek.close,
    # so enumeration must look close up in the module at every branch.
    g = meek.require_mpdag(parse_graph("A -- B\nA -- C\nA -- D\nB -- C\nC -- D\n"))
    profile = cProfile.Profile()
    dags = profile.runcall(meek.enumerate_dags, g)
    code = meek.close.__code__
    ((_, profiled, *_),) = [
        stats for (filename, line, name), stats in pstats.Stats(profile).stats.items()
        if (filename, line, name) == (code.co_filename, code.co_firstlineno, "close")
    ]
    seen = []
    real = meek.close

    def counted(h, bk=()):
        seen.append(bk)
        return real(h, bk)

    monkeypatch.setattr(meek, "close", counted)
    assert meek.enumerate_dags(g) == dags
    assert len(dags) >= 3
    assert len(seen) == profiled > 1
    assert all(len(bk) == 1 for bk in seen)


def test_rule_1_orients_away_from_arrow():
    g = parse_graph("A -> B\nB -- C")
    closed = close(g, ())
    assert closed.directed == {("A", "B"), ("B", "C")}


def test_rule_2_closes_the_triangle():
    g = parse_graph("A -> C\nC -> B\nA -- B")
    closed = close(g, ())
    assert ("A", "B") in closed.directed


def test_rule_3_orients_into_the_collider():
    g = parse_graph("A -- B\nA -- C\nA -- D\nC -> B\nD -> B")
    closed = close(g, ())
    assert ("A", "B") in closed.directed
    # the other two undirected edges stay undirected
    assert closed.undirected == {("A", "C"), ("A", "D")}


def test_rule_4_orients_toward_the_chain_end():
    g = parse_graph("A -- B\nA -- C\nA -- D\nC -> D\nD -> B")
    closed = close(g, ())
    assert ("A", "B") in closed.directed


@pytest.mark.parametrize(
    "text, a, b, rule",
    [
        ("C -> A\nA -- B", "A", "B", 1),  # pa[B] is empty
        ("C -> A\nA -- B", "B", "A", None),
        ("A -- B", "A", "B", None),
        ("A -> C\nC -> B\nA -- B", "A", "B", 2),
        ("A -- B\nA -- C\nA -- D\nC -> B\nD -> B", "A", "B", 3),
        ("A -- B\nA -- C\nA -- D\nC -> D\nD -> B", "A", "B", 4),
        ("A -- B\nA -- C\nA -- D\nC -> D\nD -> B", "A", "C", None),  # pa[C] is empty
    ],
    ids=["rule1-orphan-head", "none-reverse", "none-lone-edge", "rule2", "rule3", "rule4",
         "none-orphan-head"],
)
def test_which_rule_names_the_lowest_rule(text, a, b, rule):
    g = parse_graph(text)
    assert meek._which_rule(g._parents, g._children, g._und, g._adj, a, b) == rule


def test_is_mpdag_goldens(mpdag4, twotreat7):
    assert is_mpdag(mpdag4)
    assert is_mpdag(twotreat7)
    assert not is_mpdag(parse_graph("A -> B\nB -- C"))


def test_closure_idempotent_on_goldens(cpdag4):
    closed = close(cpdag4, {("Y1", "X"), ("X", "Y2")})
    assert close(closed, ()) == closed


def test_closure_idempotent_random():
    for g in oracles.random_mpdags(seed=21, count=40):
        assert close(g, ()) == g


def test_closure_monotone_random():
    rng = random.Random(3)
    for _ in range(60):
        g = oracles.random_pdag(rng, rng.choice((3, 4, 5)))
        try:
            closed = close(g, ())
        except InconsistentKnowledgeError:
            continue
        assert g.directed <= closed.directed
        assert is_mpdag(closed)


def test_closure_confluent_under_random_rule_orders():
    # The reference closure applies the fireable rules in random orders;
    # every order must give close's closure, and an inconsistent input
    # must fail under every order.
    rng = random.Random(9)
    for trial in range(60):
        g = oracles.random_pdag(rng, rng.choice((4, 5, 6)))
        try:
            closed = close(g, ())
            expected = (closed.directed, closed.undirected)
        except InconsistentKnowledgeError:
            expected = None
        for k in range(6):
            try:
                alt = oracles.reference_close(g, (), rng=random.Random(1000 * trial + k))
            except InconsistentKnowledgeError:
                alt = None
            assert alt == expected


def test_no_rule_fires_after_closure_random():
    for g in oracles.random_mpdags(seed=33, count=40):
        assert not oracles.EdgeSets(g).rule_applications()


def test_graph_without_consistent_extension_is_refused_like_close():
    # A chordless 4-cycle fires no rule, yet every orientation adds a
    # directed cycle or a new collider: no DAG is represented.
    g = parse_graph("A -- B\nB -- C\nC -- D\nD -- A\n")
    assert is_mpdag(g)
    message = "no consistent extension"
    with pytest.raises(InconsistentKnowledgeError, match=message):
        close(g)
    with pytest.raises(GraphError, match=message):
        identify(g, {"A"}, {"C"})
    with pytest.raises(GraphError, match=message):
        g.possible_descendants({"A"})


def test_untagged_close_runs_sink_elimination_once(monkeypatch):
    # The removal order that close's own full check finds proves the
    # extension, and close runs the rule check on the closure once.
    calls = collections.Counter()

    def counted(name, f):
        def wrapped(*args):
            calls[name] += 1
            return f(*args)

        return wrapped

    monkeypatch.setattr(meek, "_sink_order", counted("_sink_order", meek._sink_order))
    monkeypatch.setattr(meek, "is_mpdag", counted("is_mpdag", meek.is_mpdag))
    rng = random.Random(41)
    checked = 0
    for _ in range(200):
        g = oracles.random_pdag(rng, rng.randint(3, 8), 0.6)
        calls.clear()
        try:
            h = close(g)
        except InconsistentKnowledgeError:
            continue
        if h.undirected:
            assert calls == {"_sink_order": 1, "is_mpdag": 1}, g.to_edgelist()
            checked += 1
    assert checked > 50
    # The boundary check of an untagged graph runs sink elimination on it.
    calls.clear()
    path = Pdag(["A", "B", "C"], (), [("A", "B"), ("B", "C")])
    assert meek.require_mpdag(path).class_tag == "mpdag"
    assert calls == {"_sink_order": 1, "is_mpdag": 1}


def test_parse_background_knowledge_directed_only():
    assert parse_background_knowledge("A -> B\nC -> D") == {("A", "B"), ("C", "D")}
    with pytest.raises(GraphParseError):
        parse_background_knowledge("A -- B")


def _outcome(closer, g, bk):
    """``(directed, undirected)`` of a closure, or the error message."""
    try:
        res = closer(g, bk)
    except InconsistentKnowledgeError as exc:
        return str(exc)
    return res if isinstance(res, tuple) else (res.directed, res.undirected)


def _random_knowledge(rng, g):
    """0-2 pairs, mostly adjacencies, each in a random direction."""
    adjacent = sorted(g.directed | g.undirected)
    others = [(a, b) for i, a in enumerate(g.nodes) for b in g.nodes[i + 1 :]]
    bk = []
    for _ in range(rng.randint(0, 2)):
        a, b = rng.choice(adjacent if adjacent and rng.random() < 0.9 else others)
        bk.append((a, b) if rng.random() < 0.5 else (b, a))
    return bk


def test_close_matches_full_rescan_on_random_pdags():
    rng = random.Random(41)
    failures = 0
    for _ in range(1500):
        g = oracles.random_pdag(rng, rng.randint(3, 8), rng.choice((0.3, 0.5, 0.7)))
        bk = _random_knowledge(rng, g)
        expected = _outcome(oracles.reference_close, g, bk)
        assert _outcome(close, g, bk) == expected, (g.to_edgelist(), bk)
        failures += isinstance(expected, str)
    assert 200 < failures < 1300  # both outcomes are exercised


def _random_cpdag(rng, n_nodes):
    """CPDAG of a random DAG: arrows into unshielded colliders, then closed."""
    order = [f"N{i}" for i in range(n_nodes)]
    rng.shuffle(order)
    edges = [(a, b) for i, a in enumerate(order) for b in order[i + 1 :] if rng.random() < 0.6]
    colliders = oracles.unshielded_colliders(Pdag(order, edges, (), "dag"))
    arrows = {(a, b) for a, b, _ in colliders} | {(c, b) for _, b, c in colliders}
    return close(Pdag(order, arrows, [e for e in edges if e not in arrows]))


def test_close_matches_full_rescan_when_orienting_one_edge_of_an_mpdag():
    # The enumeration step: a closed graph plus one orientation, at every
    # graph of the branching that enumerate_dags walks.
    cases = 0

    def walk(g):
        nonlocal cases
        for a, b in sorted(g.undirected):
            for pair in ((a, b), (b, a)):
                expected = _outcome(oracles.reference_close, g, (pair,))
                assert _outcome(close, g, (pair,)) == expected, (g.to_edgelist(), pair)
                cases += 1
        if g.undirected:
            a, b = min(g.undirected)
            for pair in ((a, b), (b, a)):
                walk(close(g, (pair,)))

    rng = random.Random(5)
    for _ in range(60):
        walk(_random_cpdag(rng, rng.randint(5, 8)))
    for g in oracles.random_mpdags(seed=5, count=100, n_nodes=(5, 6, 7, 8), p_edge=0.6):
        walk(g)
    assert cases > 3000


def _directable_cycles(g, longest=5):
    """For each skeleton cycle of 3-5 nodes whose directed edges all point
    one way round it, its undirected edges oriented that way round."""
    out = []

    def extend(path):
        u = path[-1]
        for w in sorted(g.parents_of(u) | g.children_of(u) | g.und_neighbors(u)):
            if w == path[0] and len(path) >= 3:
                steps = list(zip(path, path[1:] + [path[0]]))
                todo = [(a, b) for a, b in steps if b in g.und_neighbors(a)]
                if todo and not any(g.has_directed(b, a) for a, b in steps):
                    out.append(todo)
            elif w > path[0] and w not in path and len(path) < longest:
                extend(path + [w])

    for v in sorted(g.nodes):
        extend([v])
    return out


def _mixed_knowledge(rng, g):
    """1-3 pairs of five kinds: an undirected edge in either direction
    (drawn half the time, so that most knowledge holds), a directed edge
    as it is, a directed edge reversed, a non-adjacent pair, and the
    first pairs of a cycle from ``_directable_cycles`` (cycle-making
    knowledge)."""
    undirected = sorted(g.undirected)
    undirected += [(b, a) for a, b in undirected]
    kinds = {
        "undirected": undirected,
        "directed": sorted(g.directed),
        "reversed": [(b, a) for a, b in sorted(g.directed)],
        "non-adjacent": [
            pair for pair in itertools.permutations(sorted(g.nodes), 2) if not g.adjacent(*pair)
        ],
        "cycle": _directable_cycles(g),
    }
    kinds = {k: v for k, v in kinds.items() if v}
    n = rng.randint(1, 3)
    bk = []
    while len(bk) < n:
        kind = "undirected" if undirected and rng.random() < 0.5 else rng.choice(sorted(kinds))
        pick = rng.choice(kinds[kind])
        bk.extend(pick[: n - len(bk)] if kind == "cycle" else [pick])
    return bk


def _assert_carries_an_extension(h):
    assert oracles.represents(h, meek.consistent_extension(h).directed), h.to_edgelist()


def test_close_with_a_carried_dag_matches_full_rescan(sweep):
    # Every graph of the enumeration walk represents a DAG, which
    # consistent_extension finds.  Closing any of them with knowledge must
    # give the reference's closure or its exact message, and
    # consistent_extension must find a DAG that the closure represents.
    rng = random.Random(17)
    closed = 0
    messages = collections.Counter()

    def walk(g):
        nonlocal closed
        _assert_carries_an_extension(g)
        for _ in range(6):
            bk = _mixed_knowledge(rng, g)
            expected = _outcome(oracles.reference_close, g, bk)
            try:
                h = close(g, bk)
            except InconsistentKnowledgeError as exc:
                assert str(exc) == expected, (g.to_edgelist(), bk)
                messages[re.sub(r"\bN\d+\b", "_", re.sub(r"rule \d", "rule k", str(exc)))] += 1
                continue
            assert (h.directed, h.undirected) == expected, (g.to_edgelist(), bk)
            _assert_carries_an_extension(h)
            closed += 1
        if g.undirected:
            a, b = min(g.undirected)
            for pair in ((a, b), (b, a)):
                walk(close(g, (pair,)))

    graphs = [g for g, _ in sweep]
    graphs += oracles.random_mpdags(seed=88, count=60, n_nodes=(6, 7, 8), p_edge=0.6)
    for g in graphs:
        walk(g)
    print(closed, dict(messages))
    assert closed > 2000


def _sink_order_cases(sweep):
    """``(nodes, pa, ch, und)`` of the sweep graphs, of random 6-8-node
    MPDAGs and every graph of their enumeration walk, of each of those
    with one undirected edge oriented at random and not closed, and of
    random unclosed PDAGs; the last two often represent no DAG."""
    rng = random.Random(23)
    graphs = []

    def walk(g):
        graphs.append(g)
        if g.undirected:
            a, b = min(g.undirected)
            for pair in ((a, b), (b, a)):
                try:
                    walk(close(g, (pair,)))
                except InconsistentKnowledgeError:
                    pass

    for g in oracles.random_mpdags(seed=31, count=60, n_nodes=(6, 7, 8), p_edge=0.6):
        walk(g)
    graphs += [g for g, _ in sweep]
    for g in list(graphs):
        if g.undirected:
            a, b = rng.choice(sorted(g.undirected))
            tail, head = (a, b) if rng.random() < 0.5 else (b, a)
            graphs.append(Pdag(g.nodes, g.directed | {(tail, head)}, g.undirected - {(a, b)}))
    for _ in range(300):
        graphs.append(oracles.random_pdag(rng, rng.choice((4, 5, 6, 7, 8)), 0.6))
    return [(g.nodes, g._parents, g._children, g._und) for g in graphs]


def test_sink_order_matches_rescanning_reference(sweep):
    outcomes = collections.Counter()
    for nodes, pa, ch, und in _sink_order_cases(sweep):
        expected = oracles.reference_sink_order(nodes, pa, ch, und)
        adj = {n: pa[n] | ch[n] | und[n] | {n} for n in nodes}
        got = meek._sink_order(nodes, pa, ch, und, adj)
        assert got == expected, (nodes, pa, und)
        outcomes["stuck" if got is None else "order"] += 1
    print(dict(outcomes))
    assert outcomes["stuck"] > 100 and outcomes["order"] > 1000


def test_consistent_extension_does_not_depend_on_string_hashing():
    # The removal order picks which represented DAG consistent_extension
    # finds; it must pick the same one under any hash seed.
    script = """
import oracles
from mpdagid.meek import consistent_extension
for h in oracles.random_mpdags(seed=5, count=40, n_nodes=(7, 8)):
    print(consistent_extension(h).to_edgelist())
"""
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    runs = []
    for seed in ("0", "1"):
        done = fresh_python("-c", f"import sys; sys.path.insert(0, {tests_dir!r})\n" + script,
                            PYTHONHASHSEED=seed)
        assert done.returncode == 0, done.stderr
        runs.append(done.stdout)
    assert runs[0] == runs[1]


def test_is_mpdag_checks_each_undirected_edge_both_ways():
    # Rule 1 fires on C -> B -- A as B -> A only: the (A, B) check passes
    # and the reverse (B, A) check decides.
    g = parse_graph("C -> B\nA -- B\n")
    assert g.undirected == {("A", "B")}
    assert meek._which_rule(g._parents, g._children, g._und, g._adj, "A", "B") is None
    assert not is_mpdag(g)
