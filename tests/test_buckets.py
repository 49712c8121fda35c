import itertools
import random

import pytest

from mpdagid import GraphError, Pdag, close, enumerate_dags, parse_graph, pco

import oracles


def _decomposition(g, D):
    """The buckets of D sorted by smallest member: pco's order forgotten."""
    return tuple(sorted(pco(g, D), key=min))


def test_decomposition_golden(mpdag4):
    assert _decomposition(mpdag4, mpdag4.nodes) == (
        frozenset({"X", "V1", "Y1"}),
        frozenset({"Y2"}),
    )


def test_decomposition_of_dag_is_singletons(twotreat7):
    parts = _decomposition(twotreat7, twotreat7.nodes)
    assert all(len(b) == 1 for b in parts)
    assert len(parts) == len(twotreat7.nodes)


def test_decomposition_connected_undirected_graph_is_one_bucket():
    g = parse_graph("A -- B\nB -- C")
    assert _decomposition(g, g.nodes) == (frozenset({"A", "B", "C"}),)


def test_decomposition_connects_through_nodes_outside_d():
    # A and B are joined by an undirected path through C, so they share a
    # bucket even when C is not in the queried set.
    g = parse_graph("A -- C\nC -- B")
    assert _decomposition(g, {"A", "B"}) == (frozenset({"A", "B"}),)


def test_pco_goldens(mpdag4):
    assert pco(mpdag4, {"X", "Y1", "Y2"}) == (frozenset({"X", "Y1"}), frozenset({"Y2"}))
    assert pco(mpdag4, {"Y1", "Y2"}) == (frozenset({"Y1"}), frozenset({"Y2"}))
    assert pco(mpdag4, set()) == ()


def test_pco_rejects_non_mpdag():
    g = parse_graph("A -> B\nB -- C")
    with pytest.raises(GraphError):
        pco(g, {"A"})


def test_pco_partitions_and_matches_full_buckets():
    rng = random.Random(7)
    for g in oracles.random_mpdags(seed=19, count=80):
        nodes = sorted(g.nodes)
        d = frozenset(n for n in nodes if rng.random() < 0.6)
        parts = pco(g, d)
        flat = [n for b in parts for n in b]
        assert sorted(flat) == sorted(d)
        full = set(_decomposition(g, g.nodes))
        for b in parts:
            assert any(b == comp & d for comp in full)


def test_pco_ordering_property():
    rng = random.Random(17)
    for g in oracles.random_mpdags(seed=29, count=80):
        d = frozenset(n for n in g.nodes if rng.random() < 0.7)
        parts = pco(g, d)
        for i, j in itertools.combinations(range(len(parts)), 2):
            for a in parts[i]:
                for b in parts[j]:
                    assert not g.has_directed(b, a)
                    assert b not in g.und_neighbors(a)


def _cpdag(dag):
    """The CPDAG of ``dag``: its skeleton with only the unshielded
    colliders directed, closed under the orientation rules."""
    directed = {(t, h) for a, h, c in oracles.unshielded_colliders(dag) for t in (a, c)}
    skeleton = {tuple(sorted(e)) for e in dag.directed}
    undirected = {(a, b) for a, b in skeleton if (a, b) not in directed and (b, a) not in directed}
    return close(Pdag(dag.nodes, directed, undirected))


def test_pco_equals_rescan_reference(sweep):
    rng = random.Random(9)
    cases = []
    for g, _ in sweep:
        cases += [(g, g.nodes), (g, rng.sample(g.nodes, rng.randint(0, len(g.nodes))))]
    for g in oracles.random_mpdags(seed=61, count=120, n_nodes=(6, 7, 8)):
        cases += [(g, g.nodes), (g, rng.sample(g.nodes, rng.randint(0, len(g.nodes))))]
    for n in (20, 40, 60):
        dag = oracles.random_dag(random.Random(n), n, 4 / n)
        cpdag = _cpdag(dag)
        assert cpdag.undirected
        for g in (dag, cpdag):
            cases += [(g, g.nodes), (g, rng.sample(g.nodes, n // 2))]
    for g, d in cases:
        assert pco(g, d) == oracles.reference_pco(g, d)


def test_pco_consistent_with_every_represented_dag():
    for g in oracles.random_mpdags(seed=37, count=50):
        parts = pco(g, g.nodes)
        rank = {n: i for i, b in enumerate(parts) for n in b}
        for d in enumerate_dags(g):
            # a topological order refining the bucket order exists exactly
            # when no arrow runs from a later bucket to an earlier one
            assert all(rank[t] <= rank[h] for t, h in d.directed)


def test_pco_terminates_on_fuzzed_mpdags():
    rng = random.Random(4)
    for g in oracles.random_mpdags(seed=47, count=200, n_nodes=(2, 3, 4, 5, 6, 7)):
        d = frozenset(n for n in g.nodes if rng.random() < 0.5)
        pco(g, d)


def test_pco_deterministic(mpdag4, covar5):
    for g in (mpdag4, covar5):
        assert pco(g, g.nodes) == pco(g, g.nodes)


def test_pco_full_ordering_golden(covar5):
    assert pco(covar5, covar5.nodes) == (
        frozenset({"V1", "V2", "V3"}),
        frozenset({"X"}),
        frozenset({"Y"}),
    )
