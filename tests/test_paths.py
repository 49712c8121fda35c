import itertools
import random
import signal

import pytest

from mpdagid import (
    GraphError,
    Pdag,
    amenability_witness,
    classify_path,
    close,
    d_separated,
    enumerate_dags,
    exists_possibly_causal,
    exists_proper_pcp_starting_undirected,
    forbidden_set,
    parse_graph,
    relatives,
    unblocked_proper_noncausal_path,
)

import oracles
from conftest import query_pairs


def test_classify_blocked_by_back_edge(mpdag4):
    st = classify_path(mpdag4, ("X", "V1", "Y1"), {"X"})
    assert not st.possibly_causal  # Y1 -> X points back at the start
    assert st.proper


def test_classify_direct_causal_edge(mpdag4):
    st = classify_path(mpdag4, ("X", "Y2"), {"X"})
    assert st.possibly_causal and st.definite_status and st.proper


def test_classify_improper_through_sources(chain3):
    st = classify_path(chain3, ("X1", "X2", "Y"), {"X1", "X2"})
    assert st.possibly_causal
    assert not st.proper


def test_classify_rejects_non_path(mpdag4):
    with pytest.raises(GraphError):
        classify_path(mpdag4, ("V1", "Y2"), {"V1"})
    with pytest.raises(GraphError):
        classify_path(mpdag4, ("X",), {"X"})


def test_definite_status_requires_unshielded_undirected_triple():
    g = parse_graph("A -- B\nB -- C\nA -- C")
    st = classify_path(g, ("A", "B", "C"), {"A"})
    assert not st.definite_status
    h = parse_graph("A -- B\nB -- C")
    assert classify_path(h, ("A", "B", "C"), {"A"}).definite_status


def test_fully_directed_path_possibly_causal_until_reversed():
    names = ["A", "B", "C", "D", "E"]
    chain = list(zip(names, names[1:]))
    g = parse_graph("\n".join(f"{a} -> {b}" for a, b in chain))
    assert classify_path(g, tuple(names), {"A"}).possibly_causal
    for k in range(len(chain)):
        edges = [(b, a) if i == k else (a, b) for i, (a, b) in enumerate(chain)]
        h = parse_graph("\n".join(f"{a} -> {b}" for a, b in edges))
        assert not classify_path(h, tuple(names), {"A"}).possibly_causal


def test_witness_on_undirected_pair(pair):
    assert amenability_witness(pair, {"X"}, {"Y"}) == ("X", "Y")


def test_no_witness_when_first_edge_directed(chain3, mpdag4, covar5):
    assert not exists_proper_pcp_starting_undirected(chain3, {"X1", "X2"}, {"Y"})
    assert not exists_proper_pcp_starting_undirected(mpdag4, {"X"}, {"Y1", "Y2"})
    assert not exists_proper_pcp_starting_undirected(covar5, {"X"}, {"Y"})


def test_witness_found_through_shielded_path():
    # X - V -> Y with the shield X -> Y: the only undirected-start witness
    # is shielded, so a search over unshielded paths would miss it.
    g = parse_graph("X -- V\nV -> Y\nX -> Y")
    w = amenability_witness(g, {"X"}, {"Y"})
    assert w == ("X", "V", "Y")


def test_witness_matches_brute_force_random(sweep):
    # The search must return the very path the exhaustive breadth-first
    # walk returns (the CLI prints it), on the sweep and on 6-8-node MPDAGs.
    graphs = [g for g, _ in sweep]
    graphs += oracles.random_mpdags(seed=41, count=120, n_nodes=(6, 7, 8))
    for g in graphs:
        for xs, ys in query_pairs(g.nodes):
            w = amenability_witness(g, xs, ys)
            assert w == oracles.reference_witness(g, xs, ys), (g.to_edgelist(), xs, ys)
            if len(g.nodes) <= 5 and len(xs) == len(ys) == 1:
                assert (w is not None) == oracles.witness_exists(g, xs, ys)
            if w is not None:
                st = classify_path(g, w, xs)
                assert st.possibly_causal and st.proper and w[-1] in ys
                assert g.has_undirected(w[0], w[1])


def test_forbidden_set_and_possibly_causal_match_reference(sweep):
    # forbidden_set equals the path definition on amenable pairs and
    # refuses the others; exists_possibly_causal equals the walk.
    graphs = [g for g, _ in sweep]
    graphs += oracles.random_mpdags(seed=43, count=30, n_nodes=(6, 7, 8))
    refused = 0
    for g in graphs:
        for xs, ys in query_pairs(g.nodes):
            assert exists_possibly_causal(g, xs, ys) == oracles.reference_exists_possibly_causal(
                g, xs, ys
            )
            if oracles.reference_witness(g, xs, ys) is None:
                assert forbidden_set(g, xs, ys) == oracles.reference_forbidden_set(g, xs, ys)
            else:
                refused += 1
                with pytest.raises(GraphError, match="not amenable"):
                    forbidden_set(g, xs, ys)
    assert refused > 0


def test_queries_on_chordal_18_nodes_finish_within_5_seconds():
    # Simple-path enumeration took minutes on this graph; the state search
    # must stay polynomial.  The alarm stops a hang instead of waiting it out.
    g = _chordal_mpdag(random.Random(5), 18)
    assert len(g.undirected) >= 50

    def timeout(signum, frame):
        raise TimeoutError("possibly causal queries took over 5 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        for n in g.nodes:
            assert relatives(g, {n}, "ancestors") <= relatives(g, {n}, "possible_ancestors")
        for x, y in itertools.permutations(g.nodes, 2):
            w = amenability_witness(g, {x}, {y})
            if w is None:
                forbidden_set(g, {x}, {y})
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _chordal_mpdag(rng, n):
    """Each new node joins a clique of up to 4 earlier nodes, grown greedily
    from a random node's neighbourhood; closed with the knowledge N0 -> v."""
    names = [f"N{i}" for i in range(n)]
    adj = {names[0]: set()}
    for v in names[1:]:
        start = rng.choice(sorted(adj))
        clique = {start}
        for u in rng.sample(sorted(adj[start]), len(adj[start])):
            if len(clique) < 4 and all(u in adj[c] for c in clique):
                clique.add(u)
        adj[v] = set(clique)
        for c in clique:
            adj[c].add(v)
    edges = {tuple(sorted((a, b))) for a in adj for b in adj[a]}
    g = Pdag(names, undirected=edges)
    return close(g, [("N0", min(adj["N0"]))])


def test_witness_requires_nonempty_disjoint(pair):
    with pytest.raises(GraphError):
        amenability_witness(pair, set(), {"Y"})
    with pytest.raises(GraphError):
        amenability_witness(pair, {"X"}, {"X"})


def test_witness_survives_dropping_offpath_sources():
    # Removing source nodes that the witness path avoids never hides it.
    for g in oracles.random_mpdags(seed=77, count=60):
        nodes = sorted(g.nodes)
        if len(nodes) < 3:
            continue
        xs, y = set(nodes[:2]), nodes[-1]
        if y in xs:
            continue
        w = amenability_witness(g, xs, {y})
        if w is None:
            continue
        for drop in xs:
            if drop != w[0] and drop not in w:
                assert exists_proper_pcp_starting_undirected(g, xs - {drop}, {y})


def test_exists_possibly_causal(mpdag4):
    assert not exists_possibly_causal(mpdag4, {"Y2"}, {"X"})
    assert exists_possibly_causal(mpdag4, {"X"}, {"Y2"})
    g = parse_graph("node A\nnode B")
    assert not exists_possibly_causal(g, {"A"}, {"B"})


def test_d_separation_chain_and_collider():
    chain = parse_graph("X -> Z\nZ -> Y")
    assert d_separated(chain, {"X"}, {"Y"}, {"Z"})
    assert not d_separated(chain, {"X"}, {"Y"}, set())
    collider = parse_graph("X -> C\nY -> C")
    assert d_separated(collider, {"X"}, {"Y"}, set())
    assert not d_separated(collider, {"X"}, {"Y"}, {"C"})


def test_d_separation_through_confounder(twotreat7):
    assert not d_separated(twotreat7, {"X2"}, {"Y"}, set())


def test_d_separation_overlap_rejected(mpdag4):
    with pytest.raises(GraphError):
        d_separated(mpdag4, {"X"}, {"Y1"}, {"X"})


def test_d_separation_sound_for_every_represented_dag():
    for g in oracles.random_mpdags(seed=13, count=60):
        nodes = sorted(g.nodes)
        if len(nodes) < 3:
            continue
        dags = enumerate_dags(g)
        for x, y in itertools.permutations(nodes, 2):
            rest = [n for n in nodes if n not in (x, y)]
            for r in range(len(rest) + 1):
                for z in itertools.combinations(rest, r):
                    if d_separated(g, {x}, {y}, set(z)):
                        for d in dags:
                            assert oracles.dag_d_separated(d, {x}, {y}, set(z))


def test_forbidden_set_goldens(mpdag4, twotreat7):
    assert forbidden_set(twotreat7, {"X1", "X2"}, {"Y"}) == {"V4", "Y"}
    assert forbidden_set(mpdag4, {"X"}, {"Y1", "Y2"}) == {"Y2"}
    g = parse_graph("Y -> X\nnode Z")
    assert forbidden_set(g, {"X"}, {"Y"}) == set()


def test_forbidden_set_within_possible_descendants_when_amenable():
    for g in oracles.random_mpdags(seed=55, count=60):
        nodes = sorted(g.nodes)
        if len(nodes) < 2:
            continue
        x, y = nodes[0], nodes[-1]
        if exists_proper_pcp_starting_undirected(g, {x}, {y}):
            continue
        assert forbidden_set(g, {x}, {y}) <= relatives(g, {x}, "possible_descendants")


def test_unblocked_noncausal_path_direct_arrow_into_source(mpdag4):
    # Y1 -> X cannot be blocked: no interior node exists.
    p = unblocked_proper_noncausal_path(mpdag4, {"X"}, {"Y1", "Y2"}, set())
    assert p == ("X", "Y1")
    p2 = unblocked_proper_noncausal_path(mpdag4, {"X"}, {"Y1", "Y2"}, {"V1"})
    assert p2 is not None


def test_unblocked_noncausal_path_none_for_pure_chain():
    g = parse_graph("X -> Y")
    assert unblocked_proper_noncausal_path(g, {"X"}, {"Y"}, set()) is None
