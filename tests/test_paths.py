import contextlib
import copy
import itertools
import random
import signal

import pytest

from mpdagid import cli, meek
from mpdagid import (
    GraphError,
    Pdag,
    amenability_witness,
    close,
    d_separated,
    enumerate_dags,
    exists_possibly_causal,
    find_adjustment_set,
    forbidden_set,
    nonid_witness,
    parse_graph,
    unblocked_proper_noncausal_path,
)
from mpdagid.meek import consistent_extension, require_mpdag

import oracles
from conftest import query_pairs


def test_witness_on_undirected_pair(pair):
    assert amenability_witness(pair, {"X"}, {"Y"}) == ("X", "Y")


def test_no_witness_when_first_edge_directed(chain3, mpdag4, covar5):
    assert amenability_witness(chain3, {"X1", "X2"}, {"Y"}) is None
    assert amenability_witness(mpdag4, {"X"}, {"Y1", "Y2"}) is None
    assert amenability_witness(covar5, {"X"}, {"Y"}) is None


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
                assert len(set(w)) == len(w)
                assert all(g.adjacent(u, v) for u, v in zip(w, w[1:]))
                assert oracles.possibly_causal(g, w) and w[-1] in ys
                assert [n for n in w if n in xs] == [w[0]]
                assert w[1] in g.und_neighbors(w[0])


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


@contextlib.contextmanager
def _time_limit(seconds, what):
    """Raise TimeoutError in the block once ``seconds`` have passed, so a
    hang fails the test instead of being waited out."""

    def timeout(signum, frame):
        raise TimeoutError(f"{what} took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_queries_on_chordal_18_nodes_finish_within_5_seconds():
    # Simple-path enumeration took minutes on this graph; the state search
    # must stay polynomial.
    g = _chordal_mpdag(random.Random(5), 18)
    assert len(g.undirected) >= 50
    with _time_limit(5.0, "possibly causal queries"):
        for n in g.nodes:
            assert g.ancestors({n}) <= g.possible_ancestors({n})
        for x, y in itertools.permutations(g.nodes, 2):
            w = amenability_witness(g, {x}, {y})
            if w is None:
                forbidden_set(g, {x}, {y})


def test_separation_and_adjustment_on_larger_dags_finish_within_5_seconds():
    # The exhaustive subset search for an adjustment set ran for over a
    # minute on the 28-node DAG, and the simple-path walk for one of the
    # 40-node queries took 27 s; Bayes-ball and the constructive set must
    # stay polynomial.
    dense = [oracles.random_dag(random.Random(n), n, 0.3) for n in (20, 28)]
    sparse = oracles.random_dag(random.Random(40), 40, 0.15)
    rng = random.Random(30)
    with _time_limit(5.0, "separation and adjustment queries"):
        for g in dense:
            x1, x2, y = rng.sample(sorted(g.nodes), 3)
            res = find_adjustment_set(g, {x1, x2}, {y})
            assert res.status in ("set_found", "none_exists")
        nodes = sorted(sparse.nodes)
        for _ in range(30):
            x, y = rng.sample(nodes, 2)
            pool = sorted(set(nodes) - {x, y} - forbidden_set(sparse, {x}, {y}))
            z = rng.sample(pool, min(len(pool), rng.randint(0, 6)))
            d_separated(sparse, {x}, {y}, z)
            unblocked_proper_noncausal_path(sparse, {x}, {y}, z)


def test_verify_on_chordal_22_nodes_finishes_within_5_seconds(tmp_path, capsys):
    # The witness models' covariances once summed over every collider-free
    # simple path, which took about 30 s here; the recursion over a
    # topological order must stay polynomial.
    path = tmp_path / "chordal22.g"
    path.write_text(_chordal_mpdag(random.Random(5), 22).to_edgelist())
    with _time_limit(5.0, "verify on the 22-node chordal MPDAG"):
        code = cli.main(["verify", "-g", str(path), "-X", "N0", "-Y", "N1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "covariance max diff: 0.000e+00\n" in out


def test_factorize_and_identify_on_400_nodes_finish_within_5_seconds(tmp_path, capsys):
    # The partial causal ordering rescanned every directed edge for every
    # remaining component, which took 6 s for factorize here; the sort of
    # the component graph must stay near linear.
    g = oracles.random_dag(random.Random(400), 400, 0.015)
    assert len(g.directed) == 1212
    path = tmp_path / "dag400.g"
    path.write_text(g.to_edgelist())
    with _time_limit(5.0, "factorize and identify on the 400-node DAG"):
        codes = (
            cli.main(["factorize", "-g", str(path)]),
            cli.main(["identify", "-g", str(path), "-X", "N0", "-Y", "N1"]),
        )
    # cli.main reports the TimeoutError, an OSError, on stderr with exit 1.
    assert codes == (0, 0), capsys.readouterr().err


def _chordal_mpdag(rng, n):
    """A random chordal graph closed with the knowledge N0 -> v."""
    g = oracles.random_chordal(rng, n)
    nbrs = g.parents_of("N0") | g.children_of("N0") | g.und_neighbors("N0")
    return close(g, [("N0", min(nbrs))])


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
                assert amenability_witness(g, xs - {drop}, {y}) is not None


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
    # Sound and complete: d_separated equals d-separation in every DAG.
    for g in oracles.random_mpdags(seed=13, count=60):
        nodes = sorted(g.nodes)
        if len(nodes) < 3:
            continue
        dags = enumerate_dags(g)
        for x, y in itertools.permutations(nodes, 2):
            rest = [n for n in nodes if n not in (x, y)]
            for r in range(len(rest) + 1):
                for z in itertools.combinations(rest, r):
                    sep = d_separated(g, {x}, {y}, set(z))
                    for d in dags:
                        assert sep == oracles.dag_d_separated(d, {x}, {y}, set(z))


def test_separation_refuses_a_graph_representing_no_dag():
    # The 4-cycle fires no orientation rule but has no consistent
    # extension: require_mpdag refuses it the mpdag tag, and the queries
    # refuse it, not crash.
    cycle = [("A", "B"), ("B", "C"), ("C", "D"), ("A", "D")]
    g = Pdag("ABCD", undirected=cycle)
    with pytest.raises(GraphError, match="no consistent extension"):
        require_mpdag(g)
    with pytest.raises(GraphError, match="no consistent extension"):
        d_separated(g, {"A"}, {"C"}, {"B", "D"})
    with pytest.raises(GraphError):
        unblocked_proper_noncausal_path(g, {"A"}, {"C"}, set())


def _differential_graphs(sweep, seed):
    """The sweep plus 40 random 6-8-node MPDAGs, each with its (X, Y)
    pairs: all of them on the sweep, a seeded sample of 30 on the rest."""
    rng = random.Random(seed)
    for g, _ in sweep:
        yield g, list(query_pairs(g.nodes))
    for g in oracles.random_mpdags(seed=seed, count=40, n_nodes=(6, 7, 8)):
        pairs = list(query_pairs(g.nodes))
        yield g, rng.sample(pairs, 30)


def _z_sample(rng, g, xs, ys, avoid=frozenset(), k=4):
    """Up to ``k`` seeded conditioning sets outside X, Y and ``avoid``."""
    rest = sorted(set(g.nodes) - xs - ys - avoid)
    return [frozenset(n for n in rest if rng.random() < 0.5) for _ in range(k)]


def test_d_separated_matches_path_walk(sweep):
    rng = random.Random(3)
    checked = 0
    for g, pairs in _differential_graphs(sweep, seed=61):
        for xs, ys in pairs:
            for z in _z_sample(rng, g, xs, ys):
                want = oracles.reference_d_separated(g, xs, ys, z)
                assert d_separated(g, xs, ys, z) == want, (g.to_edgelist(), xs, ys, z)
                checked += 1
    assert checked > 10_000


def test_condition_3_matches_path_walk(sweep):
    # On amenable pairs with Z outside the forbidden set, Bayes-ball in the
    # proper back-door graph equals the walk for unblocked non-causal paths.
    rng = random.Random(4)
    checked = blocked = 0
    for g, pairs in _differential_graphs(sweep, seed=62):
        for xs, ys in pairs:
            if oracles.reference_witness(g, xs, ys) is not None:
                with pytest.raises(GraphError, match="not amenable"):
                    unblocked_proper_noncausal_path(g, xs, ys, set())
                continue
            forb = oracles.reference_forbidden_set(g, xs, ys)
            for z in _z_sample(rng, g, xs, ys, avoid=forb):
                want = oracles.reference_unblocked_noncausal_path(g, xs, ys, z) is not None
                assert unblocked_proper_noncausal_path(g, xs, ys, z) == want, (
                    g.to_edgelist(), xs, ys, z
                )
                checked += 1
                blocked += not want
            if forb - ys:
                with pytest.raises(GraphError, match="forbidden set"):
                    unblocked_proper_noncausal_path(g, xs, ys, {min(forb - ys)})
    assert checked > 5_000 and 0 < blocked < checked


def test_separation_queries_run_one_removal_order_pass_and_write_nothing(sweep, monkeypatch):
    # A graph keeps no DAG it represents: each separation query finds one by
    # one Dor-Tarsi or Kahn pass, and no read, hashing and equality
    # included, writes to its input graph.
    passes = []
    removal_order = meek._removal_order

    def counted(*args):
        passes.append(args)
        return removal_order(*args)

    def passes_run(query, *args):
        passes.clear()
        query(*args)
        return len(passes)

    monkeypatch.setattr(meek, "_removal_order", counted)
    queries = witnesses = 0
    for g, _ in sweep:
        slots = {name: getattr(g, name) for name in Pdag.__slots__}
        contents = copy.deepcopy(slots)
        consistent_extension(g)
        for xs, ys in query_pairs(g.nodes):
            assert passes_run(d_separated, g, xs, ys, set()) == 1
            if amenability_witness(g, xs, ys) is None:
                assert passes_run(unblocked_proper_noncausal_path, g, xs, ys, set()) == 1
                queries += 1
            else:
                with contextlib.suppress(GraphError):
                    nonid_witness(g, xs, ys)
                    witnesses += 1
        h = Pdag(g.nodes, g.directed, g.undirected)
        assert hash(g) == hash(h) and g == h
        assert all(getattr(g, name) is value for name, value in slots.items())
        assert {name: getattr(g, name) for name in Pdag.__slots__} == contents
    print(queries, witnesses)
    assert queries > 1000 and witnesses > 1000


def test_find_adjustment_set_matches_subset_search(sweep):
    statuses = set()
    for g, pairs in _differential_graphs(sweep, seed=63):
        for xs, ys in pairs:
            res = find_adjustment_set(g, xs, ys)
            status, _ = oracles.reference_find_adjustment_set(g, xs, ys)
            assert res.status == status, (g.to_edgelist(), xs, ys)
            if res.adjustment is not None:
                assert oracles.reference_check_adjustment(g, xs, ys, res.adjustment)
            statuses.add((status, len(xs) + len(ys) > 2))
    assert {("set_found", True), ("none_exists", True)} <= statuses


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
        if amenability_witness(g, {x}, {y}) is not None:
            continue
        assert forbidden_set(g, {x}, {y}) <= g.possible_descendants({x})


def test_unblocked_noncausal_path_direct_arrow_into_source(mpdag4):
    # Y1 -> X cannot be blocked: no interior node exists.
    assert unblocked_proper_noncausal_path(mpdag4, {"X"}, {"Y1", "Y2"}, set()) is True
    assert unblocked_proper_noncausal_path(mpdag4, {"X"}, {"Y1", "Y2"}, {"V1"}) is True


def test_unblocked_noncausal_path_none_for_pure_chain():
    g = parse_graph("X -> Y")
    assert unblocked_proper_noncausal_path(g, {"X"}, {"Y"}, set()) is False
