import dataclasses
import itertools

import numpy as np
import pytest

from mpdagid import (
    DegenerateConditioningError,
    DiscreteModel,
    Factor,
    GaussianModel,
    GraphError,
    IdFormula,
    amenability_witness,
    cross_dag_agreement,
    enumerate_dags,
    gformula_table,
    id_formula_table,
    identify,
    joint_table,
    model_from_joint,
    nonid_witness,
    Pdag,
    parse_graph,
    random_model,
    simulate,
    wright_cov,
)

import oracles
from conftest import query_pairs
from mpdagid.oracle import _first_dag


# -- enumeration ------------------------------------------------------------


def test_enumerate_matches_brute_force_on_goldens(cpdag4, mpdag4):
    got4 = {d.directed for d in enumerate_dags(cpdag4)}
    assert got4 == oracles.all_represented_dags(cpdag4)
    assert len(got4) == 10  # the class of the 4-node chordal CPDAG
    got_m = {d.directed for d in enumerate_dags(mpdag4)}
    assert got_m == oracles.all_represented_dags(mpdag4)
    assert len(got_m) == 3
    assert got_m <= got4


def test_enumerate_dag_returns_itself(twotreat7):
    dags = enumerate_dags(twotreat7)
    assert len(dags) == 1 and dags[0] == twotreat7


def test_enumerate_matches_brute_force_random():
    for g in oracles.random_mpdags(seed=101, count=80):
        got = {d.directed for d in enumerate_dags(g)}
        assert got == oracles.all_represented_dags(g)
        assert got  # the class of a consistent closure is never empty
        assert all(g.directed <= edges for edges in got)


def test_enumeration_equals_brute_force_in_canonical_order(sweep):
    # The leaves are re-tagged dag unchecked; each must equal the DAG the
    # public constructor builds, and the list must be the brute-force
    # class sorted by orientation bitstring over the sorted skeleton.
    graphs = [(g, dags) for g, dags in sweep]
    graphs += [
        (g, enumerate_dags(g))
        for g in oracles.random_mpdags(seed=71, count=60, n_nodes=(6, 7, 8))
    ]
    for g, dags in graphs:
        skeleton = sorted({(min(a, b), max(a, b)) for a, b in g.directed} | g.undirected)

        def bits(edges):
            return tuple(0 if (a, b) in edges else 1 for a, b in skeleton)

        expected = sorted(oracles.all_represented_dags(g), key=bits)
        assert [d.directed for d in dags] == expected
        for d in dags:
            assert d.class_tag == "dag"
            public = Pdag(d.nodes, d.directed, (), "dag")
            assert d == public and d.nodes == public.nodes


def test_enumerate_output_invariants(cpdag4):
    skeleton = {(min(a, b), max(a, b)) for a, b in cpdag4.undirected}
    for d in enumerate_dags(cpdag4):
        assert not d.undirected
        assert {(min(a, b), max(a, b)) for a, b in d.directed} == skeleton
        assert oracles.unshielded_colliders(d) == oracles.unshielded_colliders(cpdag4)
        assert cpdag4.directed <= d.directed


def test_enumerate_canonical_order(cpdag4):
    once = [d.directed for d in enumerate_dags(cpdag4)]
    again = [d.directed for d in enumerate_dags(cpdag4)]
    assert once == again


# -- discrete models ---------------------------------------------------------


def test_random_model_deterministic(twotreat7):
    cards = {n: 2 for n in twotreat7.nodes}
    a = random_model(twotreat7, cards, seed=5)
    b = random_model(twotreat7, cards, seed=5)
    for v in twotreat7.nodes:
        assert np.array_equal(a.cpts[v], b.cpts[v])
    c = random_model(twotreat7, cards, seed=6)
    assert any(not np.array_equal(a.cpts[v], c.cpts[v]) for v in twotreat7.nodes)


def test_random_model_columns_normalized(twotreat7):
    m = random_model(twotreat7, {n: 3 for n in twotreat7.nodes}, seed=1)
    for v in twotreat7.nodes:
        assert np.allclose(m.cpts[v].sum(axis=0), 1.0)


def test_cpt_shapes_for_binary_chain():
    g = parse_graph("A -> B\nB -> C")
    m = random_model(g, {"A": 2, "B": 2, "C": 2}, seed=0)
    assert m.cpts["A"].shape == (2,)
    assert m.cpts["B"].shape == (2, 2)
    assert m.cpts["C"].shape == (2, 2)
    assert sum(t.size for t in m.cpts.values()) == 2 + 4 + 4


def test_model_validation_rejects_bad_tables():
    g = parse_graph("A -> B")
    with pytest.raises(GraphError):
        DiscreteModel(
            dag=g,
            cards={"A": 2, "B": 2},
            cpts={"A": np.array([0.7, 0.7]), "B": np.full((2, 2), 0.5)},
        )


def test_column_sums_must_be_one_within_1e_12():
    g = parse_graph("A -> B")
    ok = {"A": np.array([0.5, 0.5]), "B": np.array([[0.25, 0.5], [0.75, 0.5]])}
    DiscreteModel(dag=g, cards={"A": 2, "B": 2}, cpts=ok)
    for column_sum in (1 + 1e-7, 1 - 1e-7, 1 + 1e-11, 1.000009):
        bad = dict(ok, B=np.array([[0.25, 0.5], [column_sum - 0.25, 0.5]]))
        with pytest.raises(GraphError, match="must be distributions"):
            DiscreteModel(dag=g, cards={"A": 2, "B": 2}, cpts=bad)
    for bad_a in (np.array([np.nan, 1.0]), np.array([1.5, -0.5])):
        with pytest.raises(GraphError, match="must be distributions"):
            DiscreteModel(dag=g, cards={"A": 2, "B": 2}, cpts=dict(ok, A=bad_a))


def _failing(check):
    """A node's (cardinality, cpt) that fails ``check`` on a parentless node."""
    return {
        "distribution": (2, np.array([0.3, 0.6])),
        "shape": (2, np.array([0.2, 0.3, 0.5])),
        "cardinality": (1, np.array([1.0])),
    }[check]


@pytest.mark.parametrize(
    "a_fails, b_fails, message",
    [
        ("distribution", "shape", "cpt columns at A must be distributions"),
        ("distribution", "cardinality", "cpt columns at A must be distributions"),
        ("shape", "distribution", "cpt shape mismatch at A: (3,) != (2,)"),
        ("cardinality", "distribution", "cardinality of A must be >= 2"),
    ],
)
def test_first_failing_node_in_node_order_is_named(a_fails, b_fails, message):
    """Distribution checks run batched after the per-node checks, yet the
    error names the first failing node in node order, whichever check it
    fails."""
    g = Pdag(["A", "B", "C"], [("B", "C")], (), "dag")
    cards = {"A": 2, "B": 2, "C": 2}
    cpts = {"A": np.array([0.5, 0.5]), "B": np.array([0.3, 0.7]), "C": np.full((2, 2), 0.5)}
    cards["A"], cpts["A"] = _failing(a_fails)
    cards["B"], cpts["B"] = _failing(b_fails)
    with pytest.raises(GraphError) as info:
        DiscreteModel(dag=g, cards=cards, cpts=cpts)
    assert str(info.value) == message


def test_distribution_check_names_first_node_across_cardinalities():
    g = Pdag(["A", "B", "C"], [("A", "C")], (), "dag")
    cards = {"A": 2, "B": 3, "C": 2}
    cpts = {"A": np.array([0.5, 0.5]), "B": np.full(3, 0.3), "C": np.full((2, 2), 0.4)}
    with pytest.raises(GraphError, match="^cpt columns at B must be distributions$"):
        DiscreteModel(dag=g, cards=cards, cpts=cpts)


def test_model_keeps_read_only_copies():
    g = parse_graph("A -> B")
    a = np.array([0.5, 0.5])
    m = DiscreteModel(dag=g, cards={"A": 2, "B": 2}, cpts={"A": a, "B": np.full((2, 2), 0.5)})
    before = joint_table(m).copy()
    a[:] = [0.9, 0.1]  # the caller's array, not the model's
    assert np.array_equal(m.cpts["A"], [0.5, 0.5])
    assert np.array_equal(joint_table(m), before)
    with pytest.raises(TypeError):
        m.cpts["A"] = a
    with pytest.raises(ValueError):
        m.cpts["B"][0, 0] = 1.0
    with pytest.raises(ValueError):
        joint_table(m)[0, 0] = 1.0
    memo = [f for f in dataclasses.fields(DiscreteModel) if f.name == "_memo"]
    assert memo and not memo[0].compare and not memo[0].repr
    assert "_memo" not in repr(m)


def test_gformula_single_edge_is_cpt_column():
    g = parse_graph("X -> Y")
    m = random_model(g, {"X": 2, "Y": 2}, seed=3)
    dist = oracles.slice_x(gformula_table(m, {"X": 1}, {"Y"}), {"X": 1})
    assert np.allclose(dist, m.cpts["Y"][:, 1])


def test_gformula_empty_intervention_is_marginal(mpdag4):
    dag = enumerate_dags(mpdag4)[0]
    m = random_model(dag, {n: 2 for n in mpdag4.nodes}, seed=9)
    dist = oracles.slice_x(gformula_table(m, {}, {"Y2"}), {})
    want = joint_table(m).sum(axis=(0, 1, 2))
    assert np.allclose(dist, want)


def test_gformula_collider_leaves_target_alone():
    g = parse_graph("X -> C\nY -> C")
    m = random_model(g, {"X": 2, "C": 3, "Y": 2}, seed=4)
    dist = oracles.slice_x(gformula_table(m, {"X": 1}, {"Y"}), {"X": 1})
    assert np.allclose(dist, m.cpts["Y"])


def test_gformula_matches_dict_enumeration():
    for gi, g in enumerate(oracles.random_mpdags(seed=111, count=20)):
        dag = enumerate_dags(g)[0]
        cards = {n: 2 + (i % 2) for i, n in enumerate(dag.nodes)}
        m = random_model(dag, cards, seed=gi)
        nodes = sorted(dag.nodes)
        x, y = nodes[0], nodes[-1]
        for xv in range(cards[x]):
            got = oracles.slice_x(gformula_table(m, {x: xv}, {y}), {x: xv})
            want = oracles.gformula_dict(m, {x: xv}, {y})
            for k, v in want.items():
                assert abs(got[k] - v) < 1e-12


def test_gformula_cap():
    names = [f"N{i}" for i in range(21)]
    g = parse_graph("\n".join(f"node {n}" for n in names))
    m = random_model(g, {n: 2 for n in names}, seed=0)
    with pytest.raises(GraphError):
        gformula_table(m, {}, {"N0"})


# -- formula evaluation -------------------------------------------------------


def test_formula_matches_gformula_per_dag(mpdag4):
    res = identify(mpdag4, {"X"}, {"Y1", "Y2"})
    for i, dag in enumerate(enumerate_dags(mpdag4)):
        m = random_model(dag, {n: 2 for n in mpdag4.nodes}, seed=20 + i)
        a = id_formula_table(res.formula, m)
        b = gformula_table(m, {"X"}, {"Y1", "Y2"})
        assert a.max_tv(b) < 1e-9


def test_marginal_formula_evaluation(mpdag4):
    f = IdFormula(factors=(Factor({"Y2"}),), response={"Y2"})
    dag = enumerate_dags(mpdag4)[0]
    m = random_model(dag, {n: 2 for n in mpdag4.nodes}, seed=2)
    got = oracles.slice_x(id_formula_table(f, m), {})
    want = joint_table(m).sum(axis=(0, 1, 2))
    assert np.allclose(got, want)


def test_cross_dag_agreement_with_integration(covar5):
    res = identify(covar5, {"X"}, {"Y"})
    rep = cross_dag_agreement(covar5, {"X"}, {"Y"}, res.formula, n_models=8, seed=0)
    assert rep.n_dags == len(enumerate_dags(covar5))
    assert rep.max_cross_dag_tv < 1e-9
    assert rep.max_formula_tv < 1e-9


def test_slice_requires_exactly_the_intervened_set(mpdag4):
    res = identify(mpdag4, {"X"}, {"Y1", "Y2"})
    m = random_model(enumerate_dags(mpdag4)[0], {n: 2 for n in mpdag4.nodes}, seed=2)
    table = id_formula_table(res.formula, m)
    for bad in ({}, {"X": 0, "V1": 1}):
        with pytest.raises(GraphError, match="cover exactly"):
            oracles.slice_x(table, bad)
    assert oracles.slice_x(table, {"X": 1}).shape == (2, 2)


def test_degenerate_conditioning_raises():
    g = parse_graph("A -> B")
    cpts = {
        "A": np.array([1.0, 0.0]),  # A = 1 never happens
        "B": np.array([[0.3, 0.6], [0.7, 0.4]]),
    }
    m = DiscreteModel(dag=g, cards={"A": 2, "B": 2}, cpts=cpts)
    f = IdFormula(factors=(Factor({"B"}, {"A"}),), intervened={"A"}, response={"B"})
    with pytest.raises(DegenerateConditioningError):
        id_formula_table(f, m)


def test_memoised_tables_equal_uncached_reference(sweep):
    """Joint, every DAG's refit and every identifiable pair's g-formula and
    formula tables equal tables rebuilt from the CPTs, bit for bit, on
    models of acceptance criterion 6 (one of its 20 seeds per graph, in
    turn), and repeated calls give equal tables."""
    checked = 0
    for gi, (g, dags) in enumerate(sweep):
        cards = {n: 2 for n in g.nodes}
        k = gi % 20
        m = random_model(dags[k % len(dags)], cards, seed=9000 + 37 * gi + k)
        formulas = [
            (xs, ys, res.formula)
            for xs, ys in query_pairs(g.nodes)
            if (res := identify(g, xs, ys)).identifiable
        ]
        joint = joint_table(m)
        assert np.array_equal(joint, oracles.reference_joint_table(m))
        assert not joint.flags.writeable and joint_table(m) is joint
        for d in dags:
            refit = model_from_joint(joint, g.nodes, cards, d)
            assert np.array_equal(joint_table(refit), oracles.reference_joint_table(refit))
            for xs, ys, _ in formulas:
                got = gformula_table(refit, xs, ys)
                assert got.x_nodes == tuple(sorted(xs)) and got.y_nodes == tuple(sorted(ys))
                assert np.array_equal(got.table, oracles.reference_gformula_table(refit, xs, ys))
                assert np.array_equal(got.table, gformula_table(refit, xs, ys).table)
        for xs, ys, f in formulas:
            want = oracles.reference_id_formula_table(f, m)
            assert np.array_equal(id_formula_table(f, m).table, want)
            assert np.array_equal(id_formula_table(f, m).table, want)
            checked += 1
    assert checked > 1000


def test_sweep_models_pass_validation(sweep):
    """The 1e-12 column-sum check accepts every model of acceptance
    criterion 6: all 20 random models per graph and their refits."""
    for gi, (g, dags) in enumerate(sweep):
        cards = {n: 2 for n in g.nodes}
        for k in range(20):
            m = random_model(dags[k % len(dags)], cards, seed=9000 + 37 * gi + k)
            for d in dags:
                model_from_joint(joint_table(m), g.nodes, cards, d)


CARD_PATTERNS = ((2,), (2, 3), (3, 3, 2), (2, 2, 4))


def _assert_same_cpts(got, want):
    # Equal strides too: later sums may follow memory layout.
    assert got.keys() == want.keys()
    for v, table in want.items():
        table = np.array(table)
        assert got[v].shape == table.shape and got[v].strides == table.strides
        assert np.array_equal(got[v], table)


def test_draws_and_refits_equal_per_node_reference(sweep):
    """``random_model``'s batched draws and ``model_from_joint``'s cached
    layouts give the CPTs of the per-node code bit for bit, under four
    cardinality patterns, on the sweep and on 6-8-node MPDAGs, also on a
    joint where some parent configurations have no mass."""
    graphs = list(sweep)
    graphs += [
        (g, enumerate_dags(g))
        for g in oracles.random_mpdags(seed=131, count=24, n_nodes=(6, 7, 8))
    ]
    filled = 0
    for gi, (g, dags) in enumerate(graphs):
        for pattern in CARD_PATTERNS:
            cards = {v: pattern[i % len(pattern)] for i, v in enumerate(g.nodes)}
            base = dags[gi % len(dags)]
            m = random_model(base, cards, seed=gi)
            _assert_same_cpts(m.cpts, oracles.reference_random_model(base, cards, seed=gi))
            # No mass where the first node takes its first value.
            starved = joint_table(m).copy()
            starved[0] = 0.0
            for joint in (joint_table(m), starved):
                for d in dags[:6]:
                    want = oracles.reference_model_from_joint(joint, g.nodes, cards, d)
                    _assert_same_cpts(model_from_joint(joint, g.nodes, cards, d).cpts, want)
                    filled += any(
                        (table == 1.0 / cards[v]).all(axis=0).any() for v, table in want.items()
                    )
    assert filled > 1000  # refits that took the uniform fill


def test_model_from_joint_round_trip(twotreat7):
    cards = {n: 2 for n in twotreat7.nodes}
    m = random_model(twotreat7, cards, seed=8)
    joint = joint_table(m)
    back = model_from_joint(joint, twotreat7.nodes, cards, twotreat7)
    assert np.allclose(joint_table(back), joint)


# -- gaussian models ----------------------------------------------------------


def _unit_variance_chain():
    g = parse_graph("X -> V\nV -> Y")
    coeffs = {("X", "V"): 0.5, ("V", "Y"): 0.4}
    noise = {"X": 1.0, "V": 1 - 0.25, "Y": 1 - 0.16}
    return GaussianModel(dag=g, coeffs=coeffs, noise_vars=noise)


def test_wright_chain_product():
    m = _unit_variance_chain()
    nodes, cov = wright_cov(m)
    i, j = nodes.index("X"), nodes.index("Y")
    assert abs(cov[i, j] - 0.5 * 0.4) < 1e-12
    assert np.allclose(np.diag(cov), 1.0)


def test_wright_disconnected_zero():
    g = parse_graph("A -> B\nnode C")
    m = GaussianModel(dag=g, coeffs={("A", "B"): 0.3}, noise_vars={"A": 1, "B": 0.91, "C": 1})
    nodes, cov = wright_cov(m)
    assert cov[nodes.index("A"), nodes.index("C")] == 0.0


def test_wright_matches_linear_algebra_random():
    import random as _random

    from mpdagid import Pdag

    rng = _random.Random(10)
    for _ in range(40):
        g = oracles.random_pdag(rng, rng.choice((3, 4, 5, 6)), p_edge=0.5)
        # orient undirected edges along a topological order of the rest
        topo = GaussianModel(
            dag=Pdag(g.nodes, directed=g.directed, class_tag="dag"),
            coeffs={},
            noise_vars={n: 1.0 for n in g.nodes},
        ).topological_order()
        order = {n: i for i, n in enumerate(topo)}
        edges = set(g.directed)
        for a, b in g.undirected:
            edges.add((a, b) if order[a] < order[b] else (b, a))
        d = Pdag(g.nodes, directed=edges, class_tag="dag")
        coeffs = {}
        for t, h in sorted(d.directed):
            scale = max(1, len(d.parents_of(h)))
            coeffs[(t, h)] = rng.uniform(0.05, 0.3) / scale * (1 if rng.random() < 0.5 else -1)
        m = GaussianModel(dag=d, coeffs=coeffs, noise_vars=oracles.unit_variance_noise(d, coeffs))
        _, cov = wright_cov(m)
        sigma = oracles.sem_cov_linalg(m)
        assert np.allclose(np.diag(sigma), 1.0, atol=1e-10)
        assert np.allclose(cov, sigma, atol=1e-10)
        assert np.allclose(cov, oracles.reference_wright_cov(m)[1], atol=1e-10)


def test_gaussian_order_equals_rescan_reference(sweep):
    checked = 0
    for _, dags in sweep:
        for d in dags:
            m = GaussianModel(dag=d, coeffs={}, noise_vars={n: 1.0 for n in d.nodes})
            assert m.topological_order() == oracles.reference_topological_order(d)
            checked += 1
    assert checked >= 300


def test_nonid_witness_pair(pair):
    m1, m2, delta = nonid_witness(pair, {"X"}, {"Y"})
    assert delta == 0.5
    _, c1 = wright_cov(m1)
    _, c2 = wright_cov(m2)
    assert np.abs(c1 - c2).max() < 1e-12
    e1 = oracles.interventional_means(m1, {"X": 1.0})
    e2 = oracles.interventional_means(m2, {"X": 1.0})
    assert abs(e1["Y"] - 0.5) < 1e-12  # equals Cov(X, Y)
    assert e2["Y"] == 0.0
    assert abs(abs(e1["Y"] - e2["Y"]) - delta) < 1e-12


def test_nonid_witness_two_edges_override():
    g = parse_graph("X -- V\nV -- Y")
    m1, m2, delta = nonid_witness(g, {"X"}, {"Y"}, coeffs=(0.5, 0.4))
    assert abs(delta - 0.2) < 1e-15
    e1 = oracles.interventional_means(m1, {"X": 1.0})
    e2 = oracles.interventional_means(m2, {"X": 1.0})
    assert abs(abs(e1["Y"] - e2["Y"]) - delta) < 1e-12


def test_nonid_witness_requires_witness(chain3):
    with pytest.raises(GraphError):
        nonid_witness(chain3, {"X1", "X2"}, {"Y"})


def test_first_dag_is_first_enumerated(sweep):
    graphs = [g for g, _ in sweep]
    graphs += oracles.random_mpdags(seed=141, count=150, n_nodes=(6, 7, 8))
    for g in graphs:
        assert _first_dag(g) == enumerate_dags(g)[0]


def test_nonid_witness_random_sweep(sweep):
    # The models realize the amenability witness, which is also the first
    # candidate of the exhaustive list the witness once was picked from.
    # Each witness model gives every node at most one parent with a
    # nonzero coefficient, so the recursion over a topological order forms
    # the same single product per entry as the path sum: equal bit for bit.
    graphs = list(oracles.random_mpdags(seed=131, count=60))
    graphs += [g for g, _ in sweep]
    graphs += oracles.random_mpdags(seed=151, count=40, n_nodes=(6, 7, 8))
    found = 0
    for g in graphs:
        nodes = sorted(g.nodes)
        for x, y in itertools.permutations(nodes, 2):
            res = identify(g, {x}, {y})
            if res.identifiable:
                continue
            q = res.witness
            assert q == amenability_witness(g, {x}, {y})
            assert q == oracles.reference_witness_paths(g, {x}, {y})[0]
            m1, m2, delta = nonid_witness(g, {x}, {y})
            assert set(m1.coeffs) == set(zip(q, q[1:]))
            assert set(m2.coeffs) == {(q[1], q[0])} | set(zip(q[1:], q[2:]))
            _, c1 = wright_cov(m1)
            _, c2 = wright_cov(m2)
            assert np.array_equal(c1, oracles.reference_wright_cov(m1)[1])
            assert np.array_equal(c2, oracles.reference_wright_cov(m2)[1])
            assert np.abs(c1 - c2).max() < 1e-12
            assert delta > 0
            e1 = oracles.interventional_means(m1, {n: 1.0 for n in (x,)})
            e2 = oracles.interventional_means(m2, {n: 1.0 for n in (x,)})
            assert abs(abs(e1[y] - e2[y]) - delta) < 1e-12
            found += 1
    assert found > 10


def test_simulate_deterministic_and_shaped():
    m = _unit_variance_chain()
    d1 = simulate(m, 500, seed=11)
    d2 = simulate(m, 500, seed=11)
    assert d1.columns == list(m.dag.nodes)
    assert np.array_equal(d1.rows, d2.rows)
    assert d1.rows.shape == (500, 3)
    # empirical covariance approaches the path-rule covariance
    big = simulate(m, 200_000, seed=12)
    emp = np.cov(big.rows.T)
    _, cov = wright_cov(m)
    assert np.abs(emp - cov).max() < 0.02
