import collections
import dataclasses
import itertools
import random
from unittest import mock

import numpy as np
import pytest

from mpdagid import (
    DegenerateConditioningError,
    DiscreteModel,
    Factor,
    FormulaError,
    GaussianModel,
    GraphError,
    IdFormula,
    InconsistentKnowledgeError,
    amenability_witness,
    close,
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
from conftest import COVAR5_TEXT, MPDAG4_TEXT, query_pairs
from mpdagid import cli, graphs, meek, oracle
from mpdagid.meek import _depth_first, require_mpdag


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


def _roots_with_knowledge(sweep):
    """The sweep graphs and random 6-8-node MPDAGs, each also closed under
    1-2 drawn orientations of its undirected edges, which runs the full
    check only when two were oriented; then each of them rebuilt untagged
    and checked by ``require_mpdag``."""
    rng = random.Random(173)
    roots = [g for g, _ in sweep]
    for g in oracles.random_mpdags(seed=173, count=60, n_nodes=(6, 7, 8), p_edge=0.6):
        roots.append(g)
        und = sorted(g.undirected)
        for _ in range(2 if und else 0):
            picked = rng.sample(und, min(len(und), rng.randint(1, 2)))
            bk = [pair if rng.random() < 0.5 else pair[::-1] for pair in picked]
            try:
                roots.append(close(g, bk))
            except InconsistentKnowledgeError:
                pass
    return roots + [require_mpdag(Pdag(g.nodes, g.directed, g.undirected)) for g in roots]


def test_depth_first_matches_the_reference_walk(sweep):
    # Closing each branch of a checked MPDAG without a removal-order pass
    # changes which check close runs, never what it returns: the same DAGs
    # in the same order as closing every branch in full, from roots closed
    # with knowledge and the same roots rebuilt and checked by require_mpdag.
    roots = _roots_with_knowledge(sweep)
    for g in roots:
        got = list(_depth_first(g))
        expected = list(oracles.reference_depth_first(g))
        assert [(d.nodes, d.directed, d.undirected) for d in got] == [
            (d.nodes, d.directed, d.undirected) for d in expected
        ], g.to_edgelist()
        assert all(d.class_tag == "dag" for d in got)
    print(len(roots))


def test_most_branch_closes_skip_the_full_check(monkeypatch):
    # A full check inside close is one sink elimination or one Kahn pass;
    # no branch close runs one, since one pair on an undirected edge of a
    # checked MPDAG closes to an MPDAG.  The roots are chordal CPDAGs with
    # 8-10 nodes, closed untagged as the CLI closes its input.
    rng = random.Random(59)
    roots = [close(oracles.random_chordal(rng, rng.randint(8, 10))) for _ in range(10)]
    calls = collections.Counter()

    def counted(name, f):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(meek, "close", counted("branch", meek.close))
    monkeypatch.setattr(meek, "_sink_order", counted("full", meek._sink_order))
    # meek binds the graphs function by name, so that is the name to wrap.
    monkeypatch.setattr(meek, "topological_order", counted("full", graphs.topological_order))
    n_dags = sum(len(enumerate_dags(g)) for g in roots)
    print(n_dags, dict(calls))
    assert n_dags > 1000 and calls["branch"] > n_dags
    assert calls["full"] == 0


def test_last_undirected_edge_is_oriented_both_ways_without_a_close(tmp_path, capsys):
    # With one undirected edge left no rule has anything to orient, so both
    # of its orientations are leaves laid out without a branch close.
    one = close(parse_graph("A -- B\nB -> C"))
    chain = close(parse_graph("A -- B\nB -- C"))
    path = tmp_path / "chain.g"
    path.write_text("A -- B\nB -- C\n")
    with mock.patch.object(meek, "close", wraps=meek.close) as spy:
        dags = enumerate_dags(one)
        assert spy.call_count == 0
        assert [d.directed for d in dags] == [
            {("A", "B"), ("B", "C")},
            {("B", "A"), ("B", "C")},
        ]
        # The root branches on A -- B and closes both pairs; A -> B forces
        # B -> C, and B -> A leaves B -- C, which needs no close.
        dags = enumerate_dags(chain)
        assert spy.call_count == 2
        assert [d.directed for d in dags] == [
            {("A", "B"), ("B", "C")},
            {("B", "A"), ("B", "C")},
            {("B", "A"), ("C", "B")},
        ]
        # The CLI closes its input, then the walk closes the two branches.
        spy.reset_mock()
        assert cli.main(["enumerate", "-g", str(path)]) == 0
        assert spy.call_count == 3
    assert capsys.readouterr().out.startswith("3\n")


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


def test_discrete_models_compare_by_identity(twotreat7):
    # Their fields hold arrays, whose == is elementwise: value equality
    # and hashing over them would raise.
    cards = {n: 2 for n in twotreat7.nodes}
    a = random_model(twotreat7, cards, seed=5)
    b = random_model(twotreat7, cards, seed=5)
    assert a == a and a != b and hash(a) != hash(b)
    assert len({a, b, a}) == 2


def test_interventional_tables_compare_by_identity(twotreat7):
    m = random_model(twotreat7, {n: 2 for n in twotreat7.nodes}, seed=5)
    t = gformula_table(m, {"X1", "X2"}, {"Y"})
    u = gformula_table(m, {"X1", "X2"}, {"Y"})
    assert t == t and t != u and len({t, u, t}) == 2
    doubled = dataclasses.replace(t, table=2 * t.table)
    assert doubled.x_nodes == t.x_nodes and np.array_equal(doubled.table, 2 * t.table)


def test_gaussian_models_and_reports_compare_by_value():
    def model():
        return GaussianModel(parse_graph("A -> B"), {("A", "B"): 0.5}, {"A": 1, "B": 0.75})

    assert model() == model()
    assert oracle.AgreementReport(3, 20, 0.0, 1e-17) == oracle.AgreementReport(3, 20, 0.0, 1e-17)


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


def _equal_models(a, b):
    """Equality of the constructor fields, with CPT arrays compared by value."""
    for f in dataclasses.fields(DiscreteModel):
        if f.init:
            x, y = getattr(a, f.name), getattr(b, f.name)
            if f.name == "cpts":
                if x.keys() != y.keys() or not all(np.array_equal(x[v], y[v]) for v in x):
                    return False
            elif x != y:
                return False
    return True


def test_model_keeps_read_only_copies():
    g = parse_graph("A -> B")
    a = np.array([0.5, 0.5])
    args = dict(dag=g, cards={"A": 2, "B": 2}, cpts={"A": a, "B": np.full((2, 2), 0.5)})
    m = DiscreteModel(**args)
    twin = DiscreteModel(**args)
    shown = repr(m)
    before = joint_table(m).copy()
    assert m._marginal(frozenset("A")) is not None
    assert m._conditional(frozenset("B"), frozenset("A")) is not None
    assert repr(m) == shown == repr(twin)
    assert _equal_models(m, twin)
    a[:] = [0.9, 0.1]  # the caller's array, not the model's
    assert np.array_equal(m.cpts["A"], [0.5, 0.5])
    assert np.array_equal(joint_table(m), before)
    with pytest.raises(TypeError):
        m.cpts["A"] = a
    with pytest.raises(ValueError):
        m.cpts["B"][0, 0] = 1.0
    with pytest.raises(ValueError):
        joint_table(m)[0, 0] = 1.0


def test_cap_check_raises_on_every_call(monkeypatch):
    monkeypatch.setattr(oracle, "CONFIG_CAP", 4)
    m = random_model(parse_graph("A -> B\nB -> C"), {"A": 2, "B": 2, "C": 2}, seed=1)
    for call in (lambda: joint_table(m), lambda: gformula_table(m, {"A"}, {"C"})) * 2:
        with pytest.raises(GraphError, match="^joint has 8 configurations; cap is 4$"):
            call()


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


def test_formula_refuses_an_intervened_target():
    """No factor targets an intervened node, as in a truncated
    factorization, so ``id_formula_table`` never integrates one out."""
    with pytest.raises(FormulaError, match="a factor targets an intervened node"):
        IdFormula(factors=(Factor({"X"}), Factor({"Y"}, {"X"})), intervened={"X"}, response={"Y"})


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
    """``random_model``'s draws, single and batched, and
    ``model_from_joint``'s cached layouts give the CPTs of the per-node
    code bit for bit, under four cardinality patterns, on the sweep and on
    6-8-node MPDAGs, also on a joint where some parent configurations
    have no mass."""
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
            batch = random_model(base, cards, gi, batch=3)
            _assert_same_cpts(batch.cpts, oracles.reference_random_model(base, cards, gi, batch=3))
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


# -- batched models -------------------------------------------------------------


@pytest.fixture(scope="module")
def larger():
    """MPDAGs with 6-8 nodes, each with its enumerated class."""
    graphs = oracles.random_mpdags(seed=171, count=16, n_nodes=(6, 7, 8))
    return [(g, enumerate_dags(g)) for g in graphs]


def _identifiable(g):
    return [
        (xs, ys, res.formula)
        for xs, ys in query_pairs(g.nodes)
        if (res := identify(g, xs, ys)).identifiable
    ]


def test_batched_agreement_equals_per_model_reference(sweep, larger):
    """``cross_dag_agreement`` reports exactly what the per-model loop
    reports, on the sweep and on 6-8-node MPDAGs, with ``n_models`` 20 and
    below ``len(dags)``: one query per graph, the settings taken in turn."""
    checked = fewer = 0
    for gi, (g, dags) in enumerate([*sweep, *larger]):
        queries = _identifiable(g)
        if not queries:
            continue
        xs, ys, f = queries[gi % len(queries)]
        n_models = 20 if gi % 2 == 0 else max(1, len(dags) - 1)
        fewer += n_models < len(dags)
        got = cross_dag_agreement(g, xs, ys, f, n_models=n_models, seed=gi)
        want = oracles.reference_cross_dag_agreement(
            g, xs, ys, f, n_models=n_models, seed=gi, dags=dags
        )
        assert got == want, (gi, xs, ys)
        checked += 1
    assert checked > 250 and fewer > 25


@pytest.mark.parametrize("n_models", [0, -3])
def test_agreement_refuses_fewer_than_one_model(mpdag4, n_models):
    f = identify(mpdag4, {"X"}, {"Y1"}).formula
    with pytest.raises(GraphError, match="n_models must be at least 1"):
        cross_dag_agreement(mpdag4, {"X"}, {"Y1"}, f, n_models=n_models)


def test_batched_agreement_in_passes_equals_reference(sweep, monkeypatch):
    """Under a small cap the models are taken in several passes; the
    reports still equal the per-model loop's."""
    monkeypatch.setattr(oracle, "CONFIG_CAP", 64)
    checked = 0
    for gi, (g, dags) in enumerate(sweep[::5]):
        queries = _identifiable(g)
        if queries and 2 ** len(g.nodes) > 4:  # more than one pass
            xs, ys, f = queries[gi % len(queries)]
            want = oracles.reference_cross_dag_agreement(g, xs, ys, f, seed=gi, dags=dags)
            assert cross_dag_agreement(g, xs, ys, f, seed=gi) == want
            checked += 1
    assert checked > 30


def test_batched_tables_equal_per_model_rows(sweep, larger):
    """Each row of a batched ``random_model``, ``joint_table``,
    ``model_from_joint``, ``gformula_table`` and ``id_formula_table`` is
    the single model's table, bit for bit, also for refits of a stack of
    joints in which one model has no mass at some parent configurations.
    With one cardinality for all nodes, the single models are drawn one
    after another from the batch's generator; otherwise they are the
    batch's rows."""
    rows = one_run = 0
    for gi, (g, dags) in enumerate([*sweep[::3], *larger]):
        pattern = CARD_PATTERNS[gi % len(CARD_PATTERNS)]
        cards = {v: pattern[i % len(pattern)] for i, v in enumerate(g.nodes)}
        base = dags[gi % len(dags)]
        batch = random_model(base, cards, gi, batch=3)
        if len(set(cards.values())) == 1:
            rng = np.random.Generator(np.random.PCG64(gi))
            singles = [random_model(base, cards, rng) for _ in range(3)]
            one_run += 1
        else:
            singles = [
                DiscreteModel(base, cards, {v: t[i] for v, t in batch.cpts.items()})
                for i in range(3)
            ]
        assert batch.batch == 3 and all(m.batch is None for m in singles)
        joints = joint_table(batch).copy()
        joints[1, 0] = 0.0  # no mass where model 1's first node takes its first value
        single_joints = [joint_table(m) for m in singles]
        single_joints[1] = joints[1]
        queries = _identifiable(g)[:2]
        for i, m in enumerate(singles):
            for v in g.nodes:
                assert np.array_equal(batch.cpts[v][i], m.cpts[v])
            assert np.array_equal(joint_table(batch)[i], joint_table(m))
            for xs, ys, f in queries:
                want = gformula_table(m, xs, ys).table
                assert np.array_equal(gformula_table(batch, xs, ys).table[i], want)
                want = id_formula_table(f, m).table
                assert np.array_equal(id_formula_table(f, batch).table[i], want)
        for d in dags[:4]:
            refit = model_from_joint(joints, g.nodes, cards, d)
            for i, joint in enumerate(single_joints):
                single = model_from_joint(joint, g.nodes, cards, d)
                for v in g.nodes:
                    assert np.array_equal(refit.cpts[v][i], single.cpts[v])
                assert np.array_equal(joint_table(refit)[i], joint_table(single))
                for xs, ys, _ in queries:
                    want = gformula_table(single, xs, ys).table
                    assert np.array_equal(gformula_table(refit, xs, ys).table[i], want)
                rows += 1
    assert rows > 500 and one_run > 10


def test_batched_formula_tables_equal_two_step_reference(larger):
    """On 6-8-node MPDAGs, every identifiable query's ``id_formula_table``
    of a batch of 3 models equals, row by row and bit for bit, the
    reference that integrates with every axis kept and then squeezes the
    rest, evaluated on that row's model alone."""
    checked = 0
    for gi, (g, dags) in enumerate(larger):
        cards = dict.fromkeys(g.nodes, 2)
        batch = random_model(dags[gi % len(dags)], cards, gi, batch=3)
        singles = [
            DiscreteModel(batch.dag, cards, {v: cpt[i] for v, cpt in batch.cpts.items()})
            for i in range(3)
        ]
        for xs, ys, f in _identifiable(g):
            got = id_formula_table(f, batch).table
            for i, m in enumerate(singles):
                want = oracles.reference_id_formula_table(f, m)
                assert np.array_equal(got[i], want), (gi, xs, ys)
            checked += 1
    assert checked > 2000


def test_shared_refits_equal_per_dag_refits(sweep, larger):
    """Refits of one stack of joints that share each family's CPT across
    the DAGs of the class, through one ``fits`` dict, equal the per-DAG
    refits bit for bit, also where one model has no mass at some parent
    configurations."""
    shared = 0
    for gi, (g, dags) in enumerate([*sweep, *larger]):
        pattern = CARD_PATTERNS[gi % len(CARD_PATTERNS)]
        cards = {v: pattern[i % len(pattern)] for i, v in enumerate(g.nodes)}
        joints = joint_table(random_model(dags[gi % len(dags)], cards, gi, batch=3)).copy()
        joints[1, 0] = 0.0  # no mass where model 1's first node takes its first value
        fits: dict = {}
        for d in dags:
            got = model_from_joint(joints, g.nodes, cards, d, fits)
            _assert_same_cpts(got.cpts, model_from_joint(joints, g.nodes, cards, d).cpts)
        shared += len(dags) * len(g.nodes) - len(fits)
    assert shared > 1000  # family refits the dict saved


def test_agreement_refits_each_family_once_per_pass(oracle_calls, monkeypatch):
    """On X -> every node of K_6 (720 DAGs of 7 nodes) with 20 models, the
    one pass refits 720 DAGs but each of their 193 distinct families once,
    not the 5,040 families of the DAGs one by one."""
    clique = [f"K{i}" for i in range(6)]
    edges = [f"{a} -- {b}" for a, b in itertools.combinations(clique, 2)]
    g = parse_graph("\n".join([f"X -> {v}" for v in clique] + edges))
    refits = collections.Counter()
    refit_family = oracle._refit_family

    def counted(joint, nodes, family, card, lead):
        refits[family] += 1
        return refit_family(joint, nodes, family, card, lead)

    monkeypatch.setattr(oracle, "_refit_family", counted)
    report = cross_dag_agreement(g, {"X"}, {"K0"}, identify(g, {"X"}, {"K0"}).formula, n_models=20)
    assert report.n_dags == 720 and oracle_calls["model_from_joint"] == 720
    assert len(refits) == sum(refits.values()) == 193


def test_batched_model_checks():
    """A batch is checked model by model: shapes include the model axis,
    and the first failing model's first failing node is named."""
    g = parse_graph("A -> B")
    cards = {"A": 2, "B": 2}
    ok = {"A": np.array([0.5, 0.5]), "B": np.array([[0.25, 0.5], [0.75, 0.5]])}
    stacked = {v: np.stack([t, t, t]) for v, t in ok.items()}
    assert DiscreteModel(g, cards, stacked, batch=3).batch == 3
    with pytest.raises(GraphError, match=r"^cpt shape mismatch at A: \(3, 2\) != \(2, 2\)$"):
        DiscreteModel(g, cards, stacked, batch=2)
    with pytest.raises(GraphError, match="at least one model"):
        DiscreteModel(g, cards, {v: t[:0] for v, t in stacked.items()}, batch=0)
    with pytest.raises(GraphError, match="at least one model"):
        random_model(g, cards, 0, batch=0)
    with pytest.raises(TypeError, match="an int or a numpy.random.Generator"):
        random_model(g, cards, [0, 1])
    bad = {v: t.copy() for v, t in stacked.items()}
    bad["B"][1, 0, 0] = 0.5  # model 1 fails at B
    bad["A"][2, 0] = 0.7  # model 2 fails at A
    with pytest.raises(GraphError, match="^cpt columns at B must be distributions$"):
        DiscreteModel(g, cards, bad, batch=3)


def _no_mass_off_zero(draw):
    draw[...] = 0.0
    draw[..., 0] = 1.0  # every column puts all mass on the first value


def _not_a_distribution(draw):
    # A negative draw leaves a negative entry in its normalised row.
    draw[0, 0] = -1.0


@pytest.mark.parametrize(
    "corrupt, error",
    [(_no_mass_off_zero, DegenerateConditioningError), (_not_a_distribution, GraphError)],
    ids=["zero-mass", "distribution"],
)
@pytest.mark.parametrize(
    "text, X, Y",
    [("X -> Y\n", "X", "Y"), (COVAR5_TEXT, "X", "Y"), (MPDAG4_TEXT, "X", "Y1,Y2")],
    ids=["chain", "covar5", "mpdag4"],
)
def test_batched_agreement_raises_the_reference_error(monkeypatch, corrupt, error, text, X, Y):
    """A failure forced into the eighth model drawn alone (no mass off
    each node's first value, so a conditional of the formula is undefined,
    or a CPT column with a negative entry) raises in the batched agreement
    the class and message the per-model loop raises.  The model is picked
    by its row in the generator's stream, which the batched draws and the
    per-model draws share."""
    g = parse_graph(text)
    xs, ys = set(X.split(",")), set(Y.split(","))
    f = identify(g, xs, ys).formula
    seed, row = 40, 7

    class Corrupting(np.random.Generator):
        drawn = 0  # models drawn from this generator so far

        def standard_exponential(self, size=None):
            draw = super().standard_exponential(size)
            models = draw.reshape(-1, *draw.shape[-2:])  # a view, one block per model
            if self.drawn <= row < self.drawn + len(models):
                corrupt(models[row - self.drawn])
            self.drawn += len(models)
            return draw

    monkeypatch.setattr(np.random, "Generator", Corrupting)
    with pytest.raises(error) as want:
        oracles.reference_cross_dag_agreement(g, xs, ys, f, seed=seed)
    with pytest.raises(error) as got:
        cross_dag_agreement(g, xs, ys, f, seed=seed)
    assert str(got.value) == str(want.value)


def test_batched_agreement_over_the_cap_raises_the_reference_error():
    """The cap applies to every model alike, so the first model raises it."""
    names = [f"N{i}" for i in range(21)]
    g = parse_graph("\n".join(f"node {n}" for n in names))
    f = identify(g, {"N0"}, {"N1"}).formula
    with pytest.raises(GraphError) as want:
        oracles.reference_cross_dag_agreement(g, {"N0"}, {"N1"}, f)
    with pytest.raises(GraphError) as got:
        cross_dag_agreement(g, {"N0"}, {"N1"}, f)
    assert str(got.value) == str(want.value) == "joint has 2097152 configurations; cap is 1048576"


COUNTED = ("random_model", "joint_table", "model_from_joint", "gformula_table", "id_formula_table")


@pytest.fixture
def oracle_calls(monkeypatch):
    """Counts calls of the oracle's model functions by name."""
    calls = dict.fromkeys(COUNTED, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in COUNTED:
        monkeypatch.setattr(oracle, name, counted(name, getattr(oracle, name)))
    return calls


def test_agreement_calls_per_base_dag_not_per_model(oracle_calls, covar5):
    """The 20 models of a one-DAG query are one batch, and a query over n
    DAGs refits at most n times, never once per model."""
    g = parse_graph("Z -> X\nZ -> Y\nX -> Y\n")
    cross_dag_agreement(g, {"X"}, {"Y"}, identify(g, {"X"}, {"Y"}).formula, n_models=20)
    assert oracle_calls == {
        "random_model": 1,
        "joint_table": 1,
        "model_from_joint": 0,
        "gformula_table": 1,
        "id_formula_table": 1,
    }
    oracle_calls.update(dict.fromkeys(COUNTED, 0))
    n = len(enumerate_dags(covar5))
    assert n > 1
    cross_dag_agreement(covar5, {"X"}, {"Y"}, identify(covar5, {"X"}, {"Y"}).formula, n_models=20)
    assert oracle_calls["model_from_joint"] <= n
    for name in ("random_model", "joint_table", "id_formula_table"):
        assert oracle_calls[name] == n
    assert oracle_calls["gformula_table"] <= 2 * n


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
    m1, m2, delta = nonid_witness(g, {"X"}, {"Y"})
    assert delta == 0.25
    e1 = oracles.interventional_means(m1, {"X": 1.0})
    e2 = oracles.interventional_means(m2, {"X": 1.0})
    assert abs(abs(e1["Y"] - e2["Y"]) - delta) < 1e-12


def test_nonid_witness_requires_witness(chain3):
    with pytest.raises(GraphError):
        nonid_witness(chain3, {"X1", "X2"}, {"Y"})


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


def test_discrete_model_requires_a_dag(pair):
    with pytest.raises(GraphError, match="discrete models require a DAG"):
        DiscreteModel(dag=pair, cards={"X": 2, "Y": 2}, cpts={})


def test_max_tv_refuses_tables_over_other_nodes(twotreat7):
    m = random_model(twotreat7, {n: 2 for n in twotreat7.nodes}, 1)
    a, b = gformula_table(m, {"X1"}, {"Y"}), gformula_table(m, {"X2"}, {"Y"})
    no_y = gformula_table(m, {"X1"}, ())
    for other in (b, no_y):
        with pytest.raises(ValueError, match="different node sets"):
            a.max_tv(other)
    # With no Y axis, each entry is its own total variation, halved.
    half = dataclasses.replace(no_y, table=no_y.table / 2)
    assert no_y.max_tv(half) == float((0.5 * np.abs(no_y.table - half.table)).max())


def test_gformula_table_refuses_overlapping_sets(twotreat7):
    m = random_model(twotreat7, {n: 2 for n in twotreat7.nodes}, 1)
    with pytest.raises(GraphError, match="X and Y must be disjoint"):
        gformula_table(m, {"X1"}, {"X1", "Y"})


def test_id_formula_table_refuses_a_node_outside_the_model(twotreat7):
    m = random_model(twotreat7, {n: 2 for n in twotreat7.nodes}, 1)
    f = IdFormula(factors=(Factor({"Z"}),), response={"Z"})
    with pytest.raises(GraphError, match="formula node Z missing from the model"):
        id_formula_table(f, m)


def test_gaussian_model_requires_a_dag(pair):
    with pytest.raises(GraphError, match="gaussian models require a DAG"):
        GaussianModel(dag=pair, coeffs={}, noise_vars={"X": 1.0, "Y": 1.0})


def test_gaussian_model_refuses_a_coefficient_off_the_edges():
    dag = Pdag(["X", "Y"], [("X", "Y")], (), "dag")
    with pytest.raises(GraphError, match=r"coefficient for non-edge \('Y', 'X'\)"):
        GaussianModel(dag=dag, coeffs={("Y", "X"): 0.5}, noise_vars={"X": 1.0, "Y": 1.0})


def test_gaussian_model_refuses_a_negative_or_missing_noise_variance():
    dag = Pdag(["X", "Y"], [("X", "Y")], (), "dag")
    for noise in ({"X": 1.0, "Y": -0.5}, {"X": 1.0}):
        with pytest.raises(GraphError, match="noise variance of Y must be nonnegative"):
            GaussianModel(dag=dag, coeffs={("X", "Y"): 0.5}, noise_vars=noise)
