import copy
import itertools
import pickle

import pytest

from mpdagid import (
    AdjustmentResult,
    Factor,
    GraphError,
    IdFormula,
    IdentifyResult,
    NotTruncatableError,
    amenability_witness,
    check_adjustment,
    cross_dag_agreement,
    enumerate_dags,
    find_adjustment_set,
    id_formula_table,
    identify,
    joint_table,
    parse_graph,
    pco,
    random_model,
    render,
    truncated_factorization,
)
from mpdagid.identify import _ancestor_formula

import oracles


def test_identify_two_responses(mpdag4):
    res = identify(mpdag4, {"X"}, {"Y1", "Y2"})
    assert res.identifiable
    expected = IdFormula(
        factors=(Factor({"Y1"}), Factor({"Y2"}, {"X", "Y1"})),
        intervened={"X"},
        response={"Y1", "Y2"},
    )
    assert oracles.structurally_equal(res.formula, expected)
    assert res.formula.integrate_over == set()


def test_identify_with_integration(covar5):
    res = identify(covar5, {"X"}, {"Y"})
    expected = IdFormula(
        factors=(Factor({"V1", "V2"}), Factor({"Y"}, {"X", "V1", "V2"})),
        intervened={"X"},
        response={"Y"},
    )
    assert oracles.structurally_equal(res.formula, expected)


def test_identify_two_treatments(twotreat7):
    res = identify(twotreat7, {"X1", "X2"}, {"Y"})
    expected = IdFormula(
        factors=(Factor({"V4"}, {"X1"}), Factor({"Y"}, {"X1", "X2", "V4"})),
        intervened={"X1", "X2"},
        response={"Y"},
    )
    assert oracles.structurally_equal(res.formula, expected)


def test_identify_rejects_undirected_start(pair):
    res = identify(pair, {"X"}, {"Y"})
    assert not res.identifiable
    assert res.witness == ("X", "Y")


def test_identify_conditioning_only_on_treated_parent(chain3):
    res = identify(chain3, {"X1", "X2"}, {"Y"})
    expected = IdFormula(
        factors=(Factor({"Y"}, {"X2"}),), intervened={"X1", "X2"}, response={"Y"}
    )
    assert oracles.structurally_equal(res.formula, expected)
    # confirmed against every represented DAG on random discrete models
    rep = cross_dag_agreement(chain3, {"X1", "X2"}, {"Y"}, res.formula, n_models=10, seed=2)
    assert rep.max_cross_dag_tv < 1e-9 and rep.max_formula_tv < 1e-9


def test_identify_zero_effect_shortcut(mpdag4):
    res = identify(mpdag4, {"Y2"}, {"X"})
    assert oracles.structurally_equal(
        res.formula,
        IdFormula(factors=(Factor({"X"}),), intervened={"Y2"}, response={"X"}),
    )
    assert render(res.formula) == "f(x|do(y2)) = f(x)"


def test_zero_effect_shortcut_agrees_with_long_form(mpdag4):
    short = identify(mpdag4, {"Y2"}, {"X"}).formula
    long = _ancestor_formula(mpdag4, frozenset({"Y2"}), frozenset({"X"}))
    for i, dag in enumerate(enumerate_dags(mpdag4)):
        m = random_model(dag, {n: 2 for n in mpdag4.nodes}, seed=100 + i)
        a = id_formula_table(short, m)
        b = id_formula_table(long, m)
        assert a.max_tv(b) < 1e-9


def test_zero_effect_shortcut_agrees_on_random_graphs():
    checked = 0
    for gi, g in enumerate(oracles.random_mpdags(seed=303, count=60)):
        nodes = sorted(g.nodes)
        dags = None
        for x, y in itertools.permutations(nodes, 2):
            res = identify(g, {x}, {y})
            if not res.identifiable or len(res.formula.factors) != 1:
                continue
            only = res.formula.factors[0]
            if only.given or only.targets != {y}:
                continue  # not the f(y) shortcut
            long = _ancestor_formula(g, frozenset({x}), frozenset({y}))
            if dags is None:
                dags = enumerate_dags(g)
            for i, dag in enumerate(dags):
                m = random_model(dag, {n: 2 for n in nodes}, seed=400 + 7 * gi + i)
                assert id_formula_table(res.formula, m).max_tv(
                    id_formula_table(long, m)
                ) < 1e-9
            checked += 1
    assert checked > 10


def test_identify_empty_treatment_is_observational_marginal(mpdag4):
    res = identify(mpdag4, set(), {"Y2"})
    f = res.formula
    assert f.intervened == set()
    assert f.response == {"Y2"}
    # ancestors of Y2 factorized over the partial causal ordering
    assert oracles.structurally_equal(
        f,
        IdFormula(
            factors=(Factor({"X", "Y1"}), Factor({"Y2"}, {"X", "Y1"})),
            response={"Y2"},
        ),
    )
    for i, dag in enumerate(enumerate_dags(mpdag4)):
        m = random_model(dag, {n: 2 for n in mpdag4.nodes}, seed=7 + i)
        got = id_formula_table(f, m).table
        want = joint_table(m).sum(axis=(0, 1, 2))  # marginal of Y2 (last node)
        assert abs(got - want).max() < 1e-12


def test_identify_input_validation(mpdag4, pair):
    with pytest.raises(GraphError):
        identify(mpdag4, {"X"}, set())
    with pytest.raises(GraphError):
        identify(mpdag4, {"X"}, {"X", "Y2"})
    with pytest.raises(GraphError):
        identify(parse_graph("A -> B\nB -- C"), {"A"}, {"C"})


def test_factor_conditioners_precede_their_bucket():
    # identified formulas condition only on do() nodes and earlier targets
    for g in oracles.random_mpdags(seed=61, count=60):
        nodes = sorted(g.nodes)
        for x, y in itertools.permutations(nodes, 2):
            res = identify(g, {x}, {y})
            if not res.identifiable:
                continue
            seen = set()
            for factor in res.formula.factors:
                assert factor.given <= res.formula.intervened | seen
                seen |= factor.targets


def test_identifiable_iff_amenable():
    for g in oracles.random_mpdags(seed=71, count=60):
        nodes = sorted(g.nodes)
        for x, y in itertools.permutations(nodes, 2):
            res = identify(g, {x}, {y})
            assert res.identifiable == (amenability_witness(g, {x}, {y}) is None)
            if not res.identifiable:
                assert res.witness is not None
                assert res.witness[1] in g.und_neighbors(res.witness[0])


def test_truncated_factorization_golden(covar5):
    f = truncated_factorization(covar5, {"X"})
    expected = IdFormula(
        factors=(Factor({"V1", "V2", "V3"}), Factor({"Y"}, {"X", "V1", "V2"})),
        intervened={"X"},
        response={"V1", "V2", "V3", "Y"},
    )
    assert oracles.structurally_equal(f, expected)
    assert f.integrate_over == set()


def test_truncated_factorization_blocked_by_undirected_edge(mpdag4):
    with pytest.raises(NotTruncatableError):
        truncated_factorization(mpdag4, {"X"})


def test_observational_factorization(mpdag4):
    f = truncated_factorization(mpdag4, set())
    buckets = pco(mpdag4, mpdag4.nodes)
    assert tuple(fc.targets for fc in f.factors) == buckets
    assert f.response == set(mpdag4.nodes)
    # equals the raw joint on every represented DAG
    for i, dag in enumerate(enumerate_dags(mpdag4)):
        m = random_model(dag, {n: 2 for n in mpdag4.nodes}, seed=50 + i)
        got = id_formula_table(f, m)
        joint = joint_table(m)
        order = [sorted(mpdag4.nodes).index(n) for n in mpdag4.nodes]
        assert abs(got.table - joint.transpose(order)).max() < 1e-12


def test_check_adjustment_goldens(mpdag4, twotreat7):
    assert not check_adjustment(twotreat7, {"X1", "X2"}, {"Y"}, set())
    assert not check_adjustment(twotreat7, {"X1", "X2"}, {"Y"}, {"V1", "V2", "V3"})
    assert check_adjustment(parse_graph("X -> Y"), {"X"}, {"Y"}, set())
    rest = set(mpdag4.nodes) - {"X", "Y1", "Y2"}
    for r in range(len(rest) + 1):
        for z in itertools.combinations(sorted(rest), r):
            assert not check_adjustment(mpdag4, {"X"}, {"Y1", "Y2"}, set(z))


def test_find_adjustment_set_parents(covar5):
    res = find_adjustment_set(covar5, {"X"}, {"Y"})
    assert res.status == "set_found"
    assert res.adjustment == {"V1", "V2", "V3"}
    assert check_adjustment(covar5, {"X"}, {"Y"}, res.adjustment)


def test_find_adjustment_set_none_for_multiresponse(mpdag4):
    res = find_adjustment_set(mpdag4, {"X"}, {"Y1", "Y2"})
    assert res.status == "none_exists"
    assert res.reason == "blocked_path_unachievable"


def test_find_adjustment_zero_effect():
    g = parse_graph("Y -> X")
    res = find_adjustment_set(g, {"X"}, {"Y"})
    assert res.status == "zero_effect"


def test_find_adjustment_not_amenable(pair):
    res = find_adjustment_set(pair, {"X"}, {"Y"})
    assert res.status == "none_exists" and res.reason == "not_amenable"


def test_adjustment_functional_matches_identification():
    # whenever Z passes the criterion, integrating f(y|x,z) f(z) over z
    # reproduces the identified interventional law on every DAG
    checked = 0
    for g in oracles.random_mpdags(seed=83, count=80):
        nodes = sorted(g.nodes)
        for x, y in itertools.permutations(nodes, 2):
            rest = [n for n in nodes if n not in (x, y)]
            for r in range(len(rest) + 1):
                for z in itertools.combinations(rest, r):
                    if not check_adjustment(g, {x}, {y}, set(z)):
                        continue
                    res = identify(g, {x}, {y})
                    assert res.identifiable
                    adj = oracles.adjustment_formula({x}, {y}, set(z))
                    dags = enumerate_dags(g)
                    for i, dag in enumerate(dags):
                        m = random_model(dag, {n: 2 for n in nodes}, seed=i)
                        a = id_formula_table(res.formula, m)
                        b = id_formula_table(adj, m)
                        assert a.max_tv(b) < 1e-9
                    checked += 1
                    break  # one Z per pair keeps the sweep quick
    assert checked > 20


def test_parent_adjustment_complete_for_singletons():
    for g in oracles.random_mpdags(seed=97, count=80):
        nodes = sorted(g.nodes)
        for x, y in itertools.permutations(nodes, 2):
            if y in g.parents_of(x):
                continue
            ident = identify(g, {x}, {y}).identifiable
            assert ident == check_adjustment(g, {x}, {y}, g.set_parents({x}))


def test_truncated_factorization_refuses_x_covering_the_graph(mpdag4):
    with pytest.raises(GraphError, match="X covers the whole graph"):
        truncated_factorization(mpdag4, set(mpdag4.nodes))


def test_check_adjustment_refuses_overlapping_sets(covar5):
    with pytest.raises(GraphError, match="pairwise disjoint"):
        check_adjustment(covar5, {"X"}, {"Y"}, {"X", "V1"})


def test_find_adjustment_set_refuses_overlapping_sets(covar5):
    with pytest.raises(GraphError, match="nonempty and disjoint"):
        find_adjustment_set(covar5, {"X", "Y"}, {"Y"})


def test_results_are_values(mpdag4, pair):
    a, b = identify(mpdag4, {"X"}, {"Y1", "Y2"}), identify(mpdag4, {"X"}, {"Y1", "Y2"})
    assert a == b and hash(a) == hash(b) and a is not b
    w = identify(pair, {"X"}, {"Y"})
    assert w == IdentifyResult(witness=("X", "Y")) and w != a
    assert IdentifyResult() == IdentifyResult(None, None) and not IdentifyResult().identifiable
    assert IdentifyResult() != (None, None)
    r = find_adjustment_set(pair, {"X"}, {"Y"})
    assert r == AdjustmentResult("none_exists", None, "not_amenable")
    assert hash(r) == hash(AdjustmentResult(status="none_exists", reason="not_amenable"))
    assert r != AdjustmentResult("none_exists") and r != ("none_exists", None, "not_amenable")
    found = AdjustmentResult("set_found", frozenset({"A"}))
    assert found.adjustment == {"A"} and found.reason is None
    assert AdjustmentResult("zero_effect") != IdentifyResult()
    assert IdentifyResult() != AdjustmentResult("zero_effect")
    assert len({a, b, w}) == 2


@pytest.mark.parametrize(
    "value, field",
    [(IdentifyResult(witness=("X", "Y")), "witness"), (AdjustmentResult("zero_effect"), "status")],
)
def test_results_are_frozen(value, field):
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == before


def test_results_repr_like_a_dataclass():
    assert repr(IdentifyResult(witness=("X", "Y"))) == (
        "IdentifyResult(formula=None, witness=('X', 'Y'))"
    )
    assert repr(AdjustmentResult("set_found", frozenset({"A"}))) == (
        "AdjustmentResult(status='set_found', adjustment=frozenset({'A'}), reason=None)"
    )
    f = IdFormula(factors=(Factor({"Y"}),), intervened={"X"}, response={"Y"})
    assert repr(IdentifyResult(f)) == f"IdentifyResult(formula={f!r}, witness=None)"


def test_results_survive_pickle_and_copy(mpdag4):
    for value in (identify(mpdag4, {"X"}, {"Y1", "Y2"}), AdjustmentResult("zero_effect")):
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.copy(value) == value and copy.deepcopy(value) == value
