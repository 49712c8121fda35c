"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (run with ``pytest -s`` to see them all)
and pins the tolerances stated in the package contract.  The shared sweep
fixture (``conftest.py``) holds 300 distinct small MPDAGs with their
enumerated classes.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from mpdagid import (
    Factor,
    GaussianModel,
    IdFormula,
    Pdag,
    check_adjustment,
    close,
    d_separated,
    enumerate_dags,
    forbidden_set,
    gaussian_effect,
    gformula_table,
    id_formula_table,
    identify,
    joint_table,
    model_from_joint,
    nonid_witness,
    parse_graph,
    pco,
    random_model,
    simulate,
    truncated_factorization,
    wright_cov,
)

import oracles
from conftest import CPDAG4_TEXT, MPDAG4_TEXT, COVAR5_TEXT, TWOTREAT7_TEXT, query_pairs


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:>2} [{desc}]: FAIL")
        raise
    else:
        print(f"\nACCEPTANCE {num:>2} [{desc}]: PASS")


def best_time(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_two_response_identification():
    with criterion(1, "two-response identification formula"):
        g = parse_graph(MPDAG4_TEXT)
        res = identify(g, {"X"}, {"Y1", "Y2"})
        expected = IdFormula(
            factors=(Factor({"Y1"}), Factor({"Y2"}, {"X", "Y1"})),
            intervened={"X"},
            response={"Y1", "Y2"},
        )
        assert res.identifiable
        assert oracles.structurally_equal(res.formula, expected)
        assert res.formula.integrate_over == set()
        assert best_time(lambda: identify(g, {"X"}, {"Y1", "Y2"})) < 1e-3


def test_criterion_2_integration_and_truncation():
    with criterion(2, "integrated formula and truncated factorization"):
        g = parse_graph(COVAR5_TEXT)
        res = identify(g, {"X"}, {"Y"})
        assert oracles.structurally_equal(
            res.formula,
            IdFormula(
                factors=(Factor({"V1", "V2"}), Factor({"Y"}, {"X", "V1", "V2"})),
                intervened={"X"},
                response={"Y"},
            ),
        )
        assert res.formula.integrate_over == {"V1", "V2"}
        trunc = truncated_factorization(g, {"X"})
        assert oracles.structurally_equal(
            trunc,
            IdFormula(
                factors=(Factor({"V1", "V2", "V3"}), Factor({"Y"}, {"X", "V1", "V2"})),
                intervened={"X"},
                response={"V1", "V2", "V3", "Y"},
            ),
        )
        assert best_time(lambda: identify(g, {"X"}, {"Y"})) < 1e-3
        assert best_time(lambda: truncated_factorization(g, {"X"})) < 1e-3


def test_criterion_3_two_treatment_estimation():
    with criterion(3, "two-treatment formula and gaussian estimate"):
        t0 = time.perf_counter()
        g = parse_graph(TWOTREAT7_TEXT)
        res = identify(g, {"X1", "X2"}, {"Y"})
        assert oracles.structurally_equal(
            res.formula,
            IdFormula(
                factors=(Factor({"V4"}, {"X1"}), Factor({"Y"}, {"X1", "X2", "V4"})),
                intervened={"X1", "X2"},
                response={"Y"},
            ),
        )
        alpha, beta, gamma, delta = 0.3, 0.5, 0.7, 0.6
        coeffs = {
            ("X1", "Y"): alpha,
            ("X2", "Y"): beta,
            ("V4", "Y"): gamma,
            ("X1", "V4"): delta,
            ("V2", "X1"): 0.4,
            ("V1", "X1"): 0.3,
            ("V3", "X2"): 0.5,
            ("V4", "X2"): 0.4,
        }
        model = GaussianModel(
            dag=Pdag(g.nodes, g.directed, g.undirected, "dag"),
            coeffs=coeffs,
            noise_vars={n: 1.0 for n in g.nodes},
        )
        data = simulate(model, 100_000, seed=42)
        effect = gaussian_effect(res.formula, data, ["X1", "X2"], {"Y"})
        assert abs(effect[0] - (alpha + gamma * delta)) < 0.02  # 0.72
        assert abs(effect[1] - beta) < 0.02  # 0.50
        assert time.perf_counter() - t0 < 5.0


def test_criterion_4_enumeration_counts():
    with criterion(4, "equivalence-class enumeration counts"):
        t0 = time.perf_counter()
        cpdag = parse_graph(CPDAG4_TEXT)
        mpdag = parse_graph(MPDAG4_TEXT)
        wide = {d.directed for d in enumerate_dags(cpdag)}
        narrow = {d.directed for d in enumerate_dags(mpdag)}
        assert len(narrow) == 3
        assert narrow <= wide
        assert time.perf_counter() - t0 < 1.0
        # Contract says eleven; the class provably contains ten DAGs (the
        # eleventh candidate orientation is cyclic), so this stays red.
        assert len(wide) == 11, f"expected 11 by contract, enumerated {len(wide)}"


def test_criterion_5_closure_golden():
    with criterion(5, "closure with background knowledge"):
        cpdag = parse_graph(CPDAG4_TEXT)
        target = parse_graph(MPDAG4_TEXT)
        bk = {("Y1", "X"), ("X", "Y2")}
        closed = close(cpdag, bk)
        assert closed == target
        assert closed.directed == target.directed
        assert closed.undirected == target.undirected
        assert best_time(lambda: close(cpdag, bk)) < 1e-3


def test_criterion_6_oracle_completeness_sweep(sweep):
    with criterion(6, "oracle completeness sweep over 300 MPDAGs"):
        t0 = time.perf_counter()
        n_id = n_non = 0
        for gi, (g, dags) in enumerate(sweep):
            cards = {n: 2 for n in g.nodes}
            models = [
                random_model(dags[k % len(dags)], cards, seed=9000 + 37 * gi + k)
                for k in range(20)
            ]
            refits = [
                [model_from_joint(joint_table(m), g.nodes, cards, d) for d in dags]
                for m in models
            ]
            for xs, ys in query_pairs(g.nodes):
                res = identify(g, xs, ys)
                if res.identifiable:
                    n_id += 1
                    for k, m in enumerate(models):
                        tables = [gformula_table(r, xs, ys) for r in refits[k]]
                        ref = tables[0]
                        for t in tables[1:]:
                            assert ref.max_tv(t) < 1e-9
                        assert ref.max_tv(id_formula_table(res.formula, m)) < 1e-9
                else:
                    n_non += 1
                    m1, m2, delta = nonid_witness(g, xs, ys)
                    _, c1 = wright_cov(m1)
                    _, c2 = wright_cov(m2)
                    assert np.abs(c1 - c2).max() < 1e-12
                    assert delta >= 0.05
        assert n_id > 0 and n_non > 0
        assert time.perf_counter() - t0 < 600.0


def test_criterion_7_adjustment_incompleteness():
    with criterion(7, "adjustment criterion incompleteness"):
        mpdag = parse_graph(MPDAG4_TEXT)
        dag = parse_graph(TWOTREAT7_TEXT)
        assert identify(mpdag, {"X"}, {"Y1", "Y2"}).identifiable
        assert identify(dag, {"X1", "X2"}, {"Y"}).identifiable
        rest = sorted(set(mpdag.nodes) - {"X", "Y1", "Y2"})
        for r in range(len(rest) + 1):
            for z in itertools.combinations(rest, r):
                assert not check_adjustment(mpdag, {"X"}, {"Y1", "Y2"}, set(z))
        rest = sorted(set(dag.nodes) - {"X1", "X2", "Y"})
        for r in range(len(rest) + 1):
            for z in itertools.combinations(rest, r):
                assert not check_adjustment(dag, {"X1", "X2"}, {"Y"}, set(z))
        assert forbidden_set(dag, {"X1", "X2"}, {"Y"}) == {"V4", "Y"}


def test_criterion_8_parent_adjustment_completeness(sweep):
    with criterion(8, "parent-set adjustment completeness for singletons"):
        for g, _ in sweep:
            for x, y in itertools.permutations(sorted(g.nodes), 2):
                if y in g.parents_of(x):
                    continue
                identifiable = identify(g, {x}, {y}).identifiable
                assert identifiable == check_adjustment(g, {x}, {y}, g.set_parents({x}))


def test_criterion_9_partial_ordering(sweep):
    with criterion(9, "partial causal ordering properties"):
        mpdag = parse_graph(MPDAG4_TEXT)
        assert pco(mpdag, {"X", "Y1", "Y2"}) == (
            frozenset({"X", "Y1"}),
            frozenset({"Y2"}),
        )
        for g, dags in sweep:
            parts = pco(g, g.nodes)
            rank = {n: i for i, b in enumerate(parts) for n in b}
            for d in dags:
                assert all(rank[t] <= rank[h] for t, h in d.directed)
        import random as _random

        rng = _random.Random(3)
        count = 0
        for g in oracles.random_mpdags(seed=515, count=1000, n_nodes=(2, 3, 4, 5, 6, 7)):
            d = frozenset(n for n in g.nodes if rng.random() < 0.5)
            parts = pco(g, d)
            assert sorted(n for b in parts for n in b) == sorted(d)
            count += 1
        assert count == 1000


def test_criterion_10_dsep_soundness(sweep):
    with criterion(10, "d-separation sound for every represented DAG"):
        for g, dags in sweep:
            nodes = sorted(g.nodes)
            nxdags = [oracles.to_networkx(d) for d in dags]
            for x, y in itertools.permutations(nodes, 2):
                rest = [n for n in nodes if n not in (x, y)]
                for r in range(len(rest) + 1):
                    for z in itertools.combinations(rest, r):
                        if d_separated(g, {x}, {y}, set(z)):
                            import networkx as nx

                            for h in nxdags:
                                assert nx.is_d_separator(h, {x}, {y}, set(z))
