import csv
import io
import random

import numpy as np
import pytest

from mpdagid import (
    Dataset,
    EstimationError,
    GaussianModel,
    Pdag,
    enumerate_dags,
    gaussian_effect,
    identify,
    parse_graph,
    simulate,
)
from mpdagid import estimate

import oracles


def _two_treatment_model(twotreat7, alpha=0.3, beta=0.5, gamma=0.7, delta=0.6):
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
    dag = Pdag(twotreat7.nodes, twotreat7.directed, twotreat7.undirected, "dag")
    return GaussianModel(dag=dag, coeffs=coeffs, noise_vars={n: 1.0 for n in dag.nodes})


def test_two_treatment_effect_recovered(twotreat7):
    model = _two_treatment_model(twotreat7)
    data = simulate(model, 40_000, seed=17)
    res = identify(twotreat7, {"X1", "X2"}, {"Y"})
    effect = gaussian_effect(res.formula, data, ["X1", "X2"], {"Y"})
    assert abs(effect[0] - 0.72) < 0.03  # alpha + gamma * delta
    assert abs(effect[1] - 0.50) < 0.03  # beta


def test_effect_vector_follows_treatment_order(twotreat7):
    model = _two_treatment_model(twotreat7)
    data = simulate(model, 20_000, seed=18)
    res = identify(twotreat7, {"X1", "X2"}, {"Y"})
    fwd = gaussian_effect(res.formula, data, ["X1", "X2"], {"Y"})
    rev = gaussian_effect(res.formula, data, ["X2", "X1"], {"Y"})
    assert np.allclose(fwd, rev[::-1])


def test_single_edge_slope():
    g = parse_graph("X -> Y")
    model = GaussianModel(
        dag=Pdag(g.nodes, g.directed, g.undirected, "dag"),
        coeffs={("X", "Y"): 0.8},
        noise_vars={"X": 1.0, "Y": 1.0},
    )
    data = simulate(model, 100_000, seed=19)
    res = identify(g, {"X"}, {"Y"})
    effect = gaussian_effect(res.formula, data, ["X"], {"Y"})
    assert abs(effect[0] - 0.8) < 0.02


def test_zero_effect_formula_gives_zero_vector(mpdag4):
    res = identify(mpdag4, {"Y2"}, {"X"})
    rng = np.random.default_rng(0)
    data = Dataset(columns=list(mpdag4.nodes), rows=rng.standard_normal((50, 4)))
    effect = gaussian_effect(res.formula, data, ["Y2"], {"X"})
    assert np.allclose(effect, 0.0)


def test_estimate_converges_for_every_represented_dag(covar5):
    # identifiability means the estimate only depends on the observational
    # law, so data from any represented DAG recovers that DAG's gradient
    import random as _random

    rng = _random.Random(23)
    res = identify(covar5, {"X"}, {"Y"})
    n = 100_000
    for i, dag in enumerate(enumerate_dags(covar5)):
        coeffs = {}
        for t, h in sorted(dag.directed):
            scale = max(1, len(dag.parents_of(h)))
            coeffs[(t, h)] = rng.uniform(0.1, 0.5) / scale
        model = GaussianModel(
            dag=dag, coeffs=coeffs, noise_vars={v: 1.0 for v in dag.nodes}
        )
        data = simulate(model, n, seed=200 + i)
        effect = gaussian_effect(res.formula, data, ["X"], {"Y"})
        truth = oracles.causal_path_gradient(dag, "X", set(), "Y", coeffs)
        assert abs(effect[0] - truth) < 5 * 10 / np.sqrt(n)


def test_requires_singleton_response(twotreat7, mpdag4):
    res = identify(mpdag4, {"X"}, {"Y1", "Y2"})
    rng = np.random.default_rng(1)
    data = Dataset(columns=list(mpdag4.nodes), rows=rng.standard_normal((50, 4)))
    with pytest.raises(EstimationError):
        gaussian_effect(res.formula, data, ["X"], {"Y1", "Y2"})


def test_requires_matching_treatments(covar5):
    res = identify(covar5, {"X"}, {"Y"})
    rng = np.random.default_rng(2)
    data = Dataset(columns=list(covar5.nodes), rows=rng.standard_normal((50, 5)))
    with pytest.raises(EstimationError):
        gaussian_effect(res.formula, data, ["X", "V1"], {"Y"})


def test_singular_design_rejected(twotreat7):
    res = identify(twotreat7, {"X1", "X2"}, {"Y"})
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((60, 7))
    cols = list(twotreat7.nodes)
    rows[:, cols.index("V4")] = rows[:, cols.index("X1")]  # collinear
    data = Dataset(columns=cols, rows=rows)
    with pytest.raises(EstimationError, match="singular"):
        gaussian_effect(res.formula, data, ["X1", "X2"], {"Y"})


def test_out_of_order_formula_rejected():
    from mpdagid import Factor, IdFormula

    f = IdFormula(factors=(Factor({"A"}, {"B"}), Factor({"B"})), response={"A", "B"})
    g = IdFormula(factors=(Factor({"A"}, {"B"}), Factor({"B"})), response={"A"})
    rng = np.random.default_rng(4)
    data = Dataset(columns=["A", "B"], rows=rng.standard_normal((20, 2)))
    with pytest.raises(EstimationError):
        gaussian_effect(g, data, [], {"A"})
    with pytest.raises(EstimationError):  # non-singleton response
        gaussian_effect(f, data, [], {"A", "B"})


def test_dataset_validation():
    with pytest.raises(EstimationError):
        Dataset(columns=["A", "B"], rows=np.zeros((2, 2)))  # n <= p
    with pytest.raises(EstimationError):
        Dataset(columns=["A", "A"], rows=np.zeros((5, 2)))
    with pytest.raises(EstimationError):
        Dataset(columns=["A", "B"], rows=[[1.0, 2.0], [3.0]])  # ragged
    bad = np.zeros((5, 2))
    bad[0, 0] = np.nan
    with pytest.raises(EstimationError):
        Dataset(columns=["A", "B"], rows=bad)


def test_dataset_csv_round_trip():
    d = Dataset(columns=["A", "B"], rows=np.array([[1.0, 2.5], [3.0, -4.25], [0.5, 0.0]]))
    back = Dataset.from_csv(oracles.to_csv(d))
    assert back.columns == d.columns
    assert np.array_equal(back.rows, d.rows)
    with pytest.raises(EstimationError):
        Dataset.from_csv("A,B\n1,oops\n")
    with pytest.raises(EstimationError):
        Dataset.from_csv("")
    with pytest.raises(EstimationError, match="need more data rows than columns: 0 rows"):
        Dataset.from_csv("A,B\n")


def _csv_text(rng: random.Random) -> str:
    """A header and rows drawn from a small grammar of cells and lines."""
    cells = ["1", "-2.5", " 3 ", "1_000", "nan", "inf", "-inf", "1e5", "", "x", '"4"', "-0", "0.1"]

    def cell():
        return repr(rng.uniform(-9, 9)) if rng.random() < 0.9 else rng.choice(cells)

    width = rng.choice([1, 2, 3])
    lines = [",".join(rng.choice(["A", " B", "C "]) + str(i) for i in range(width))]
    for _ in range(rng.choice([0, 1, 3, 6])):
        kind = rng.random()
        if kind < 0.1:
            lines.append(rng.choice(["", " ", "\t"]))  # blank, whitespace only
        else:
            n = width if kind < 0.9 else rng.choice([width - 1, width + 1])  # ragged
            lines.append(",".join(cell() for _ in range(n)) + ("," if rng.random() < 0.05 else ""))
    eol = rng.choice(["\n", "\r\n"])
    return eol.join(lines) + (eol if rng.random() < 0.7 else "")


def _from_csv_outcome(text):
    try:
        d = Dataset.from_csv(text)
    except EstimationError as exc:
        return str(exc)
    return d.columns, d.rows.shape, d.rows.tobytes()


@pytest.mark.filterwarnings("error")  # loadtxt warns on a body without data lines
def test_csv_fast_path_equals_csv_loop(monkeypatch):
    """Wherever ``np.loadtxt`` parses the body, the ``csv`` loop gives the
    same array, bit for bit; everywhere else ``from_csv`` falls back to the
    loop, so data sets and error messages are those of the loop alone."""
    rng = random.Random(61)
    texts = [_csv_text(rng) for _ in range(3000)]
    fast = 0
    for text in texts:
        reader = csv.reader(io.StringIO(text))
        width = len(next(reader))
        rows = estimate._loadtxt_body(text, width)
        if rows is not None:
            fast += 1
            want = estimate._csv_body(reader, width)
            assert rows.shape == want.shape and rows.tobytes() == want.tobytes()
    assert fast > 500  # texts the fast path parsed
    outcomes = [_from_csv_outcome(text) for text in texts]
    monkeypatch.setattr(estimate, "_loadtxt_body", lambda text, width: None)
    assert [_from_csv_outcome(text) for text in texts] == outcomes
