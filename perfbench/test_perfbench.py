"""Tests of the benchmark's own pieces: span self times, tracing at every
lookup site, the deadline, and each output check on a corrupted output.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_times  # noqa: E402

workloads.bind_checkout()


def span(name, start, end, parent):
    s = Span(name, start, parent, 0)
    s.end = end
    return s


def test_self_time_subtracts_covered_part_of_children():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.child", 2.0, 3.0, 1),
        span("b", 5.0, 6.0, 0),
        span("c", 5.5, 7.0, 0),  # overlaps b: the union [5, 7] counts once
    ]
    assert self_times(spans) == [10.0 - 3.0 - 2.0, 2.0, 1.0, 1.0, 1.5]


def test_tracer_wraps_every_lookup_site_and_restores(tmp_path):
    import mpdagid
    from mpdagid import cli, graphs, meek, oracle

    originals = (graphs.parse_graph, cli.parse_graph, meek.parse_graph, mpdagid.parse_graph, oracle.close)
    path = tmp_path / "g.g"
    path.write_text("A -- B\nB -- C\n")
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.parse_graph is graphs.parse_graph is meek.parse_graph is mpdagid.parse_graph
        assert cli.parse_graph.__wrapped__ is originals[0]
        assert oracle.close is meek.close and oracle.close.__wrapped__ is originals[4]
        workloads.invoke(["close", "-g", str(path)])  # outside an operation: no spans
        assert tracer.spans == []
        tracer.op = 0
        o = workloads.invoke(["enumerate", "-g", str(path)])
        tracer.op = None
    finally:
        tracer.uninstall()
    assert (graphs.parse_graph, cli.parse_graph, meek.parse_graph, mpdagid.parse_graph, oracle.close) == originals
    assert o.rc == 0 and o.stdout.startswith("3\n")
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0].parent == -1
    assert all(s.parent >= 0 for s in tracer.spans[1:])
    m = layer_metrics(tracer)
    assert m["oracle.enumerate_dags.calls"] == 1 and m["oracle.enumerate_dags.dags"] == 3
    assert m["meek.close.calls"] == names.count("meek.close") > 1
    assert m["cli.main.self_s"] > 0


def test_missed_deadline_is_an_error_not_a_latency(tmp_path):
    path = tmp_path / "g.g"
    path.write_text("".join(f"N{i} -- N{j}\n" for i in range(8) for j in range(i + 1, 8)))
    o = workloads.invoke(["enumerate", "-g", str(path)], deadline=0.01)
    assert o.error and "deadline" in o.error and o.rc is None


G = checks.parse_edgelist("A -- B\nB -> C\nA -- D\nD -> C\nC -> E\n")


def test_witness_check_accepts_a_proper_possibly_causal_path():
    assert checks.check_witness("A -- B -> C", G, frozenset("A"), frozenset("C")) is None


def test_witness_check_rejects_bad_paths():
    x, y = frozenset("A"), frozenset("C")
    assert "not an edge" in checks.check_witness("A -> B -> C", G, x, y)
    assert "not an edge" in checks.check_witness("A -- C", G, x, y)
    assert "does not end in Y" in checks.check_witness("A -- B -> C -> E", G, x, y)
    assert "not proper" in checks.check_witness("A -- B -> C", G, frozenset("AB"), y)
    assert "does not start undirected" in checks.check_witness("B -> C", G, frozenset("B"), y)
    back = checks.parse_edgelist("A -- B\nB -- C\nC -> A\n")
    assert "later to earlier" in checks.check_witness("A -- B -- C", back, x, y)


DAGS_TEXT = "3\n\nA -> B\nB -> C\n\nB -> A\nB -> C\n\nB -> A\nC -> B\n"
CHAIN = checks.parse_edgelist("A -- B\nB -- C\n")


def test_dag_list_check_accepts_the_class():
    assert checks.check_dag_list(DAGS_TEXT, CHAIN, 3) is None


def test_dag_list_check_rejects_corrupted_outputs():
    assert "recorded" in checks.check_dag_list(DAGS_TEXT, CHAIN, 4)
    wrong_count = DAGS_TEXT.replace("3\n", "2\n", 1)
    assert checks.check_dag_list(wrong_count, CHAIN, 2).startswith("3 DAGs printed")
    duplicate = "3\n\nA -> B\nB -> C\n\nA -> B\nB -> C\n\nB -> A\nC -> B\n"
    assert "distinct" in checks.check_dag_list(duplicate, CHAIN, 3)
    collider = "3\n\nA -> B\nC -> B\n\nB -> A\nB -> C\n\nB -> A\nC -> B\n"
    assert "unshielded colliders" in checks.check_dag_list(collider, CHAIN, 3)
    triangle = checks.parse_edgelist("A -- B\nB -- C\nA -- C\n")
    cyclic = "1\n\nA -> B\nB -> C\nC -> A\n"
    assert "cycle" in checks.check_dag_list(cyclic, triangle, 1)
    undirected = "1\n\nA -- B\nB -> C\n"
    assert "undirected" in checks.check_dag_list(undirected, CHAIN, 1)


def test_total_effects_sum_directed_paths_with_x_held():
    coeffs = {("A", "B"): 0.5, ("B", "C"): 2.0, ("A", "C"): 1.0}
    assert checks.total_effects(["A", "B", "C"], coeffs, ["A"], "C") == [2.0]
    assert checks.total_effects(["A", "B", "C"], coeffs, ["A", "B"], "C") == [1.0, 2.0]


def test_effect_check_rejects_a_wrong_effect():
    out = json.dumps({"response": "C", "effect": {"A": 2.01}})
    assert checks.check_effect(out, ["A"], "C", [2.0], 0.1) is None
    assert "tolerance" in checks.check_effect(out, ["A"], "C", [1.5], 0.1)
    assert "wrong nodes" in checks.check_effect(out, ["B"], "C", [2.0], 0.1)


def test_verify_check_rejects_a_wrong_verdict_or_deviation():
    ident = "identifiable: f(c|do(a)) = f(c|a)\ndags: 2\nmax cross-dag deviation: 1.0e-17\nmax formula deviation: 2.0e-17\n"
    g = checks.parse_edgelist("A -- B\nA -> C\nB -> C\n")
    assert checks.check_verify(ident, g, frozenset("A"), frozenset("C"), True) is None
    assert "brute force finds a witness" in checks.check_verify(ident, g, frozenset("A"), frozenset("C"), False)
    assert "exceeds" in checks.check_verify(ident.replace("2.0e-17", "2.0e-03"), g, frozenset("A"), frozenset("C"), True)
    nonid = ("not identifiable\nwitness: A -- B\ncovariance max diff: 0.000e+00\n"
             "interventional mean gap (delta): 5.000e-01\n")
    assert checks.check_verify(nonid, g, frozenset("A"), frozenset("B"), False) is None
    assert "brute force finds no witness" in checks.check_verify(nonid, g, frozenset("A"), frozenset("B"), True)
    assert "delta" in checks.check_verify(nonid.replace("5.000e-01", "0.000e+00"), g, frozenset("A"), frozenset("B"), False)


def test_every_admitted_candidate_runs_in_an_order_set_by_the_seed(tmp_path):
    def graphs(seed):
        return [op.argv[-1] for op in workloads.enumerate_chordal(seed, str(tmp_path))]

    first, again, other = graphs(1), graphs(1), graphs(2)
    assert first == again and first != other and sorted(first) == sorted(other)
    golden = workloads.load_golden("enumerate-chordal")["ops"]
    assert len(first) == sum(c["admitted"] for c in golden)
