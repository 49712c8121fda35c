"""The in-process A/B harness ``tools/ab.py`` on stub sides: identical
sides read identical, and a side whose output differs or that raises is
named and sets the exit status to 1.  No timing round runs; the rule that
settles a timing is checked on fixed samples.  ``tools/enum_checks.py``
compares fixed reports, so no checkout is enumerated.  ``tools/large_class.py``
is checked on its graphs and on fixed run records, so no child process
starts."""

import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "tools", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = _load_tool("ab")
enum_checks = _load_tool("enum_checks")
large_class = _load_tool("large_class")

WORKDIR = "/work"


class Stub:
    """A side whose ``main`` prints its first word, exits 1 on ``bad`` and
    prints something else on the words in ``differ`` or raises on those
    in ``raises``."""

    def __init__(self, differ=(), raises=()):
        self.differ, self.raises = differ, raises

    def main(self, argv):
        word = argv[0]
        if word in self.raises:
            raise ValueError(f"no {word}")
        if word == "bad":
            print("mpdagid: bad", file=sys.stderr)
            raise SystemExit(1)
        print(word + "!" if word in self.differ else word)
        return 0


def _check(o):
    return None if o.rc == 0 and o.stdout in ("a\n", "b\n") else f"exit {o.rc}: {o.stdout!r}"


OPS = [workloads.Op("stub", [word, f"{WORKDIR}/{word}.g"], _check, 1.0) for word in ("a", "b", "bad")]


def _compare(parent, change):
    return ab.compare("stub", {"parent": parent, "change": change}, OPS, 0, WORKDIR)


def test_identical_sides_report_identical(capsys):
    assert _compare(Stub(), Stub()) == 0
    # "bad" fails its check on both sides: equal counts are no difference.
    assert capsys.readouterr().out == (
        "stub: 3 operations, failed checks parent 1, change 1\n"
        "  every (rc, stdout, stderr, error) identical\n"
    )


def test_a_differing_output_is_named_and_exits_1(capsys):
    assert _compare(Stub(), Stub(differ=("b",))) == 1
    assert capsys.readouterr().out == (
        "stub: 3 operations, failed checks parent 1, change 2\n"
        "  OUTPUTS DIFFER on 1 operations, first: b <workdir>/b.g\n"
    )


def test_a_side_that_raises_is_recorded_not_fatal(capsys):
    _, outcomes = ab.run_pass(Stub(raises=("a",)), [op.argv for op in OPS])
    assert outcomes == [
        (None, "", "", "raised ValueError: no a"),
        (0, "b\n", "", None),
        (1, "", "mpdagid: bad\n", None),
    ]
    assert _compare(Stub(raises=("a",)), Stub()) == 1
    assert capsys.readouterr().out == (
        "stub: 3 operations, failed checks parent 2, change 1\n"
        "  OUTPUTS DIFFER on 1 operations, first: a <workdir>/a.g\n"
    )


# Parent quartiles 10.35 and 11.45 (a spread of 1.1), median 10.9.
PARENT = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]


def test_verdict_needs_nine_tenths_of_the_rounds_and_medians_apart():
    faster = [p - 2 for p in PARENT]
    assert ab.verdict(PARENT, faster) == "resolved: change faster"
    assert ab.verdict(PARENT, [p + 2 for p in PARENT]) == "resolved: change slower"
    assert ab.verdict(PARENT, [20.0] + faster[1:]) == "resolved: change faster"  # 9 of 10
    assert ab.verdict(PARENT, [20.0, 20.0] + faster[2:]) == "unresolved"  # 8 of 10
    assert ab.verdict(PARENT, [9.0, 9.0] + [p + 2 for p in PARENT[2:]]) == "unresolved"
    # Every round won, but the medians lie within the parent's spread.
    assert ab.verdict(PARENT, [p - 1 for p in PARENT]) == "unresolved"
    # Ties count for neither side.
    assert ab.verdict(PARENT, [PARENT[0]] + faster[1:]) == "resolved: change faster"
    assert ab.verdict(PARENT, PARENT[:2] + faster[2:]) == "unresolved"


# A parent report of tools/enum_checks.py, as its child process prints it.
REPORT = {
    "graphs": 220, "closes inputs": 220, "closes branches": 19756,
    "removal passes inputs": 220, "reverse-demand checks inputs": 220,
    "rule evaluations inputs": 9840, "rule evaluations branches": 108775,
    "trusted layouts inputs": 220, "trusted layouts branches": 37054,
    "dags": 17298, "profiled calls": 961674,
}


def test_enum_checks_ignores_only_the_profiled_calls():
    assert enum_checks.differing_rows(REPORT, dict(REPORT)) == []
    assert enum_checks.differing_rows(REPORT, {**REPORT, "profiled calls": 5}) == []
    changed = {**REPORT, "closes branches": 19757}
    assert enum_checks.differing_rows(REPORT, changed) == ["closes branches"]
    # A row one report lacks counts as 0.
    assert enum_checks.differing_rows(REPORT, {**REPORT, "removal passes branches": 1}) == [
        "removal passes branches"
    ]


def test_enum_checks_exits_1_when_a_count_differs(monkeypatch, capsys):
    reports = {"parent": REPORT, "same": dict(REPORT), "changed": {**REPORT, "closes branches": 1}}
    monkeypatch.setattr(enum_checks, "counts", reports.__getitem__)
    assert enum_checks.main(["parent", "same"]) == 0
    assert "counts differ" not in capsys.readouterr().out
    assert enum_checks.main(["parent", "changed"]) == 1
    assert capsys.readouterr().out.endswith("\ncounts differ: closes branches\n")


def test_large_class_graphs_and_groups():
    """The graphs parse to the classes the docstring names: k! DAGs, one
    X-family group for X -> K_k and 2^(k-1) for a K_k holding X (checked
    at k = 4, where the walk is cheap), and each case names a graph."""
    from mpdagid import enumerate_dags, identify, parse_graph

    for text, k, groups in [
        (large_class.x_into_clique(4), 4, 1),
        (large_class.clique_holding_x(4), 4, 8),
    ]:
        g = parse_graph(text)
        dags = enumerate_dags(g)
        assert len(dags) == 24 and len(g.nodes) == k + 1
        assert len({d.parents_of("X") for d in dags}) == groups
    for name, (text, y) in large_class.GRAPHS.items():
        assert identify(parse_graph(text), {"X"}, {y}).identifiable, name
    paths = {name: f"/tmp/{name}.g" for name in large_class.GRAPHS}
    labels = [label for label, _ in large_class.cases(paths)]
    assert len(labels) == len(set(labels)) == 2 * len(large_class.GRAPHS)
    assert large_class.cases(paths)[0][1] == [
        "verify", "-g", "/tmp/x-into-k6.g", "-X", "X", "-Y", "V1"
    ]


def test_large_class_summary_names_medians_peaks_and_differences():
    runs = {
        "parent": [(2.0, 100.0, (0, "a")), (4.0, 120.0, (0, "a")), (3.0, 90.0, (0, "a"))],
        "change": [(0.5, 80.0, (0, "a")), (1.5, 70.0, (0, "a")), (1.0, 85.0, (0, "a"))],
    }
    line, same = large_class.summarize(runs)
    assert same
    assert line == "parent 3.00 s, 120 MB; change 1.00 s, 85 MB; 3.0x; stdout identical"
    differ = {**runs, "change": [*runs["change"][:2], (1.0, 85.0, (1, "a"))]}
    line, same = large_class.summarize(differ)
    assert not same and line.endswith("OUTPUTS DIFFER")
