import contextlib
import io
import itertools
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mpdagid import Factor, GaussianModel, IdFormula, Pdag, parse_graph, render, simulate
from mpdagid import cli
from mpdagid.cli import main

import oracles
from conftest import (
    COVAR5_TEXT,
    CPDAG4_TEXT,
    MPDAG4_TEXT,
    PAIR_TEXT,
    TWOTREAT7_TEXT,
    fresh_python,
)


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, text in [
        ("cpdag4.g", CPDAG4_TEXT),
        ("mpdag4.g", MPDAG4_TEXT),
        ("pair.g", PAIR_TEXT),
        ("covar5.g", COVAR5_TEXT),
        ("twotreat7.g", TWOTREAT7_TEXT),
        ("bk.g", "Y1 -> X\nX -> Y2\n"),
    ]:
        p = tmp_path / name
        p.write_text(text)
        out[name] = str(p)
    return out


def test_identify_text_golden(files, capsys):
    code = main(["identify", "-g", files["mpdag4.g"], "-X", "X", "-Y", "Y1,Y2"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "f(y1,y2|do(x)) = f(y1) f(y2|x,y1)\n"


def test_identify_not_identifiable_exit_2(files, capsys):
    code = main(["identify", "-g", files["pair.g"], "-X", "X", "-Y", "Y"])
    captured = capsys.readouterr()
    assert code == 2
    assert "X -- Y" in captured.err
    assert "not identifiable" in captured.out


def test_identify_latex(files, capsys):
    code = main(["identify", "-g", files["mpdag4.g"], "-X", "X", "-Y", "Y1,Y2",
                 "--format", "latex"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == r"f(y_{1},y_{2} \mid do(x)) = f(y_{1})\, f(y_{2} \mid x,y_{1})" + "\n"


def test_identify_json_round_trips(files, capsys):
    code = main(["identify", "-g", files["mpdag4.g"], "-X", "X", "-Y", "Y1,Y2",
                 "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    expected = IdFormula(
        factors=(Factor({"Y1"}), Factor({"Y2"}, {"X", "Y1"})),
        intervened={"X"},
        response={"Y1", "Y2"},
    )
    assert json.loads(captured.out) == json.loads(render(expected, "json"))


def test_close_with_knowledge_golden(files, capsys):
    code = main(["close", "-g", files["cpdag4.g"], "-b", files["bk.g"]])
    captured = capsys.readouterr()
    assert code == 0
    assert parse_graph(captured.out) == parse_graph(MPDAG4_TEXT)


def test_factorize_golden_and_refusal(files, capsys):
    code = main(["factorize", "-g", files["covar5.g"], "-X", "X"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "f(v1,v2,v3,y|do(x)) = f(v1,v2,v3) f(y|x,v1,v2)\n"
    code = main(["factorize", "-g", files["mpdag4.g"], "-X", "X"])
    captured = capsys.readouterr()
    assert code == 2
    assert "not truncatable" in captured.out


def test_factorize_observational(files, capsys):
    code = main(["factorize", "-g", files["mpdag4.g"]])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("f(v1,x,y1,y2) = ")


def test_adjust_outcomes(files, capsys, tmp_path):
    assert main(["adjust", "-g", files["covar5.g"], "-X", "X", "-Y", "Y"]) == 0
    assert capsys.readouterr().out == "adjustment set: V1,V2,V3\n"
    assert main(["adjust", "-g", files["mpdag4.g"], "-X", "X", "-Y", "Y1,Y2"]) == 2
    captured = capsys.readouterr()
    assert "no adjustment set exists" in captured.out
    rev = tmp_path / "rev.g"
    rev.write_text("Y -> X\n")
    assert main(["adjust", "-g", str(rev), "-X", "X", "-Y", "Y"]) == 0
    assert "zero effect" in capsys.readouterr().out


def test_enumerate_counts(files, capsys):
    code = main(["enumerate", "-g", files["mpdag4.g"]])
    captured = capsys.readouterr()
    assert code == 0
    blocks = captured.out.split("\n\n")
    assert blocks[0].strip() == "3"
    dags = [parse_graph(b) for b in blocks[1:] if b.strip()]
    assert len(dags) == 3
    assert all(not d.undirected for d in dags)


def test_verify_identifiable(files, capsys):
    code = main(["verify", "-g", files["mpdag4.g"], "-X", "X", "-Y", "Y1,Y2",
                 "--models", "4", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert "dags: 3" in captured.out
    assert "max cross-dag deviation" in captured.out


def test_verify_not_identifiable(files, capsys):
    code = main(["verify", "-g", files["pair.g"], "-X", "X", "-Y", "Y"])
    captured = capsys.readouterr()
    assert code == 0
    assert "interventional mean gap (delta): 5.000e-01" in captured.out
    assert "covariance max diff: 0.000e+00" in captured.out


def test_witness_renders_directed_and_undirected_steps(tmp_path, capsys):
    p = tmp_path / "witness.g"
    p.write_text("X -- V\nV -> Y\n")
    assert main(["identify", "-g", str(p), "-X", "X", "-Y", "Y"]) == 2
    assert "witness: X -- V -> Y\n" in capsys.readouterr().err
    assert main(["verify", "-g", str(p), "-X", "X", "-Y", "Y"]) == 0
    assert "witness: X -- V -> Y\n" in capsys.readouterr().out


def test_estimate_outputs_json(files, capsys, tmp_path):
    g = parse_graph(TWOTREAT7_TEXT)
    coeffs = {("X1", "Y"): 0.3, ("X2", "Y"): 0.5, ("V4", "Y"): 0.7, ("X1", "V4"): 0.6,
              ("V2", "X1"): 0.4, ("V1", "X1"): 0.3, ("V3", "X2"): 0.5, ("V4", "X2"): 0.4}
    model = GaussianModel(dag=Pdag(g.nodes, g.directed, g.undirected, "dag"), coeffs=coeffs,
                          noise_vars={n: 1.0 for n in g.nodes})
    data = simulate(model, 30_000, seed=5)
    csv = tmp_path / "data.csv"
    csv.write_text(oracles.to_csv(data))
    code = main(["estimate", "-g", files["twotreat7.g"], "-X", "X1,X2", "-Y", "Y",
                 "--data", str(csv)])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["response"] == "Y"
    assert abs(payload["effect"]["X1"] - 0.72) < 0.05
    assert abs(payload["effect"]["X2"] - 0.50) < 0.05


def test_byte_order_mark_is_ignored(files, capsys, tmp_path):
    rows = np.random.default_rng(1).standard_normal((50, 2))
    csv = "X,Y\n" + "\n".join(f"{a},{b}" for a, b in rows) + "\n"
    runs = {}
    for prefix in ("", "\ufeff"):
        graph = tmp_path / f"chain{len(prefix)}.g"
        graph.write_text(prefix + "X -> Y\n", encoding="utf-8")
        data = tmp_path / f"data{len(prefix)}.csv"
        data.write_text(prefix + csv, encoding="utf-8")
        codes = (
            main(["close", "-g", str(graph)]),
            main(["estimate", "-g", str(graph), "-X", "X", "-Y", "Y", "--data", str(data)]),
        )
        runs[prefix] = codes, capsys.readouterr().out
    assert runs["\ufeff"] == runs[""]
    assert runs[""][0] == (0, 0)


def test_estimate_refuses_unidentifiable(files, capsys, tmp_path):
    csv = tmp_path / "d.csv"
    rows = np.random.default_rng(0).standard_normal((10, 2))
    csv.write_text("X,Y\n" + "\n".join(f"{a},{b}" for a, b in rows) + "\n")
    code = main(["estimate", "-g", files["pair.g"], "-X", "X", "-Y", "Y",
                 "--data", str(csv)])
    assert code == 2


def test_usage_error_exit_1(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["identify", "-g", files["mpdag4.g"]])  # missing -X/-Y
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_help_shows_only_user_facing_text(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    words = " ".join(capsys.readouterr().out.split())  # argparse re-wraps the text
    assert "Exit codes: 0 on success, 1 for usage or input errors, 2 for a valid negative" in words
    assert "numpy" not in words and "bytecode" not in words


def test_missing_file_exit_1(capsys):
    assert main(["identify", "-g", "/nonexistent.g", "-X", "A", "-Y", "B"]) == 1
    assert capsys.readouterr().err == "mpdagid: No such file or directory: /nonexistent.g\n"


def test_os_error_without_a_file_prints_its_message(files, capsys, monkeypatch):
    def hang(*args, **kwargs):
        raise TimeoutError("close took over 5 s")

    monkeypatch.setattr("mpdagid.cli.meek.close", hang)
    assert main(["close", "-g", files["pair.g"]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "mpdagid: close took over 5 s\n"


def test_malformed_graph_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.g"
    bad.write_text("A => B\n")
    assert main(["identify", "-g", str(bad), "-X", "A", "-Y", "B"]) == 1
    assert "line 1" in capsys.readouterr().err


def test_unknown_node_exit_1(files, capsys):
    assert main(["identify", "-g", files["pair.g"], "-X", "Q", "-Y", "Y"]) == 1


def test_stdout_deterministic(files, capsys):
    argv = ["verify", "-g", files["mpdag4.g"], "-X", "X", "-Y", "Y1,Y2",
            "--models", "3", "--seed", "7"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("mpdagid: ") and err.count("\n") == 1, err
    return err


def test_non_utf8_graph_exit_1(tmp_path, capsys):
    bad = tmp_path / "latin1.g"
    bad.write_bytes("Ä -> B\n".encode("latin-1"))
    assert main(["close", "-g", str(bad)]) == 1
    assert "not UTF-8" in _one_error_line(capsys)


def test_directory_as_graph_exit_1(tmp_path, capsys):
    assert main(["identify", "-g", str(tmp_path), "-X", "A", "-Y", "B"]) == 1
    assert str(tmp_path) in _one_error_line(capsys)


def test_graph_without_consistent_extension_exit_1(tmp_path, capsys):
    cycle = tmp_path / "cycle4.g"
    cycle.write_text("A -- B\nB -- C\nC -- D\nD -- A\n")
    assert main(["identify", "-g", str(cycle), "-X", "A", "-Y", "C"]) == 1
    assert "no consistent extension" in _one_error_line(capsys)


def test_knowledge_naming_an_unknown_node_exit_1(files, tmp_path, capsys):
    bk = tmp_path / "unknown.bk"
    bk.write_text("Y1 -> X\nX -> Q\n")
    assert main(["close", "-g", files["cpdag4.g"], "-b", str(bk)]) == 1
    assert capsys.readouterr().err == "mpdagid: unknown node: Q\n"


def test_undirected_knowledge_line_reports_its_number_exit_1(files, tmp_path, capsys):
    bk = tmp_path / "undirected.bk"
    bk.write_text("# knowledge\nY1 -> X\n\nY2 -- X\nV1 -- X\n")
    assert main(["close", "-g", files["cpdag4.g"], "-b", str(bk)]) == 1
    err = capsys.readouterr().err
    assert err == "mpdagid: line 4: background knowledge must be directed: Y2 -- X\n"


def test_ragged_csv_exit_1(files, capsys, tmp_path):
    csv = tmp_path / "ragged.csv"
    rows = np.random.default_rng(0).standard_normal((20, 8))
    lines = [",".join(f"{v:.6f}" for v in row) for row in rows]
    lines[4] = lines[4].rsplit(",", 1)[0]  # line 6 loses a cell
    csv.write_text("X1,X2,V1,V2,V3,V4,Y,extra\n" + "\n".join(lines) + "\n")
    code = main(["estimate", "-g", files["twotreat7.g"], "-X", "X1,X2", "-Y", "Y",
                 "--data", str(csv)])
    assert code == 1
    assert "line 6" in _one_error_line(capsys)


@pytest.mark.parametrize(
    "text, line",
    [("A,B\n1,2\n3,4\r5,6\n7,8\n", 3), ("A,B\r1,2\r3,4\r5,6\r7,8\r", 1)],
    ids=["stray-cr", "cr-line-endings"],
)
def test_csv_with_bare_carriage_return_exit_1(tmp_path, capsys, text, line):
    graph = tmp_path / "g.txt"
    graph.write_text("A -> B\n")
    data = tmp_path / "data.csv"
    data.write_bytes(text.encode())
    code = main(["estimate", "-g", str(graph), "-X", "A", "-Y", "B", "--data", str(data)])
    assert code == 1
    err = _one_error_line(capsys)
    assert err == f"mpdagid: line {line}: new-line character seen in unquoted field\n"


def test_degenerate_conditioning_exit_1(files, capsys, monkeypatch):
    from mpdagid import DegenerateConditioningError

    def degenerate(*args, **kwargs):
        raise DegenerateConditioningError("conditioning on a zero-probability event")

    monkeypatch.setattr("mpdagid.oracle.cross_dag_agreement", degenerate)
    assert main(["verify", "-g", files["mpdag4.g"], "-X", "X", "-Y", "Y1,Y2"]) == 1
    assert "zero-probability" in _one_error_line(capsys)


# Runs the CLI in a fresh interpreter and reports whether numpy got loaded.
_NUMPY_PROBE = """\
import sys
from mpdagid import cli
code = cli.main(sys.argv[1:])
print("numpy loaded:", "numpy" in sys.modules)
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        (["close"], False),
        (["identify", "-X", "X", "-Y", "Y1,Y2"], False),
        (["factorize", "-X", "Y2"], False),
        (["adjust", "-X", "X", "-Y", "Y2"], False),
        (["enumerate"], False),
    ],
)
def test_graph_only_subcommands_start_without_numpy(files, argv, loads_numpy):
    argv = [*argv[:1], "-g", files["cpdag4.g"], "-b", files["bk.g"], *argv[1:]]
    done = fresh_python("-c", _NUMPY_PROBE, *argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith(f"numpy loaded: {loads_numpy}\n"), done.stdout


@pytest.mark.parametrize("models", ["0", "-3"])
def test_verify_models_below_one_is_usage_error(files, capsys, models):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-g", files["mpdag4.g"], "-X", "X", "-Y", "Y1,Y2", "--models", models])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--models: must be at least 1" in captured.err


def test_verify_negative_seed_is_usage_error(files, capsys):
    # The random models take their seed from --seed, and PCG64 rejects a
    # negative one; the parser must refuse it before any model is built.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-g", files["mpdag4.g"], "-X", "X", "-Y", "Y1,Y2", "--seed", "-1"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "--seed: must be at least 0, got -1" in captured.err


def test_parser_reused_across_calls(files, capsys):
    """One parser serves every call in a process: a usage error, then two
    different subcommands, give the same output and exit code as on a
    freshly built parser."""
    calls = [
        ["verify", "-g", files["mpdag4.g"], "-X", "X", "-Y", "Y1,Y2", "--models", "0"],
        ["identify", "-g", files["mpdag4.g"], "-X", "X", "-Y", "Y1,Y2"],
        ["verify", "-g", files["pair.g"], "-X", "X", "-Y", "Y"],
        ["close", "-g", files["cpdag4.g"], "-b", files["bk.g"]],
        ["frobnicate"],
        ["identify", "-g", files["mpdag4.g"], "-X", "X", "-Y", "Y1,Y2", "--format", "latex"],
        # Forms only argparse reads, so the reused parser parses a success too.
        ["identify", f"--graph={files['mpdag4.g']}", "-X", "X", "-Y", "Y1,Y2"],
        ["close", "-g" + files["cpdag4.g"], "--bk", files["bk.g"]],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    reused = [run(argv) for argv in calls]
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [1, 0, 0, 0, 1, 0, 0, 0]
    assert fresh[6] == fresh[1] and fresh[7] == fresh[3]
    assert cli._build_parser() is cli._build_parser()


# -- input grammar property ---------------------------------------------------

_NAMES = ("A", "B", "X", "Y", "C", "N.1")  # at most six valid nodes
_NEAR_NAMES = ("a-b", "Ä", "A B", "->", "--", "node", "#", "")
_LINE_ENDINGS = ("\n", "\r\n", "\r")


@st.composite
def _edge_lines(draw, clean, directed_only=False):
    """One line of the edge-list grammar, or when not ``clean`` possibly a
    near miss of it."""
    name = st.sampled_from(_NAMES)
    any_name = name if clean else st.one_of(name, name, st.sampled_from(_NEAR_NAMES))
    mark = st.sampled_from(("->",) if directed_only else ("->", "--"))
    kinds = ["edge"] * 6 + ["node", "comment", "blank"]
    if not clean:
        kinds += ["near mark", "arity", "loop"]
    kind = draw(st.sampled_from(kinds))
    if kind == "edge":
        line = f"{draw(any_name)} {draw(mark)} {draw(any_name)}"
    elif kind == "node":
        line = " ".join(["node", draw(any_name)] + draw(st.lists(name, max_size=0 if clean else 1)))
    elif kind == "comment":
        line = "# " + draw(st.sampled_from(("knowledge", "A -> B", "")))
    elif kind == "blank":
        line = draw(st.sampled_from(("", "  ", "\t")))
    elif kind == "near mark":
        line = f"{draw(name)} {draw(st.sampled_from(('=>', '-', '<-', '->>', '- -')))} {draw(name)}"
    elif kind == "arity":
        line = " ".join(draw(st.lists(st.one_of(name, mark), min_size=1, max_size=5)))
    else:
        a = draw(name)
        line = f"{a} {draw(mark)} {a}"
    if kind != "comment" and draw(st.booleans()):
        line += " # " + draw(st.sampled_from(("note", "A -- B")))
    return line


def _join(draw, lines, endings=_LINE_ENDINGS):
    """Lines joined by drawn line endings, possibly with a byte-order mark."""
    text = "".join(line + draw(st.sampled_from(endings)) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line ending
    return ("\ufeff" if draw(st.booleans()) else "") + text


@st.composite
def _csv_texts(draw, clean):
    """A CSV of observations over every node, or when not ``clean`` over
    drawn columns with near misses: ragged rows, cells that are not
    numbers, a missing header and a bare carriage return."""
    number = st.floats(-10, 10, allow_nan=False).map(lambda v: f"{v:.4g}")
    if clean:
        cols, cell, n_rows = list(_NAMES), number, draw(st.integers(8, 12))
    else:
        cols = draw(st.lists(st.sampled_from(_NAMES + ("extra",)), max_size=7))
        cell = st.one_of(number, st.sampled_from(("", "x", "nan", "1e400", " 2 ")))
        n_rows = draw(st.integers(0, 12))
    lines = [",".join(cols)] if clean or draw(st.integers(0, 9)) else []
    for _ in range(n_rows):
        width = len(cols) if clean or draw(st.integers(0, 5)) else draw(st.integers(0, 8))
        lines.append(",".join(draw(cell) for _ in range(width)))
    return _join(draw, lines, ("\n", "\r\n") if clean else _LINE_ENDINGS)


@st.composite
def _graph_lines(draw, clean):
    """Lines of a graph file.  A clean one declares every node X and Y are
    drawn from and has at most one edge per pair."""
    if not clean:
        return draw(st.lists(_edge_lines(clean), max_size=9))
    pairs = list(itertools.combinations(_NAMES, 2))
    lines = [f"node {n}" for n in _NAMES[:4]]
    for a, b in draw(st.lists(st.sampled_from(pairs), max_size=8, unique=True)):
        if draw(st.booleans()):
            a, b = b, a
        mark = draw(st.sampled_from(("->", "--")))
        lines.append(f"{a} {mark} {b}" + draw(st.sampled_from(("", " # note"))))
    lines += draw(st.lists(st.sampled_from(("# note", "", "  ")), max_size=2))
    return draw(st.permutations(lines))


@st.composite
def _cli_inputs(draw):
    """Graph, knowledge (or ``None``), X, Y and CSV text.  A clean input
    keeps to the grammar; the others may hold near misses anywhere."""
    clean = draw(st.booleans())
    graph = _join(draw, draw(_graph_lines(clean)))
    bk = None
    if draw(st.booleans()):
        bk = _join(draw, draw(st.lists(_edge_lines(clean, directed_only=True), max_size=2)))
    picked = draw(st.permutations(_NAMES[:4]))
    cut = draw(st.integers(1, 2))
    xs, ys = ",".join(picked[:cut]), ",".join(picked[cut : cut + draw(st.integers(1, 2))])
    if draw(st.integers(0, 9)) == 9:
        ys += ",Q"  # a node the graph lacks
    return graph, bk, xs, ys, draw(_csv_texts(clean))


@settings(
    derandomize=True,
    max_examples=120,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_cli_inputs())
def test_every_input_exits_0_1_or_2_and_exit_1_prints_one_line(inputs):
    graph, bk, xs, ys, csv = inputs
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in (("g", graph), ("bk", bk), ("csv", csv)):
            if text is not None:
                paths[name] = os.path.join(tmp, name)
                with open(paths[name], "wb") as fh:
                    fh.write(text.encode("utf-8"))
        common = ["-g", paths["g"]] + (["-b", paths["bk"]] if bk is not None else [])
        xy = ["-X", xs, "-Y", ys]
        for argv in (
            ["close"],
            ["identify", *xy],
            ["factorize", "-X", xs],
            ["adjust", *xy],
            ["enumerate"],
            ["verify", *xy, "--models", "2"],
            ["estimate", *xy, "--data", paths["csv"]],
        ):
            argv = argv[:1] + common + argv[1:]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv, graph, bk, csv)
            if code == 1:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("mpdagid: "), (
                    argv, graph, bk, csv, err.getvalue()
                )


def test_verify_fails_on_a_cross_dag_deviation(files, capsys, monkeypatch):
    from mpdagid import oracle

    agreement = oracle.cross_dag_agreement

    def deviating(*args, **kwargs):
        report = agreement(*args, **kwargs)
        return oracle.AgreementReport(report.n_dags, report.n_models, 1e-6, 0.0)

    monkeypatch.setattr(oracle, "cross_dag_agreement", deviating)
    code = main(["verify", "-g", files["mpdag4.g"], "-X", "X", "-Y", "Y1,Y2",
                 "--models", "4", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.startswith("identifiable: ")
    assert "dags: 3\n" in captured.out
    assert "max cross-dag deviation: 1.000e-06\n" in captured.out
    assert "max formula deviation: 0.000e+00\n" in captured.out
    assert captured.err == "verification failed: deviation exceeds 1e-9\n"


@pytest.mark.parametrize(
    "deviation, printed",
    [(5e-13, "0.000e+00"), (1e-12, "1.000e-12"), (5e-10, "5.000e-10")],
    ids=["below-1e-12", "at-1e-12", "below-1e-9"],
)
def test_verify_prints_deviations_below_1e_12_as_zero(
    files, capsys, monkeypatch, deviation, printed
):
    """Both deviation lines print a value below 1e-12 as zero and any
    other value in its digits; neither value fails the 1e-9 test."""
    from mpdagid import oracle

    agreement = oracle.cross_dag_agreement

    def deviating(*args, **kwargs):
        report = agreement(*args, **kwargs)
        return oracle.AgreementReport(report.n_dags, report.n_models, deviation, deviation)

    monkeypatch.setattr(oracle, "cross_dag_agreement", deviating)
    code = main(["verify", "-g", files["mpdag4.g"], "-X", "X", "-Y", "Y1,Y2", "--models", "4"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert f"max cross-dag deviation: {printed}\n" in captured.out
    assert f"max formula deviation: {printed}\n" in captured.out


def test_verify_fails_when_witness_models_disagree(files, capsys, monkeypatch):
    from mpdagid import oracle

    wright_cov = oracle.wright_cov
    calls = []

    def drifting(m):
        nodes, cov = wright_cov(m)
        calls.append(m)
        return nodes, cov + 1e-3 * len(calls)

    monkeypatch.setattr(oracle, "wright_cov", drifting)
    code = main(["verify", "-g", files["pair.g"], "-X", "X", "-Y", "Y"])
    captured = capsys.readouterr()
    assert code == 1 and len(calls) == 2
    assert captured.out == (
        "not identifiable\n"
        "witness: X -- Y\n"
        "covariance max diff: 1.000e-03\n"
        "interventional mean gap (delta): 5.000e-01\n"
    )
    assert captured.err == "verification failed: witness models disagree observationally\n"


# -- argv reader ----------------------------------------------------------------

# Exit code, stdout and stderr of usage errors and of option forms only
# argparse reads, recorded before the direct reader existed.  "G" stands
# for the mpdag4 graph file.
_ARGPARSE_ROWS = [
    (
        ["identify", "-g", "G", "-Y", "Y2"],
        1,
        "",
        "mpdagid identify: error: the following arguments are required: -X\n",
    ),
    (
        ["frobnicate", "-g", "G"],
        1,
        "",
        "mpdagid: error: argument command: invalid choice: 'frobnicate' (choose from "
        "'close', 'identify', 'factorize', 'adjust', 'enumerate', 'verify', 'estimate')\n",
    ),
    (
        ["verify", "-g", "G", "-X", "X", "-Y", "Y2", "--models", "0"],
        1,
        "",
        "mpdagid verify: error: argument --models: must be at least 1, got 0\n",
    ),
    (
        ["verify", "-g", "G", "-X", "X", "-Y", "Y2", "--seed", "-1"],
        1,
        "",
        "mpdagid verify: error: argument --seed: must be at least 0, got -1\n",
    ),
    (
        ["identify", "-g", "G", "-X", "X", "-Y", "Y2", "--format", "xml"],
        1,
        "",
        "mpdagid identify: error: argument --format: invalid choice: 'xml' "
        "(choose from 'text', 'latex', 'json')\n",
    ),
    (
        ["verify", "-g", "G", "-X", "V1", "-Y", "Y1", "--mod", "5"],
        0,
        "not identifiable\nwitness: V1 -- Y1\ncovariance max diff: 0.000e+00\n"
        "interventional mean gap (delta): 5.000e-01\n",
        "",
    ),
    (
        ["identify", "--graph=G", "-X", "X", "-Y", "Y2"],
        0,
        "f(y2|do(x)) = ∫ f(y1) f(y2|x,y1) d(y1)\n",
        "",
    ),
    (
        ["identify", "-g", "G", "-X", "Y1", "-X", "X", "-Y", "Y2"],
        0,
        "f(y2|do(x)) = ∫ f(y1) f(y2|x,y1) d(y1)\n",
        "",
    ),
    (["close", "-g", "G", "extra"], 1, "", "mpdagid: error: unrecognized arguments: extra\n"),
]


@pytest.mark.parametrize(
    "argv, code, out, err",
    _ARGPARSE_ROWS,
    ids=[
        "missing-X", "unknown-subcommand", "models-0", "seed-negative", "format-xml",
        "abbreviated-flag", "flag-equals-value", "repeated-X", "unrecognised-argument",
    ],
)
def test_usage_errors_and_argparse_only_forms_keep_their_output(files, capsys, argv, code, out, err):
    graph = files["mpdag4.g"]
    argv = [graph if a == "G" else a.replace("=G", f"={graph}") for a in argv]
    assert cli._read_argv(argv) is None
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (code, out, err)


def _parsed(argv):
    """``vars`` of argparse's namespace for ``argv``; fails on a usage error."""
    try:
        return vars(cli._build_parser().parse_args(argv))
    except SystemExit as exc:
        pytest.fail(f"argparse refused {argv} (exit {exc.code})")


_ALL_FLAGS = sorted({flag for rows in cli._FLAGS.values() for flag in rows})
_SUBCOMMANDS = list(cli._COMMANDS)
_VALUES = ("G", "A", "A,B", "", "0", "1", "5", "20", " 7", "+3", "1_0", "x",
           "text", "latex", "json", "xml", "close", "-1", "-h", "--", "-g")
_ODD_TOKENS = ("-h", "--help", "--", "-1", "--gr", "--mod", "--form", "--se", "--b",
               "-gG", "-XA", "--graph=G", "--models=5", "--format=json", "extra")


@st.composite
def _argvs(draw):
    """An argv of the form SUBCOMMAND (OPTION VALUE)*, built from one
    subcommand's rows with every required option and valid values, then
    given up to two near misses: another subcommand or flag, an odd value,
    a repeated or dropped pair, or a stray token such as an abbreviation,
    a joined value, help or ``--``."""
    command = draw(st.sampled_from(_SUBCOMMANDS))
    pairs = []
    for flags, _, required, _, low, choices, _ in cli._COMMANDS[command][2]:
        if required or draw(st.booleans()):
            if choices:
                value = draw(st.sampled_from(choices))
            elif low is not None:
                value = str(draw(st.integers(low, low + 30)))
            else:
                value = draw(st.sampled_from(("G", "A", "A,B", "", "close")))
            pairs.append([draw(st.sampled_from(flags)), value])
    pairs = draw(st.permutations(pairs))
    for _ in range(draw(st.integers(0, 2))):
        miss = draw(st.integers(0, 5))
        if miss == 0:
            command = draw(st.sampled_from(_SUBCOMMANDS + ["clo", "verif", "frobnicate", "-h"]))
        elif miss == 1 and pairs:
            draw(st.sampled_from(pairs))[0] = draw(st.sampled_from(_ALL_FLAGS))
        elif miss == 2 and pairs:
            draw(st.sampled_from(pairs))[1] = draw(st.sampled_from(_VALUES))
        elif miss == 3 and pairs:
            pairs.append(list(draw(st.sampled_from(pairs))))
        elif miss == 4 and pairs:
            pairs.remove(draw(st.sampled_from(pairs)))
        else:
            at = draw(st.integers(0, len(pairs)))
            pairs.insert(at, [draw(st.sampled_from(_ODD_TOKENS + _VALUES))])
    return [command, *(token for pair in pairs for token in pair)]


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(_argvs())
def test_direct_argv_reader_agrees_with_argparse(argv):
    ns = cli._read_argv(argv)
    if ns is not None:
        assert vars(ns) == _parsed(argv)


def _benchmark_argvs():
    """Argvs shaped like the benchmark's operations, from its golden files."""
    golden = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "golden")

    def load(workload):
        with open(os.path.join(golden, f"{workload}.json"), encoding="utf-8") as fh:
            return json.load(fh)

    for c in load("verify-small")["ops"]:
        yield ["verify", "-g", "v.g", "-X", c["X"], "-Y", c["Y"],
               "--models", "20", "--seed", str(c["seed"])]
    query = load("query-medium")
    graphs = {g["id"]: g for g in query["graphs"]}
    for c in query["ops"]:
        files = ["-g", "q.g"] + (["-b", "q.bk"] if graphs[c["graph"]]["bk"] else [])
        data = ["--data", "q.csv"] if c["kind"] == "estimate" else []
        yield [c["args"][0], *files, *c["args"][1:], *data]
    yield ["enumerate", "-g", "e.g"]  # every enumerate-chordal operation has this shape


def _readme_argvs():
    """Each command line of the README's command-line block, once without
    its optional ``[...]`` parts and once with them, each ``a|b`` choice
    taken in turn and ``N``/``S`` read as numbers."""
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("## Command line", 1)[1].split("```sh\n", 1)[1]
    for line in block.split("```", 1)[0].splitlines():
        line = line.split("#", 1)[0]
        short = re.sub(r"\[[^]]*\]", "", line).split()[1:]
        full = line.replace("[", "").replace("]", "").split()[1:]
        for argv in (short, full):
            argv = [{"N": "5", "S": "3"}.get(a, a) for a in argv]
            yield from (list(p) for p in itertools.product(*(a.split("|") for a in argv)))


def test_benchmark_and_readme_argvs_take_the_direct_reader():
    argvs = [*_benchmark_argvs(), *_readme_argvs()]
    assert len(argvs) > 600 and {a[0] for a in argvs} == set(cli._COMMANDS)
    for argv in argvs:
        ns = cli._read_argv(argv)
        assert ns is not None, argv
        assert vars(ns) == _parsed(argv)
