"""The package surface: every public name resolves and no retired name
does, numpy-backed names load on first access, graph-only subcommands
start without numpy, ``dataclasses`` or ``json``, the package imports its
own modules only relatively, and the two errors ``cli`` catches keep one
class under each of their names."""

import ast
import inspect
import json
import os

import pytest

import mpdagid
from mpdagid import estimate, graphs, oracle

from conftest import fresh_python

# Names the package no longer has, as (owner, name): the owner is the
# package, one of its modules, or a class the package exports.
RETIRED = [
    ("mpdagid", "PathStatus"),
    ("mpdagid", "classify_path"),
    ("mpdagid", "relatives"),
    ("mpdagid", "adjustment_formula"),
    ("mpdagid", "identify_long_form"),
    ("mpdagid", "parse_formula_json"),
    ("mpdagid", "structurally_equal"),
    ("mpdagid", "MarginalTable"),
    ("mpdagid", "interventional_means"),
    ("mpdagid.paths", "classify_path"),
    ("mpdagid.paths", "PathStatus"),
    ("mpdagid.paths", "is_possibly_causal"),
    ("mpdagid.paths", "is_definite_status"),
    ("mpdagid.graphs", "relatives"),
    ("mpdagid.graphs", "Relation"),
    ("mpdagid.identify", "identify_long_form"),
    ("mpdagid.identify", "adjustment_formula"),
    ("mpdagid.formula", "parse_formula_json"),
    ("mpdagid.formula", "structurally_equal"),
    ("mpdagid.oracle", "MarginalTable"),
    ("mpdagid.oracle", "interventional_means"),
    ("mpdagid.meek", "_Scratch"),
    ("mpdagid.oracle", "_Memo"),
    ("mpdagid.formula", "_render_text"),
    ("mpdagid.formula", "_render_latex"),
    ("mpdagid.meek", "has_consistent_extension"),
    ("mpdagid.oracle", "_first_dag"),
    ("mpdagid.oracle", "_carrying"),
    ("mpdagid.oracle", "_depth_first"),
    ("mpdagid.meek", "_covered_reversal"),
    ("mpdagid.graphs", "has_directed_cycle"),
    ("mpdagid.graphs", "_Adjacency"),
    ("Pdag", "validate_as"),
    ("Pdag", "undirected_subgraph"),
    ("Pdag", "_retag"),
    ("Pdag", "neighbors"),
    ("Pdag", "has_undirected"),
    ("Pdag", "induced_subgraph"),
    ("Pdag", "_directed_reach"),
    ("Dataset", "to_csv"),
    ("GaussianModel", "coefficient_matrix"),
    ("InterventionalTable", "slice_x"),
]


def test_every_public_name_resolves_in_a_fresh_interpreter():
    script = f"RETIRED = {RETIRED!r}\n" + """\
import importlib
import sys
import mpdagid
assert "numpy" not in sys.modules, "importing the package loaded numpy"
missing = [n for n in mpdagid.__all__ if n not in dir(mpdagid)]
assert not missing, missing
namespace = {}
exec("from mpdagid import *", namespace)
unbound = [n for n in mpdagid.__all__ if namespace.get(n) is not getattr(mpdagid, n)]
assert not unbound, unbound
assert mpdagid.oracle.enumerate_dags is mpdagid.enumerate_dags
assert mpdagid.estimate.Dataset is mpdagid.Dataset
assert not hasattr(mpdagid, "no_such_name")
for owner, name in RETIRED:
    if owner.startswith("mpdagid"):
        holder = importlib.import_module(owner)
    else:
        holder = getattr(mpdagid, owner)
    assert name not in dir(holder), (owner, name)
    try:
        getattr(holder, name)
    except AttributeError:
        pass
    else:
        raise AssertionError(f"{owner}.{name} still resolves")
print(len(mpdagid.__all__))
"""
    done = fresh_python("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{len(mpdagid.__all__)}\n"


def test_cross_dag_agreement_takes_only_what_verify_gives_it():
    # Like RETIRED for names: a retired keyword (card=, dags=) cannot return.
    params = inspect.signature(oracle.cross_dag_agreement).parameters
    assert list(params) == ["g", "X", "Y", "formula", "n_models", "seed"]


def test_errors_caught_by_the_cli_are_one_class_each():
    assert estimate.EstimationError is graphs.EstimationError is mpdagid.EstimationError
    assert (
        oracle.DegenerateConditioningError
        is graphs.DegenerateConditioningError
        is mpdagid.DegenerateConditioningError
    )
    assert issubclass(graphs.EstimationError, ValueError)
    assert issubclass(graphs.DegenerateConditioningError, ValueError)


def test_lazy_submodules_load_on_first_access(monkeypatch):
    script = """\
import sys
import mpdagid
assert "mpdagid.oracle" not in sys.modules
oracle = mpdagid.oracle
assert oracle is sys.modules["mpdagid.oracle"] and "numpy" in sys.modules
assert mpdagid.oracle is oracle
print("ok")
"""
    done = fresh_python("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
    # In this process the module is loaded; the lookup binds it again.
    monkeypatch.delattr(mpdagid, "oracle")
    assert mpdagid.oracle is oracle


def test_the_package_imports_its_own_modules_only_relatively():
    # tools/ab.py loads two checkouts' packages in one process, each under
    # a name of its own; an absolute ``import mpdagid...`` in one of them
    # would silently run the other checkout's module.
    pkg = os.path.dirname(mpdagid.__file__)
    modules = sorted(name for name in os.listdir(pkg) if name.endswith(".py"))
    assert {"__init__.py", "cli.py", "meek.py"} <= set(modules)
    absolute = []
    for name in modules:
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                targets = [node.module]
            else:
                continue
            absolute += [(name, node.lineno, t) for t in targets if t.split(".")[0] == "mpdagid"]
    assert absolute == []


def test_dir_lists_every_public_name():
    names = dir(mpdagid)
    assert names == sorted(names)
    assert set(mpdagid.__all__) <= set(names)


def _importing(*args):
    """A fresh ``python -X importtime`` process on ``args``: its stdout and
    the set of modules it imported."""
    done = fresh_python("-X", "importtime", *args)
    assert done.returncode == 0, done.stderr
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    }
    return done.stdout, imported


def _cli_run(tmp_path, *argv):
    """``python -m mpdagid.cli`` on a 3-node graph, as ``_importing``."""
    graph = tmp_path / "g3.g"
    graph.write_text("A -> B\nB -> C\nA -> C\n")
    data = tmp_path / "d3.csv"
    data.write_text("A,B,C\n0,0,0\n1,1,3\n2,1,4\n3,2,7\n4,2,8\n")
    argv = [argv[0], "-g", str(graph), *(str(data) if a == "DATA" else a for a in argv[1:])]
    out, imported = _importing("-m", "mpdagid.cli", *argv)
    assert "mpdagid.identify" in imported
    return out, imported


@pytest.mark.parametrize("argv", [["close"], ["identify", "-X", "A", "-Y", "C"], ["enumerate"]])
def test_graph_only_subcommands_load_no_dataclasses_json_or_numpy(tmp_path, argv):
    _, imported = _cli_run(tmp_path, *argv)
    _, bare = _importing("-c", "pass")  # whatever the site setup loads anyway
    assert not (imported - bare) & {"dataclasses", "inspect", "json", "numpy"}


@pytest.mark.parametrize("argv", [["close"], ["identify", "-X", "A", "-Y", "C"], ["enumerate"]])
def test_fixed_form_argv_loads_no_argparse_gettext_or_locale(tmp_path, argv):
    _, imported = _cli_run(tmp_path, *argv)
    _, bare = _importing("-c", "pass")
    assert not (imported - bare) & {"argparse", "gettext", "locale"}


def test_help_in_a_fresh_process_goes_through_argparse():
    done = fresh_python("-m", "mpdagid.cli", "--help")
    assert done.returncode == 0, done.stderr
    words = " ".join(done.stdout.split())
    assert "Exit codes: 0 on success, 1 for usage or input errors, 2 for a valid negative" in words


def test_json_outputs_keep_their_format(tmp_path):
    out, imported = _cli_run(tmp_path, "identify", "-X", "A", "-Y", "C", "--format", "json")
    assert out == (
        '{"do": ["A"], "factors": [{"given": ["A"], "targets": ["B"]}, '
        '{"given": ["A", "B"], "targets": ["C"]}], "integrate_over": ["B"], "response": ["C"]}\n'
    )
    assert "json" in imported and "numpy" not in imported
    out, _ = _cli_run(tmp_path, "estimate", "-X", "A,B", "-Y", "C", "--data", "DATA")
    payload = json.loads(out)
    assert out == json.dumps(payload, sort_keys=True) + "\n"
    assert payload["response"] == "C" and list(payload["effect"]) == ["A", "B"]
    assert payload["effect"] == pytest.approx({"A": 1.0, "B": 2.0})
