"""The package surface: every public name resolves and no retired name
does, numpy-backed names load on first access, and the two errors ``cli`` catches keep one class
under each of their names."""

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
    ("mpdagid.meek", "_covered_reversal"),
    ("mpdagid.graphs", "has_directed_cycle"),
    ("mpdagid.graphs", "_Adjacency"),
    ("Pdag", "validate_as"),
    ("Pdag", "undirected_subgraph"),
    ("Pdag", "_retag"),
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


def test_dir_lists_every_public_name():
    names = dir(mpdagid)
    assert names == sorted(names)
    assert set(mpdagid.__all__) <= set(names)
