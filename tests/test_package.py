"""The package surface: every public name resolves, numpy-backed names
load on first access, and the two errors ``cli`` catches keep one class
under each of their names."""

import mpdagid
from mpdagid import estimate, graphs, oracle

from conftest import fresh_python


def test_every_public_name_resolves_in_a_fresh_interpreter():
    script = """\
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
