import itertools
import os
import subprocess
import sys

import pytest

import mpdagid
from mpdagid import enumerate_dags, parse_graph

import oracles

SRC = os.path.dirname(os.path.dirname(mpdagid.__file__))


def fresh_python(*args: str, **env: str) -> subprocess.CompletedProcess:
    """Run a new interpreter on ``args`` with this checkout's package on
    the path and ``env`` added to the environment; output is text."""
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=SRC, **env),
        capture_output=True,
        text=True,
        timeout=120,
    )


# A chordal 4-node CPDAG: every edge undirected, V1 and Y2 nonadjacent.
CPDAG4_TEXT = """\
V1 -- X
Y1 -- V1
Y2 -- X
X -- Y1
Y2 -- Y1
"""

# The same skeleton after adding the knowledge Y1 -> X and X -> Y2.
MPDAG4_TEXT = """\
V1 -- X
V1 -- Y1
Y1 -> X
X -> Y2
Y1 -> Y2
"""

PAIR_TEXT = "X -- Y\n"

CHAIN3_TEXT = "X1 -- X2\nX2 -> Y\n"

# Five nodes: an undirected covariate chain V3 - V1 - V2 feeding X and Y.
COVAR5_TEXT = """\
V3 -- V1
V1 -- V2
V3 -> X
V2 -> X
V1 -> X
X -> Y
V2 -> Y
V1 -> Y
"""

# A seven-node DAG with two treatments X1, X2 and a mediator V4.
TWOTREAT7_TEXT = """\
X1 -> V4
V4 -> Y
V4 -> X2
X2 -> Y
V2 -> X1
V1 -> X1
V3 -> X2
X1 -> Y
"""


@pytest.fixture
def cpdag4():
    return parse_graph(CPDAG4_TEXT)


@pytest.fixture
def mpdag4():
    return parse_graph(MPDAG4_TEXT)


@pytest.fixture
def pair():
    return parse_graph(PAIR_TEXT)


@pytest.fixture
def chain3():
    return parse_graph(CHAIN3_TEXT)


@pytest.fixture
def covar5():
    return parse_graph(COVAR5_TEXT)


@pytest.fixture
def twotreat7():
    return parse_graph(TWOTREAT7_TEXT)


@pytest.fixture(scope="session")
def sweep():
    """300 distinct small MPDAGs, each with its enumerated class."""
    graphs = [(g, enumerate_dags(g)) for g in oracles.random_mpdags(seed=2024, count=300)]
    assert len({(g.nodes, g.directed, g.undirected) for g, _ in graphs}) == 300
    return graphs


def query_pairs(nodes):
    """Every (X, Y) of disjoint node sets with 1 or 2 members each."""
    ns = sorted(nodes)
    for kx in (1, 2):
        for xs in itertools.combinations(ns, kx):
            rest = [n for n in ns if n not in xs]
            for ky in (1, 2):
                for ys in itertools.combinations(rest, ky):
                    yield frozenset(xs), frozenset(ys)
