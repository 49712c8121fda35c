"""Property tests over MPDAGs built by closing random PDAGs."""

import itertools
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mpdagid import (
    GraphError,
    InconsistentKnowledgeError,
    Pdag,
    amenability_witness,
    close,
    d_separated,
    enumerate_dags,
    identify,
    parse_graph,
    pco,
)
from mpdagid import meek
from mpdagid.graphs import reach
from mpdagid.meek import _depth_first, consistent_extension, require_mpdag

import oracles
from conftest import query_pairs


@st.composite
def mpdags(draw, min_nodes=2, max_nodes=7):
    """Close a PDAG whose arrows follow a drawn node order; a PDAG whose
    closure is inconsistent is rejected."""
    n = draw(st.integers(min_nodes, max_nodes))
    names = [f"N{i}" for i in range(n)]
    rank = {v: i for i, v in enumerate(draw(st.permutations(names)))}
    directed, undirected = [], []
    for a, b in itertools.combinations(names, 2):
        kind = draw(st.sampled_from(("none", "directed", "undirected")))
        if kind == "undirected":
            undirected.append((a, b))
        elif kind == "directed":
            directed.append((a, b) if rank[a] < rank[b] else (b, a))
    try:
        return close(Pdag(names, directed, undirected))
    except InconsistentKnowledgeError:
        assume(False)


@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mpdags())
def test_possibly_causal_search_matches_path_walks(g):
    for n in g.nodes:
        assert g.possible_descendants({n}) == oracles.reference_possible_descendants(g, {n})
    for x, y in itertools.permutations(g.nodes, 2):
        assert amenability_witness(g, {x}, {y}) == oracles.reference_witness(g, {x}, {y})


def _assert_ancestors_outside_match_the_subgraph(g):
    for xs, ys in query_pairs(g.nodes):
        assert reach(ys, g._parents, xs) == oracles.reference_ancestors_outside(g, xs, ys)


@settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mpdags(min_nodes=6, max_nodes=8))
def test_ancestors_outside_x_match_the_induced_subgraph(g):
    _assert_ancestors_outside_match_the_subgraph(g)


def test_ancestors_outside_x_match_the_induced_subgraph_on_the_sweep(sweep):
    for g, _ in sweep:
        _assert_ancestors_outside_match_the_subgraph(g)


def _queries(g, data):
    """Disjoint X and Y of one or two nodes each, and Z among the rest."""
    order = data.draw(st.permutations(sorted(g.nodes)))
    k = data.draw(st.integers(1, min(2, len(order) - 1)))
    m = data.draw(st.integers(k + 1, min(k + 2, len(order))))
    xs, ys = set(order[:k]), set(order[k:m])
    return xs, ys, data.draw(st.sets(st.sampled_from(order))) - xs - ys


@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mpdags(), st.data())
def test_identify_gives_a_witness_exactly_when_one_exists(g, data):
    xs, ys, _ = _queries(g, data)
    res = identify(g, xs, ys)
    assert (res.witness is not None) == oracles.witness_exists(g, xs, ys)
    assert res.identifiable == (res.witness is None)


@settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mpdags(), st.data())
def test_d_separated_agrees_with_every_represented_dag(g, data):
    xs, ys, zs = _queries(g, data)
    sep = d_separated(g, xs, ys, zs)
    assert all(sep == oracles.dag_d_separated(d, xs, ys, zs) for d in enumerate_dags(g))


@st.composite
def closures(draw):
    """Close a drawn MPDAG, which is tagged, plus one drawn orientation of
    one of its undirected edges (none when it has none): the closure that
    adopts its sets unchecked."""
    g = draw(mpdags())
    bk = []
    if g.undirected:
        a, b = draw(st.sampled_from(sorted(g.undirected)))
        bk.append(draw(st.sampled_from(((a, b), (b, a)))))
    try:
        return close(g, bk)
    except InconsistentKnowledgeError:
        assume(False)


@st.composite
def untagged_closures(draw):
    """An untagged random PDAG, the way input enters, and its closure
    under 0-2 drawn knowledge pairs over its adjacencies; an inconsistent
    closure is rejected."""
    g = oracles.random_pdag(draw(st.randoms(use_true_random=False)), draw(st.integers(2, 7)))
    pairs = sorted(g.directed | g.undirected)
    bk = []
    if pairs:
        for a, b in draw(st.lists(st.sampled_from(pairs), max_size=2, unique=True)):
            bk.append(draw(st.sampled_from(((a, b), (b, a)))))
    try:
        return g, close(g, bk)
    except InconsistentKnowledgeError:
        assume(False)


def _assert_passes_the_public_checks(h):
    public = require_mpdag(Pdag(h.nodes, h.directed, h.undirected))
    assert h == public and h.nodes == public.nodes and h.class_tag == "mpdag"
    for n in h.nodes:
        assert h.parents_of(n) == public.parents_of(n)
        assert h.children_of(n) == public.children_of(n)
        assert h.und_neighbors(n) == public.und_neighbors(n)
    assert parse_graph(h.to_edgelist()) == h
    assert close(h) == h


def _assert_extension_is_a_represented_dag(h):
    """``consistent_extension`` of the tagged ``h`` is a DAG that ``h``
    represents, tagged ``dag``, on ``h``'s nodes in order and sharing its
    neighbourhood map; returns it."""
    d = consistent_extension(h)
    assert d.class_tag == "dag" and d.nodes == h.nodes and d._adj is h._adj
    assert not d.undirected and oracles.represents(h, d.directed)
    return d


def _assert_untagged_closure(g, h):
    assert g.class_tag == "pdag" and h._adj is g._adj
    _assert_passes_the_public_checks(h)
    _assert_extension_is_a_represented_dag(h)


@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(closures())
def test_unchecked_closure_passes_the_public_checks(h):
    _assert_passes_the_public_checks(h)


@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(untagged_closures())
def test_closure_of_untagged_input_passes_the_public_checks(pair):
    _assert_untagged_closure(*pair)


def test_closures_of_untagged_sweep_graphs_pass_the_public_checks(sweep):
    # Each sweep MPDAG rebuilt untagged, closed as it is and with each
    # orientation of each undirected edge as knowledge.
    checked = 0
    for g, _ in sweep:
        untagged = Pdag(g.nodes, g.directed, g.undirected)
        bks = [()] + [((t, h),) for a, b in sorted(g.undirected) for t, h in ((a, b), (b, a))]
        for bk in bks:
            try:
                h = close(untagged, bk)
            except InconsistentKnowledgeError:
                continue
            _assert_untagged_closure(untagged, h)
            checked += 1
    assert checked > 600


@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mpdags(), st.data())
def test_pco_buckets_partition_d_and_order_every_edge(g, data):
    d = data.draw(st.sets(st.sampled_from(g.nodes)))
    parts = pco(g, d)
    assert parts == oracles.reference_pco(g, d)
    assert sorted(n for b in parts for n in b) == sorted(d)
    comps = oracles.undirected_components(g)
    assert all(any(b == d & comp for comp in comps) for b in parts)
    rank = {n: i for i, b in enumerate(parts) for n in b}
    for a, b in g.directed:
        if a in rank and b in rank:
            assert rank[a] <= rank[b]
    for a, b in g.undirected:
        if a in rank and b in rank:
            assert rank[a] == rank[b]


@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mpdags())
def test_consistent_extension_is_a_represented_dag(g):
    # close(g) and both branch closures on every undirected edge of it,
    # which close builds without a removal-order pass.
    closures = [g]
    for a, b in sorted(g.undirected):
        closures += [close(g, (pair,)) for pair in ((a, b), (b, a))]
    for h in closures:
        _assert_extension_is_a_represented_dag(h)


@settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mpdags(min_nodes=6, max_nodes=8))
def test_depth_first_matches_the_full_check_walk(g):
    # The walk closes branches unchecked and lays out the two leaves of the
    # last undirected edge without a close; the reference closes every
    # branch rebuilt untagged, under the full check.
    got = list(_depth_first(g))
    expected = list(oracles.reference_depth_first(g))
    assert [(d.nodes, d.directed, d.undirected) for d in got] == [
        (d.nodes, d.directed, d.undirected) for d in expected
    ]
    assert all(d.class_tag == "dag" and d._adj is g._adj for d in got)


def _checked_versions(g):
    """The MPDAG ``g`` rebuilt untagged, in its own node order and as
    ``parse_graph`` reads its edge list, each checked by ``require_mpdag``;
    the closure of the first under ``close``'s full check; ``require_mpdag``
    of ``g``; and the first leaves of its enumeration rebuilt under the
    ``dag`` tag: every way a graph gets checked."""
    untagged = Pdag(g.nodes, g.directed, g.undirected)
    checked = [require_mpdag(untagged), require_mpdag(parse_graph(g.to_edgelist()))]
    checked += [close(untagged), require_mpdag(g)]
    checked += [Pdag(d.nodes, d.directed, (), "dag") for d in itertools.islice(_depth_first(g), 4)]
    return checked


def _assert_carries_its_extension(h):
    """``consistent_extension`` finds a DAG that ``h`` represents, and
    finds that DAG itself again from it."""
    _assert_extension_is_a_represented_dag(_assert_extension_is_a_represented_dag(h))


@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mpdags())
def test_every_checked_graph_carries_a_represented_dag(g):
    for h in _checked_versions(g):
        _assert_carries_its_extension(h)


def test_every_checked_graph_carries_a_represented_dag_on_the_sweep(sweep):
    checked = 0
    for g, _ in sweep:
        for h in _checked_versions(g):
            _assert_carries_its_extension(h)
            checked += 1
    assert checked > 1500


def _assert_branch_closes_match_untagged(h):
    """For each orientation of each undirected edge of the MPDAG ``h``,
    ``close(h, (pair,))`` equals the closure of ``h`` rebuilt untagged,
    which runs the full check, and represents the DAG that
    ``consistent_extension`` finds for it.  Returns how many branch closes
    there were and how many removal-order passes they ran."""
    untagged = Pdag(h.nodes, h.directed, h.undirected)
    closes = ran = 0
    for a, b in sorted(h.undirected):
        for pair in ((a, b), (b, a)):
            with mock.patch.object(meek, "_removal_order", wraps=meek._removal_order) as spy:
                branch = close(h, (pair,))
            expected = close(untagged, (pair,))
            assert (branch.directed, branch.undirected) == (expected.directed, expected.undirected)
            assert branch.class_tag == expected.class_tag == "mpdag"
            _assert_extension_is_a_represented_dag(branch)
            closes += 1
            ran += spy.call_count
    return closes, ran


@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mpdags())
def test_branch_closes_match_the_rankless_closure(g):
    assert _assert_branch_closes_match_untagged(g)[1] == 0


def test_branch_closes_match_the_rankless_closure_on_the_sweep(sweep):
    counts = [_assert_branch_closes_match_untagged(g) for g, _ in sweep]
    closes, ran = map(sum, zip(*counts))
    print(closes, ran)
    assert closes > 600 and ran == 0


def _one_pair_branches_close_under_every_check(h):
    """Close the checked MPDAG ``h`` with each pair on each of its
    undirected edges by ``oracles.reference_close``, which runs every
    check and so raises if one fails, and compare with ``close``, which
    runs none on such a branch.  Returns how many branches there were."""
    branches = 0
    for a, b in sorted(h.undirected):
        for pair in ((a, b), (b, a)):
            got = close(h, (pair,))
            assert oracles.reference_close(h, [pair]) == (got.directed, got.undirected)
            branches += 1
    return branches


@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mpdags())
def test_one_pair_branches_pass_every_check(g):
    _one_pair_branches_close_under_every_check(g)


def test_one_pair_branches_pass_every_check_on_the_sweep(sweep):
    branches = sum(_one_pair_branches_close_under_every_check(g) for g, _ in sweep)
    print(branches)
    assert branches > 600


def _derived_by_orientation(g):
    """Graphs that ``close``, ``Pdag._trusted`` and ``_depth_first``
    derive from the MPDAG ``g``, plus the closure of ``g`` rebuilt
    untagged, which ``require_mpdag`` re-checks; each paired with the
    graph it came from."""
    untagged = Pdag(g.nodes, g.directed, g.undirected)
    pairs = [(untagged, close(untagged)), (untagged, require_mpdag(untagged))]
    edges = (g.directed, g.undirected)
    retagged = Pdag._trusted(g.nodes, g._parents, g._children, g._und, "mpdag", edges, g._adj)
    pairs += [(g, close(g)), (g, retagged)]
    for a, b in sorted(g.undirected):
        for pair in ((a, b), (b, a)):
            try:
                pairs.append((g, close(g, (pair,))))
            except InconsistentKnowledgeError:
                pass
    pairs += [(g, h) for h in itertools.islice(_depth_first(g), 64)]
    return pairs


def _assert_true_map(h):
    for n in h.nodes:
        assert h._adj[n] == h._parents[n] | h._children[n] | h._und[n] | {n}


@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mpdags())
def test_derived_graphs_share_one_true_adjacency_map(g):
    for parent, h in _derived_by_orientation(g):
        assert h._adj is parent._adj
        _assert_true_map(h)


def test_derived_graphs_share_one_true_adjacency_map_on_the_sweep(sweep):
    for g, dags in sweep:
        for parent, h in _derived_by_orientation(g) + [(g, d) for d in dags]:
            assert h._adj is parent._adj
            _assert_true_map(h)


# -- edge-list reader against the two-pass reference ---------------------------

_EDGE_NAMES = ("A", "B", "C", "D", "N.1", "x_2")
_BAD_NAMES = ("a-b", "Ä", "B$", "node", "->")


def _edge_line(a, mark, b, draw):
    return f"{a} {mark} {b}" + draw(st.sampled_from(("", "", " # note", "\t#A -> B")))


@st.composite
def edge_list_texts(draw):
    """Edge-list text from the grammar: ``node`` lines, edges whose arrows
    follow a drawn order (at most one per pair), comments and blank lines
    in any order, joined by LF, CRLF or CR; then up to two near misses at
    drawn places: a bad name, a self-loop, a pair repeated directed and
    undirected, a malformed line, or the edges of a directed cycle."""
    order = draw(st.permutations(_EDGE_NAMES))
    lines = [f"node {n}" for n in draw(st.lists(st.sampled_from(_EDGE_NAMES), max_size=2))]
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(order, 2))), max_size=7, unique=True))
    for a, b in pairs:
        mark = draw(st.sampled_from(("->", "--")))
        if mark == "--" and draw(st.booleans()):
            a, b = b, a
        lines.append(_edge_line(a, mark, b, draw))
    lines += draw(st.lists(st.sampled_from(("# comment", "#", "", "  ", "\t")), max_size=3))
    lines = draw(st.permutations(lines))
    name = st.sampled_from(_EDGE_NAMES)
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("cycle", "repeat", "self-loop", "malformed", "bad name")))
        if kind == "bad name":
            bad = draw(st.sampled_from(_BAD_NAMES))
            miss = [draw(st.sampled_from((f"node {bad}", f"{bad} -> A", f"A -- {bad}")))]
        elif kind == "self-loop":
            a = draw(name)
            miss = [_edge_line(a, draw(st.sampled_from(("->", "--"))), a, draw)]
        elif kind == "repeat" and pairs:
            a, b = draw(st.sampled_from(pairs))
            miss = [_edge_line(b, draw(st.sampled_from(("->", "--"))), a, draw)]
        elif kind == "malformed":
            miss = [draw(st.sampled_from(("A => B", "A -> B -> C", "A", "node", "node A B", "-- A")))]
        else:  # a cycle, also for "repeat" when no edge was drawn
            # Mostly new nodes, so that a repeated pair seldom hides the cycle.
            cycle = draw(st.lists(st.sampled_from(("P", "Q", "R", "A")), min_size=3, max_size=4, unique=True))
            miss = [_edge_line(a, "->", b, draw) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
        at = draw(st.integers(0, len(lines)))
        lines[at:at] = miss
    return "".join(line + draw(st.sampled_from(("\n", "\r\n", "\r"))) for line in lines)


def _assert_reads_as_the_reference(text):
    try:
        want = oracles.reference_parse_graph(text)
    except GraphError as exc:
        with pytest.raises(GraphError) as got:
            parse_graph(text)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        assert getattr(got.value, "lineno", None) == getattr(exc, "lineno", None)
        return
    g = parse_graph(text)
    assert {field: getattr(g, field) for field in want} == want
    assert list(g._adj) == list(g._parents) == list(g.nodes)
    assert g.class_tag == "pdag"


@settings(
    derandomize=True,
    max_examples=400,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(edge_list_texts())
def test_parse_graph_matches_the_two_pass_reference(text):
    _assert_reads_as_the_reference(text)


def test_edge_list_texts_are_drawn_with_and_without_a_comment():
    # parse_graph cuts comments only from a text that holds a "#", so the
    # reference property above must meet both kinds of text.
    seen = {True: 0, False: 0}

    @settings(derandomize=True, max_examples=400, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(edge_list_texts())
    def draw(text):
        seen["#" in text] += 1

    draw()
    assert seen[True] > 100 and seen[False] > 50, seen


def test_parse_graph_matches_the_two_pass_reference_on_rendered_graphs(sweep):
    graphs = [g for g, _ in sweep]
    graphs += oracles.random_mpdags(seed=97, count=40, n_nodes=(6, 7, 8))
    for g in graphs:
        _assert_reads_as_the_reference(g.to_edgelist())


# -- renderer against the triple-sorting reference -----------------------------

# Names that share prefixes, so that the sort order of a rendered line
# turns on what follows a name: ``.`` and ``_``, digits, both cases.
_PREFIX_NAMES = ("A", "A1", "A.1", "A_1", "A10", "A.", "A_", "a", "a1", "B", "b.2", "_", ".", "0")


@st.composite
def rendered_graphs(draw):
    """A PDAG over drawn names, with arrows that follow a drawn order; in
    about half the draws it has no undirected edge, and a node with no
    drawn edge stays isolated.  When drawn and the PDAG closes, it is
    replaced by the DAG ``consistent_extension`` finds for its closure,
    laid out unchecked with the closure's neighbourhood map, as
    enumeration leaves are."""
    name = st.one_of(st.sampled_from(_PREFIX_NAMES), st.text("Aa1._0", min_size=1, max_size=3))
    names = draw(st.lists(name, min_size=1, max_size=8, unique=True))
    order = draw(st.permutations(names))
    kinds = ["none", "directed"] + (["undirected"] if draw(st.booleans()) else [])
    directed, undirected = [], []
    for a, b in itertools.combinations(order, 2):
        kind = draw(st.sampled_from(kinds))
        if kind == "directed":
            directed.append((a, b))
        elif kind == "undirected":
            undirected.append(draw(st.sampled_from(((a, b), (b, a)))))
    g = Pdag(names, directed, undirected)
    if draw(st.booleans()):
        try:
            return consistent_extension(close(g))
        except InconsistentKnowledgeError:
            pass
    return g


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(rendered_graphs())
def test_edgelist_matches_the_triple_sorting_reference_on_drawn_names(g):
    assert g.to_edgelist() == oracles.reference_to_edgelist(g)
