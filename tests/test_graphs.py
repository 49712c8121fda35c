import pytest

from mpdagid import (
    GraphError,
    GraphParseError,
    Pdag,
    UnknownNodeError,
    enumerate_dags,
    identify,
    parse_graph,
)
from mpdagid.graphs import reach, topological_order
from mpdagid.meek import require_mpdag

import oracles

CYCLE = [("A", "B"), ("B", "C"), ("C", "A")]
# A chordless 4-cycle: no rule fires, and no orientation is a DAG of the class.
SQUARE = [("D", "E"), ("E", "F"), ("F", "G"), ("D", "G")]


def test_topological_order_places_the_earliest_ready_item():
    parents = {"C": set(), "B": {"A"}, "A": set(), "D": {"B", "C"}}
    children = {"C": {"D"}, "B": {"D"}, "A": {"B"}, "D": set()}
    assert topological_order(("C", "B", "A", "D"), parents, children) == ["C", "A", "B", "D"]
    parents["A"], children["D"] = {"D"}, {"A"}  # the cycle A -> B -> D -> A
    assert topological_order(("C", "B", "A", "D"), parents, children) == ["C"]


def test_parse_mixed_edges():
    g = parse_graph("V1 -- X\nX -> Y2")
    assert g.nodes == ("V1", "X", "Y2")
    assert g.undirected == {("V1", "X")}
    assert g.directed == {("X", "Y2")}


def test_parse_empty_input():
    g = parse_graph("")
    assert g.nodes == () and not g.directed and not g.undirected


def test_parse_comments_blank_lines_and_node_decl():
    g = parse_graph("# header\n\nnode A\nA -> B  # trailing\n")
    assert g.nodes == ("A", "B")
    assert g.directed == {("A", "B")}


def test_parse_duplicate_pair_rejected():
    with pytest.raises(GraphParseError) as err:
        parse_graph("X -> Y\nY -> X")
    assert err.value.lineno == 2


def test_parse_self_loop_rejected():
    with pytest.raises(GraphParseError):
        parse_graph("A -> A")


def test_parse_malformed_line_reports_number():
    with pytest.raises(GraphParseError) as err:
        parse_graph("A -> B\nA => B")
    assert "line 2" in str(err.value)


def test_parse_bad_name():
    with pytest.raises(GraphParseError):
        parse_graph("A-$ -> B")


def test_node_names_case_sensitive():
    g = parse_graph("x -> X")
    assert set(g.nodes) == {"x", "X"}


def test_directed_cycle_rejected():
    with pytest.raises(GraphError):
        Pdag(["A", "B", "C"], directed=[("A", "B"), ("B", "C"), ("C", "A")])


@pytest.mark.parametrize(
    "args, error, message",
    [
        ((["A", "B-$"],), GraphError, "invalid node name: 'B-\\$'"),
        ((["A", "B", "A"],), GraphError, "duplicate node: A"),
        ((["A", "B"], [("A", "C")]), UnknownNodeError, "unknown node: C"),
        ((["A", "B"], [("B", "B")]), GraphError, "self-loop at B"),
        ((["A", "B"], [("A", "B"), ("B", "A")]), GraphError, "more than one edge between B and A"),
        ((["A", "B"], [("A", "B")], [("B", "A")]), GraphError, "more than one edge between B and A"),
        ((["A", "B"], (), (), "tree"), GraphError, "unknown class tag: 'tree'"),
        # An empty name adds nothing to the joined names; the others break them.
        ((["A", ""],), GraphError, "invalid node name: ''"),
        ((["É"],), GraphError, "invalid node name: 'É'"),
        ((["A B"],), GraphError, "invalid node name: 'A B'"),
        ((["A\nB"],), GraphError, r"invalid node name: 'A\\nB'"),
    ],
)
def test_constructor_rejects_a_bad_graph(args, error, message):
    # parse_graph refuses these first, so only direct construction meets them.
    with pytest.raises(error, match=message):
        Pdag(*args)


@pytest.mark.parametrize(
    "args, error, message",
    [
        ((["A", 1, "A"], [("A", "Z"), ("B", "B")], (), "tree"), GraphError, "invalid node name: 1"),
        ((["A", "B", "A"], [("A", "Z"), ("B", "B")], (), "tree"), GraphError, "duplicate node: A"),
        # A repeat before a bad name is reported as the repeat.
        ((["A", "A", "B-$", "B"], [("A", "Z"), ("B", "B")], (), "tree"),
         GraphError, "duplicate node: A"),
        ((["A", "B"], [("A", "Z"), ("B", "B"), ("A", "B")], [("B", "A")], "tree"),
         UnknownNodeError, "unknown node: Z"),
        ((["A", "B"], [("B", "B"), ("A", "B")], [("B", "A")], "tree"), GraphError, "self-loop at B"),
        ((["A", "B"], [("A", "B")], [("B", "A")], "tree"),
         GraphError, "more than one edge between B and A"),
        ((["A", "B", "C"], CYCLE, (), "tree"), GraphError, "unknown class tag: 'tree'"),
        ((["A", "B", "C"], CYCLE, (), "cpdag"), GraphError, "unknown class tag: 'cpdag'"),
        ((["A", "B", "C"], CYCLE, (), "mpdag"), GraphError, "unknown class tag: 'mpdag'"),
        ((["A", "B", "C", "D"], CYCLE, [("C", "D")], "dag"),
         GraphError, "graph contains a directed cycle"),
        ((["A", "B", "C"], [("A", "B")], [("B", "C")], "dag"),
         GraphError, "dag tag forbids undirected edges"),
        (("ABCDEFG", [("A", "B")], [("B", "C"), *SQUARE], "pdag"),
         GraphError, "graph is not maximally oriented; close it first"),
        (("DEFG", (), SQUARE, "pdag"),
         GraphError, "closure represents no DAG (no consistent extension exists)"),
    ],
    ids=[
        "name", "duplicate", "duplicate-then-name", "endpoint", "self-loop", "pair", "tag",
        "cpdag", "mpdag", "cycle", "dag", "rule", "extension",
    ],
)
def test_constructor_checks_in_a_fixed_order(args, error, message):
    # Each row also holds the fault of every row below it, so its own
    # fault must be the one found first.  The constructor checks the tags
    # a graph's edges decide alone; require_mpdag, the one check that tags
    # a graph mpdag, then checks the rules and the extension.
    with pytest.raises(error) as err:
        require_mpdag(Pdag(*args))
    assert type(err.value) is error and str(err.value) == message


def test_dag_tag_forbids_undirected():
    with pytest.raises(GraphError):
        Pdag(["A", "B"], undirected=[("A", "B")], class_tag="dag")


def test_mpdag_tag_rejects_open_rule():
    g = Pdag(["A", "B", "C"], directed=[("A", "B")], undirected=[("B", "C")])
    with pytest.raises(GraphError, match="not maximally oriented"):
        require_mpdag(g)


@pytest.mark.parametrize("tag", ["cpdag", "mpdag"])
def test_tag_rejects_a_graph_representing_no_dag(tag):
    # The chordless 4-cycle fires no orientation rule, yet every
    # orientation adds a directed cycle or a new collider.  The
    # constructor refuses a tag that needs the rules to check; the
    # untagged graph is refused by require_mpdag and by the queries.
    cycle = [("A", "B"), ("B", "C"), ("C", "D"), ("A", "D")]
    with pytest.raises(GraphError, match=f"unknown class tag: '{tag}'"):
        Pdag("ABCD", undirected=cycle, class_tag=tag)
    g = Pdag("ABCD", undirected=cycle)
    with pytest.raises(GraphError, match="no consistent extension"):
        require_mpdag(g)
    with pytest.raises(GraphError, match="no consistent extension"):
        identify(g, {"A"}, {"C"})
    with pytest.raises(GraphError, match="no consistent extension"):
        g.possible_descendants({"A"})


def test_edgelist_round_trip(mpdag4, covar5):
    for g in (mpdag4, covar5):
        assert parse_graph(g.to_edgelist()) == g


def test_edgelist_isolated_nodes():
    g = parse_graph("node A\nB -> C")
    assert parse_graph(g.to_edgelist()) == g


EDGELIST_CASES = [
    "",
    "node A",
    "node B\nnode A\nB -> C",
    "X1 -> X10\nX1_b -- X1\nnode X1.c\nX10 -- X1_b\nnode X",
    "X10 -> X1\nX1 -> X1_b\nX10 -- X1_b\nX1_b -> X2\nnode X100\nX2 -- X20",
    "b -- a\nc -> a\nB -> c\nnode A\nb -> B",
]


def test_edgelist_matches_the_triple_sorting_reference(sweep):
    graphs = [h for g, dags in sweep for h in (g, *dags)]
    for g in oracles.random_mpdags(seed=41, count=40, n_nodes=(6, 7, 8)):
        graphs += [g, *enumerate_dags(g)]
    graphs += [parse_graph(text) for text in EDGELIST_CASES]
    for g in graphs:
        assert g.to_edgelist() == oracles.reference_to_edgelist(g), g.to_edgelist()


def test_set_parents_convention(mpdag4):
    assert mpdag4.set_parents({"Y2"}) == {"X", "Y1"}
    # parents of a set exclude the set itself
    assert mpdag4.set_parents({"X", "Y1"}) == set()


def test_ancestors_reflexive(mpdag4):
    for n in mpdag4.nodes:
        assert n in mpdag4.ancestors({n})
        assert n in mpdag4.descendants({n})
        assert n in mpdag4.possible_descendants({n})
        assert n in mpdag4.possible_ancestors({n})


def test_ancestors_in_induced_subgraph(mpdag4):
    # An(Y, G[V - X]) is the parent walk from Y that never enters X.
    chain = parse_graph("A -> X\nX -> Y\nB -> Y\nC -> A")
    rows = [
        (mpdag4, {"Y1", "Y2"}, {"X"}, {"Y1", "Y2"}),
        (mpdag4, {"Y2"}, set(), {"X", "Y1", "Y2"}),
        (chain, {"Y"}, {"X"}, {"B", "Y"}),  # the path C -> A -> X -> Y is cut
        (chain, {"Y"}, set(), {"A", "B", "C", "X", "Y"}),
        (chain, {"X", "Y"}, {"X"}, {"A", "B", "C", "X", "Y"}),  # a source is kept
        (chain, {"A"}, {"A", "C"}, {"A"}),
    ]
    for g, ys, xs, expected in rows:
        assert reach(ys, g._parents, xs) == expected


def test_relatives_unknown_node(mpdag4):
    g = mpdag4
    for query in (g.set_parents, g.ancestors, g.descendants, g.possible_ancestors,
                  g.possible_descendants):
        with pytest.raises(UnknownNodeError):
            query({"Q"})


def test_directed_subsets_of_possible():
    for g in oracles.random_mpdags(seed=11, count=40):
        for n in g.nodes:
            assert g.ancestors({n}) <= g.possible_ancestors({n})
            assert g.descendants({n}) <= g.possible_descendants({n})


def test_possible_descendants_match_brute_force():
    # Shielded configurations make naive forward reachability wrong; the
    # raw pairwise definition is the referee, and the exhaustive walk over
    # possibly causal simple paths on 6-8 nodes.
    for g in oracles.random_mpdags(seed=5, count=60):
        for n in g.nodes:
            assert g.possible_descendants({n}) == oracles.possible_descendants(g, {n})
    for g in oracles.random_mpdags(seed=6, count=100, n_nodes=(6, 7, 8)):
        nodes = sorted(g.nodes)
        for xs in [{n} for n in nodes] + [set(nodes[:2]), set(nodes[-3:])]:
            assert g.possible_descendants(xs) == oracles.reference_possible_descendants(g, xs)
            assert g.possible_ancestors(xs) == oracles.reference_possible_ancestors(g, xs)


def test_possible_relations_require_an_mpdag():
    # A -> B - C with A, C nonadjacent: rule 1 still orients B -> C.
    g = parse_graph("A -> B\nB -- C")
    with pytest.raises(GraphError, match="not maximally oriented"):
        g.possible_descendants({"A"})
    with pytest.raises(GraphError, match="not maximally oriented"):
        g.possible_ancestors({"C"})


def test_possible_descendants_shielded_triangle():
    # c -> a plus a - b - c: the walk a - b - c is locally forward but the
    # back-edge c -> a disqualifies it.
    g = Pdag(["A", "B", "C"], directed=[("C", "A")], undirected=[("A", "B"), ("B", "C")])
    assert g.possible_descendants({"A"}) == {"A", "B"}


def test_acyclicity_accepts_every_enumerated_dag(cpdag4, mpdag4, covar5):
    for g in (cpdag4, mpdag4, covar5):
        for d in enumerate_dags(g):
            rebuilt = Pdag(d.nodes, directed=d.directed, class_tag="dag")
            assert rebuilt == d


def test_graph_equality_ignores_node_order():
    a = parse_graph("A -> B\nnode C")
    b = parse_graph("node C\nA -> B")
    assert a == b and hash(a) == hash(b)


def test_a_graph_equals_no_other_type():
    g = parse_graph("A -> B\n")
    assert g.__eq__(1) is NotImplemented
    assert g != 1 and not (g == "A -> B\n")
