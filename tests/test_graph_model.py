import pytest

from stratisolve.errors import (
    BlackDegreeError,
    DanglingEdgeError,
    DisconnectedError,
    DuplicateNameError,
    GraphSyntaxError,
    UnknownVertexError,
    ZeroLabelError,
)
from stratisolve.graph_model import (
    StratifoldGraph,
    canonical_tree,
    normalize_orientations,
    parse_graph,
    serialize_graph,
)
from stratisolve.pipeline import compile

Z3 = "white w1 genus 0\nblack b1\nedge e1 w1 b1 3\n"
BS = "white w1 genus 0\nblack b1\nedge e1 w1 b1 1\nedge e2 w1 b1 2\n"


def test_parse_counts():
    g = parse_graph(Z3)
    assert len(g.whites) == 1 and len(g.blacks) == 1 and len(g.edges) == 1
    assert g.white("w1").genus == 0
    assert g.edge("e1").label == 3


def test_edge_lookup_by_name():
    g = parse_graph(BS)
    with pytest.raises(UnknownVertexError):
        g.edge("e3")  # before the index is built
    assert g.edge("e2").label == 2
    with pytest.raises(UnknownVertexError):
        g.edge("e3")  # and after
    assert g == parse_graph(BS) and hash(g) == hash(parse_graph(BS))
    assert g.replace_labels({"e2": -2}).edge("e2").label == -2


def test_parse_comments_and_blank_lines():
    g = parse_graph("# header\n\nwhite w1 genus -1  # projective plane\n")
    assert g.white("w1").genus == -1


def test_roundtrip():
    for text in (Z3, BS):
        g = parse_graph(text)
        assert parse_graph(serialize_graph(g)) == g


def test_syntax_error_carries_line():
    with pytest.raises(GraphSyntaxError) as exc:
        parse_graph("white w1 genus 0\nblack\n")
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize(
    "text,error",
    [
        ("white w genus 0\nwhite w genus 1\n", DuplicateNameError),
        # a white and a black of one name were merged by the tree
        ("white x genus 0\nwhite w2 genus 0\nblack x\n"
         "edge e1 x x 1\nedge e2 w2 x 2\n", DuplicateNameError),
        ("white w genus 0\nblack b\nedge e w b 0\n", ZeroLabelError),
        ("white w genus 0\nblack b\nedge e w nope 3\n", DanglingEdgeError),
        ("white w genus 0\nblack b\nedge e w b 2\n", BlackDegreeError),
        ("white w genus 0\nwhite v genus 0\nblack b\nedge e w b 3\n",
         DisconnectedError),
        # '^' and '*' split words, so no word could spell these generators
        ("white w1 genus 0\nblack x^2\nedge e1 w1 x^2 3\n", GraphSyntaxError),
        ("white w*1 genus 1\nblack b1\nedge e1 w*1 b1 3\n", GraphSyntaxError),
    ],
)
def test_invalid_graphs_rejected(text, error):
    with pytest.raises(error):
        parse_graph(text)


def test_black_degree_counts_sheets_not_edges():
    # two edges with |labels| 1+2 = 3 sheets is legal
    parse_graph(BS)


def test_the_first_black_short_of_sheets_in_name_order_is_named():
    # b2's edge comes first and b1 has none; sheets count |label|
    with pytest.raises(BlackDegreeError,
                       match=r"^black vertex 'b1' has sheet count 0 < 3$"):
        parse_graph("white w genus 0\nblack b2\nblack b1\nedge e w b2 -2\n")
    with pytest.raises(BlackDegreeError,
                       match=r"^black vertex 'b2' has sheet count 2 < 3$"):
        parse_graph("white w genus 0\nblack b2\nblack b1\n"
                    "edge e w b2 -2\nedge f w b1 -3\n")


def test_graph_keeps_name_order_whatever_the_input_order():
    # names sort as strings: e10 comes before e2
    g = parse_graph(
        "white w2 genus 1\nwhite w1 genus 0\nblack b2\nblack b1\n"
        "edge e2 w2 b1 1\nedge e10 w1 b1 2\nedge e1 w1 b2 3\n"
        "edge e3 w2 b2 -1\n"
    )
    assert [e.name for e in g.edges] == ["e1", "e10", "e2", "e3"]
    h = StratifoldGraph(*(tuple(reversed(part))
                          for part in (g.whites, g.blacks, g.edges)))
    assert (h.whites, h.blacks, h.edges) == (g.whites, g.blacks, g.edges)
    assert h == g and hash(h) == hash(g)
    assert compile(h) is compile(g)


def test_canonical_tree_deterministic():
    g = parse_graph(BS)
    t1, t2 = canonical_tree(g), canonical_tree(g)
    assert t1.basepoint == "w1"
    assert t1.tree_edges == t2.tree_edges == frozenset({"e1"})
    assert t1.parent["b1"] == ("w1", "e1")


def test_normalize_orientations_flips_tree_edges_only():
    g = parse_graph(
        "white w1 genus 0\nblack b1\nedge e1 w1 b1 -1\nedge e2 w1 b1 -2\n"
    )
    t = canonical_tree(g)
    g2, flips = normalize_orientations(g, t)
    assert flips == ("e1",)
    assert g2.edge("e1").label == 1
    assert g2.edge("e2").label == -2  # non-tree labels keep their sign
    # the flipped graph is the one validation would have built
    assert g2 == g.replace_labels({"e1": 1})
    assert hash(g2) == hash(g.replace_labels({"e1": 1}))


def test_normalize_orientations_keeps_a_graph_without_flips():
    g = parse_graph(BS)
    g2, flips = normalize_orientations(g, canonical_tree(g))
    assert g2 is g and flips == ()
