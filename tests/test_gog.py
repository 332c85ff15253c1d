import hashlib
import itertools
import random

import pytest

from stratisolve.errors import (
    InjectivityError,
    UnknownGeneratorError,
    UnknownVertexError,
)
from stratisolve.gog import (
    DirectedEdge,
    GraphOfGroups,
    boundary_mismatches,
    build_white_handle,
    edge_group_order,
    to_loop_word,
)
from stratisolve.graph_model import canonical_tree, parse_graph
from stratisolve.local_groups import (
    TRIVIAL_HANDLE,
    FreeProductOfCyclics,
    solve_congruence,
)
from stratisolve.pipeline import compile
from stratisolve.presentation import natural_presentation, parse_word
from stratisolve.serre_solver import solve
from test_serre_solver import _disk_capped_chain

Z3 = "white w1 genus 0\nblack b1\nedge e1 w1 b1 3\n"
BS = "white w1 genus 0\nblack b1\nedge e1 w1 b1 1\nedge e2 w1 b1 2\n"


def gog_for(text, sigma):
    g = parse_graph(text)
    return GraphOfGroups(g, canonical_tree(g), sigma)


def test_edge_group_order():
    assert edge_group_order(0, 5) == 0
    assert edge_group_order(6, 4) == 3
    assert edge_group_order(6, -4) == 3
    assert edge_group_order(3, 3) == 1
    assert edge_group_order(5, 1) == 5


def test_build_white_handle_uses_sigma():
    g = parse_graph(Z3)
    wh = build_white_handle(g, "w1", {"b1": 3})
    # disk: single boundary of order 1 is killed, trivial handle
    assert wh.handle is TRIVIAL_HANDLE
    assert wh.boundary_images["c.e1"] == ()


def test_gog_vertex_handles():
    gog = gog_for(Z3, {"b1": 3})
    assert gog.vertex_handle("w1") is gog.white_handles["w1"].handle
    assert "b1" not in gog.white_handles
    assert gog.vertex_handle("b1").elem_order((("b.b1", 1),)) == 3
    assert gog.basepoint == "w1"


def test_gog_injectivity_check_rejects_bad_sigma():
    # sigma=2 on the disk graph forces edge order 2, but the trivial white
    # handle computes boundary order 1
    with pytest.raises(InjectivityError):
        gog_for(Z3, {"b1": 2})


def _handle_mismatches(g, sigma):
    """The generic check that ``boundary_mismatches`` replaced: the order of
    each boundary image in a white handle that is a free product of cyclics,
    against its edge-group order."""
    found = set()
    for w in g.white_names():
        wh = build_white_handle(g, w, sigma)
        if not isinstance(wh.handle, FreeProductOfCyclics):
            continue
        for e in g.edges_at_white(w):
            required = edge_group_order(sigma[e.black], e.label)
            computed = wh.handle.elem_order(wh.boundary_images[f"c.{e.name}"])
            if computed != required:
                found.add((e.name, computed, required))
    return found


@pytest.mark.parametrize("genus", range(-3, 3))
def test_boundary_mismatches_agree_with_the_handles(genus):
    # one white with 0-5 curves, each on its own black by label 3, so that
    # sigma = 3k gives the curve order k: 9331 specs per genus, 55,986 in all
    specs = 0
    for p in range(6):
        g = parse_graph("".join(
            [f"white w genus {genus}\n"]
            + [f"black b{i}\nedge e{i} w b{i} 3\n" for i in range(1, p + 1)]
        ))
        for orders in itertools.product((0, 1, 2, 3, 4, 6), repeat=p):
            sigma = {f"b{i}": 3 * k for i, k in enumerate(orders, 1)}
            rule = {(e.name, d, k) for e, d, k in boundary_mismatches(g, sigma)}
            assert rule == _handle_mismatches(g, sigma), (genus, orders)
            specs += 1
    assert specs == 9331


def test_edge_membership_black_side():
    gog = gog_for(BS, {"b1": 0})
    # edge e2 has label 2: b^4 = (b^2)^2 is in the image, b^3 is not
    assert gog.edge_membership("e2", "black", (("b.b1", 4),)) == 2
    assert gog.edge_membership("e2", "black", (("b.b1", 3),)) is None
    assert gog.edge_membership("e2", "black", ()) == 0
    with pytest.raises(UnknownVertexError):
        gog.edge_membership("e3", "black", ())
    # b^x lies in the image of <b^label> in the cyclic group of order sigma
    # exactly when label*s = x (mod sigma) has a solution, the least s >= 0
    for label in (*range(-6, 0), *range(1, 7)):
        g = parse_graph("white w1 genus 1\nwhite w2 genus 1\nblack b1\n"
                        f"edge e1 w1 b1 {label}\nedge e2 w2 b1 3\n")
        for sigma in range(13):
            gog = GraphOfGroups(g, canonical_tree(g), {"b1": sigma})
            for x in range(-30, 31):
                assert gog.edge_membership("e1", "black", (("b.b1", x),)) == \
                    solve_congruence(label, x, sigma), (label, sigma, x)


def test_edge_membership_white_side():
    gog = gog_for(BS, {"b1": 0})
    img = gog.white_image("e1")
    assert gog.edge_membership("e1", "white", img + img) == 2


def test_transport():
    gog = gog_for(BS, {"b1": 0})
    assert gog.transport("e2", "black", 3) == (("b.b1", 6),)
    assert gog.transport("e1", "black", -1) == (("b.b1", -1),)


PINNED_LOOPS = "8f6b00d8520e0d6a5d7b2edfadabedf5fe6dc04e03956e8beea8bcdd2daf0303"


def check_loop(gog, lw):
    """Structural validity of a loop word: based at the basepoint, and each
    edge leaves the vertex the previous one reached."""
    assert len(lw.vertices) == len(lw.vertex_words) == len(lw.edges) + 1
    assert lw.vertices[0] == lw.vertices[-1] == gog.basepoint
    for i, de in enumerate(lw.edges):
        e = gog.graph.edge(de.edge)
        src, dst = (e.white, e.black) if de.to_black else (e.black, e.white)
        assert lw.vertices[i] == src and lw.vertices[i + 1] == dst


def test_loops_and_verdicts_are_pinned(fixtures):
    # every fixture generator at exponents 1, -2 and 3, and seeded random
    # words on a chain; a change to the loop's shape changes the digest
    cases = []
    for g in fixtures.values():
        c = compile(g)
        cases += [(c, ((gen, exp),)) for gen in c.pres.generators
                  for exp in (1, -2, 3)]
    c = compile(_disk_capped_chain(8))
    rng = random.Random(60)
    gens = c.pres.generators
    cases += [(c, tuple((rng.choice(gens), rng.choice((-2, -1, 1, 2)))
                        for _ in range(rng.randint(1, 16))))
              for _ in range(60)]
    digest = hashlib.sha256()
    for c, w in cases:
        lw = to_loop_word(c.gog, w)
        check_loop(c.gog, lw)
        digest.update(repr((lw, solve(c.gog, lw))).encode())
    assert digest.hexdigest() == PINNED_LOOPS


def loop_of(text, sigma, word_text):
    g = parse_graph(text)
    t = canonical_tree(g)
    gog = GraphOfGroups(g, t, sigma)
    pres = natural_presentation(g, t)
    return gog, to_loop_word(gog, parse_word(word_text, pres))


def test_loop_word_structure_black_generator():
    gog, lw = loop_of(Z3, {"b1": 3}, "b.b1")
    check_loop(gog, lw)
    # basepoint w1: walk e1 to b1, say b, walk back
    assert lw.vertices == ("w1", "b1", "w1")
    assert lw.edges == (
        DirectedEdge("e1", to_black=True),
        DirectedEdge("e1", to_black=False),
    )
    assert lw.vertex_words[1] == (("b.b1", 1),)


def test_loop_word_stable_letter():
    gog, lw = loop_of(BS, {"b1": 0}, "t.e2")
    check_loop(gog, lw)
    assert DirectedEdge("e2", to_black=True) in lw.edges
    assert lw.edge_length == 2  # e2 across, e1 back along the tree


def test_loop_word_stable_letter_inverse_roundtrip():
    gog, lw = loop_of(BS, {"b1": 0}, "t.e2 * t.e2^-1")
    check_loop(gog, lw)
    assert lw.vertices[0] == lw.vertices[-1] == "w1"


def test_tree_edge_has_no_stable_letter():
    g = parse_graph(BS)
    t = canonical_tree(g)
    gog = GraphOfGroups(g, t, {"b1": 0})
    with pytest.raises(UnknownGeneratorError):
        to_loop_word(gog, (("t.e1", 1),))


def test_boundary_generator_maps_to_white_image():
    gog, lw = loop_of(BS, {"b1": 0}, "c.e2^2")
    check_loop(gog, lw)
    assert lw.edge_length == 0
    from stratisolve.words import power

    assert lw.vertex_words[0] == power(gog.white_image("e2"), 2)
