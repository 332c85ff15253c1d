import random
from math import gcd, lcm

import pytest
from test_acceptance import _random_valid_graph
from test_serre_solver import _disk_capped_chain

from stratisolve.errors import (
    TreeEdgeStableError,
    UnknownGeneratorError,
    WordSyntaxError,
)
from stratisolve.graph_model import canonical_tree, parse_graph
from stratisolve.presentation import (
    abelianization,
    format_word,
    genus_word,
    natural_presentation,
    parse_word,
    surface_gen_count,
    surface_names,
)
from stratisolve.pipeline import compile
from stratisolve.snf import smith_normal_form
from stratisolve.words import concat, free_reduce, inverse


def pres_of(text):
    g = parse_graph(text)
    t = canonical_tree(g)
    return natural_presentation(g, t)


Z3 = "white w1 genus 0\nblack b1\nedge e1 w1 b1 3\n"
BS = "white w1 genus 0\nblack b1\nedge e1 w1 b1 1\nedge e2 w1 b1 2\n"


def test_surface_gen_count():
    assert surface_gen_count(2) == 4
    assert surface_gen_count(-3) == 3
    assert surface_gen_count(0) == 0


def test_genus_word_conventions():
    assert genus_word(surface_names("w", 1), 1) == (
        ("y.w.1", 1), ("y.w.2", 1), ("y.w.1", -1), ("y.w.2", -1)
    )
    assert genus_word(surface_names("w", -2), -2) == (("y.w.1", 2), ("y.w.2", 2))
    assert genus_word(surface_names("w", 0), 0) == ()


def test_disk_presentation():
    p = pres_of(Z3)
    assert p.generators == ("b.b1", "c.e1")
    assert p.relators == (
        (("c.e1", 1),),
        (("b.b1", 3), ("c.e1", -1)),
    )


def test_two_edge_presentation_has_stable_letter():
    p = pres_of(BS)
    assert p.generators == ("b.b1", "c.e1", "c.e2", "t.e2")
    assert (("t.e2", -1), ("c.e2", 1), ("t.e2", 1), ("b.b1", -2)) in p.relators


def test_generator_counts_match_graph(fixtures):
    for g in fixtures.values():
        t = canonical_tree(g)
        p = natural_presentation(g, t)
        n_boundary = sum(1 for x in p.generators if x.startswith("c."))
        n_stable = sum(1 for x in p.generators if x.startswith("t."))
        assert n_boundary == len(g.edges)
        assert n_stable == len(g.edges) - len(t.tree_edges)


def test_parse_and_format_roundtrip():
    p = pres_of(BS)
    for text in ("b.b1^2 * c.e1", "t.e2^-1 * c.e2 * t.e2 * b.b1^-2", "1"):
        w = parse_word(text, p)
        assert parse_word(format_word(w), p) == w


def test_present_output_parses_back(fixtures):
    """What ``present`` prints is in the word grammar: each relator parses
    back to itself, and each generator to the one-letter word."""
    for g in fixtures.values():
        p = compile(g).pres
        for r in p.relators:
            assert parse_word(format_word(r), p) == r
        for x in p.generators:
            assert parse_word(x, p) == ((x, 1),)


def test_parse_word_errors():
    p = pres_of(BS)
    with pytest.raises(WordSyntaxError):
        parse_word("b.b1^^2", p)
    with pytest.raises(UnknownGeneratorError):
        parse_word("b.nope", p)
    with pytest.raises(TreeEdgeStableError):
        parse_word("t.e1", p)  # e1 is the tree edge


def test_relators_have_zero_abelianized_image(fixtures):
    for g in fixtures.values():
        p = natural_presentation(g, canonical_tree(g))
        ab = abelianization(p)
        for r in p.relators:
            assert ab.order(r) == 1


def test_abelianization_disk():
    p = pres_of(Z3)
    ab = abelianization(p)
    assert ab.torsion() == (3,)
    assert ab.free_rank() == 0
    assert ab.order(parse_word("b.b1", p)) != 1
    assert ab.order(parse_word("b.b1^3", p)) == 1
    assert ab.order(parse_word("b.b1", p)) == 3


def test_abelianization_free_rank():
    p = pres_of(BS)
    ab = abelianization(p)
    assert ab.free_rank() == 1  # the stable letter survives rationally
    assert ab.order(parse_word("t.e2", p)) == 0


def test_ab_order_of_relators_blacks_and_permuted_words(fixtures):
    rng = random.Random(11)
    graphs = {"chain8": _disk_capped_chain(8), **fixtures}
    for name, g in graphs.items():
        c = compile(g)
        p = c.pres
        ab = abelianization(p)
        assert all(ab.order(r) == 1 for r in p.relators), name
        for b, h in c.orders.ab_evidence.items():
            assert ab.order(((f"b.{b}", 1),)) == h, (name, b)
        for _ in range(30):
            u = [(rng.choice(p.generators), rng.choice((-2, -1, 1, 2)))
                 for _ in range(rng.randint(1, 8))]
            v = rng.sample(u, len(u))
            # H1 is abelian: u and v have one image, so u v^-1 is trivial
            assert ab.order(concat(u, inverse(v))) == 1, (name, u)
            assert ab.order(concat(u)) == ab.order(concat(v)), (name, u)


def test_ab_order_additive():
    p = pres_of(BS)
    ab = abelianization(p)
    w1 = parse_word("b.b1 * t.e2", p)
    w2 = parse_word("t.e2 * b.b1", p)
    assert ab.order(w1) == ab.order(w2) == 0
    assert ab.order(free_reduce(w1 + tuple((n, -e) for n, e in reversed(w2)))) == 1


# -- H1 by elimination against the dense Smith form ---------------------------------

def _dense_h1(p):
    """Free rank, torsion and the order of a word in H1, read from the
    Smith form of the whole relation matrix."""
    n = len(p.generators)
    rows = []
    for rel in p.relators:
        row = [0] * n
        for name, exp in rel:
            row[p.index(name)] += exp
        rows.append(row)
    diag, v = smith_normal_form(rows, n)

    def order(w):
        u = [0] * n
        for name, exp in w:
            u = [a + exp * x for a, x in zip(u, v[p.index(name)])]
        out = 1
        for j, uj in enumerate(u):
            d = diag[j] if j < len(diag) else 0
            if d > 0:
                out = lcm(out, d // gcd(d, uj))
            elif uj:
                return 0
        return out

    return n - sum(1 for d in diag if d), tuple(d for d in diag if d > 1), order


def test_elimination_agrees_with_the_dense_smith_form(fixtures):
    rng = random.Random(19)
    graphs = [*fixtures.values(), _disk_capped_chain(8), _disk_capped_chain(32)]
    while len(graphs) < len(fixtures) + 2 + 300:
        g = _random_valid_graph(rng)
        if g is not None:
            graphs.append(g)
    for g in graphs:
        p = compile(g).pres
        ab = abelianization(p)
        free_rank, torsion, order = _dense_h1(p)
        assert (ab.free_rank(), ab.torsion()) == (free_rank, torsion), g
        words = [((f"b.{b}", 1),) for b in g.black_names()]
        words += [
            tuple((rng.choice(p.generators), rng.choice((-3, -1, 1, 2)))
                  for _ in range(rng.randint(1, 6)))
            for _ in range(4)
        ]
        for w in words:
            assert ab.order(w) == order(w), (g, w)


def test_long_disk_capped_chain_leaves_no_block():
    # every b, c and disk curve is eliminated by a unit pivot; the surface
    # generators are in no relation and stay free, so no Smith form is left
    p = compile(_disk_capped_chain(128)).pres
    ab = abelianization(p)
    assert ab.columns == () and ab.diagonal == ()
    assert len(ab.substitutions) + len(ab.free) == len(p.generators)
    assert ab.free_rank() == 2 * 129 and ab.torsion() == ()
    assert all(ab.order(((f"b.b{i}", 1),)) == 1 for i in range(1, 129))
