import pytest

from stratisolve.errors import UndeterminedError
from stratisolve.gog import GraphOfGroups, to_loop_word
from stratisolve.graph_model import canonical_tree, parse_graph
from stratisolve.oracle import Budget
from stratisolve.pipeline import compile
from stratisolve.presentation import natural_presentation, parse_word
from stratisolve.serre_solver import reduce_once, replay_trace, solve, word_problem

Z3 = "white w1 genus 0\nblack b1\nedge e1 w1 b1 3\n"
BS = "white w1 genus 0\nblack b1\nedge e1 w1 b1 1\nedge e2 w1 b1 2\n"


def setup(text, sigma):
    g = parse_graph(text)
    t = canonical_tree(g)
    gog = GraphOfGroups(g, t, sigma)
    pres = natural_presentation(g, t)
    return gog, pres


def run(gog, pres, word_text):
    lw = to_loop_word(gog, parse_word(word_text, pres))
    return lw, solve(gog, lw)


def test_trivial_and_nontrivial_on_disk():
    gog, pres = setup(Z3, {"b1": 3})
    _, v = run(gog, pres, "b.b1^3")
    assert v.trivial and v.reduced_length == 0
    _, v = run(gog, pres, "b.b1")
    assert not v.trivial
    assert v.label == "nontrivial"


def test_reduced_nontrivial_loop_keeps_positive_length():
    gog, pres = setup(Z3, {"b1": 3})
    _, v = run(gog, pres, "b.b1^2")
    assert not v.trivial and v.reduced_length == 2


def test_each_splice_shortens_by_exactly_two():
    gog, pres = setup(BS, {"b1": 0})
    lw = to_loop_word(gog, parse_word("t.e2^-1 * c.e2 * t.e2 * b.b1^-2", pres))
    lengths = [lw.edge_length]
    cur = lw
    while True:
        step = reduce_once(gog, cur)
        if step is None:
            break
        cur, _ = step
        lengths.append(cur.edge_length)
    for a, b in zip(lengths, lengths[1:]):
        assert a - b == 2
    assert cur.edge_length == 0


def test_relator_trivial_and_stable_letter_not():
    gog, pres = setup(BS, {"b1": 0})
    _, v = run(gog, pres, "t.e2^-1 * c.e2 * t.e2 * b.b1^-2")
    assert v.trivial
    _, v = run(gog, pres, "t.e2")
    assert not v.trivial
    _, v = run(gog, pres, "b.b1^3")
    assert not v.trivial  # sigma = 0: b has infinite order


def test_trace_replays(fixtures):
    for name, g in fixtures.items():
        c = compile(g)
        for r in c.pres.relators:
            lw = to_loop_word(c.gog, r)
            v = solve(c.gog, lw)
            assert v.trivial, (name, r)
            assert replay_trace(c.gog, lw, v), (name, r)


def test_replay_rejects_tampered_trace():
    gog, pres = setup(BS, {"b1": 0})
    lw, v = run(gog, pres, "t.e2^-1 * c.e2 * t.e2 * b.b1^-2")
    assert v.trivial and replay_trace(gog, lw, v)
    from dataclasses import replace

    bad = replace(v, trace=(replace(v.trace[0], witness=v.trace[0].witness + 1),)
                  + v.trace[1:])
    assert not replay_trace(gog, lw, bad)
    bad2 = replace(v, reduced_length=v.reduced_length + 2)
    assert not replay_trace(gog, lw, bad2)


def test_word_problem_pipeline(fixtures):
    assert word_problem(fixtures["FX-Z3"], "b.b1^3").trivial
    assert not word_problem(fixtures["FX-Z3"], "b.b1").trivial
    assert word_problem(fixtures["FX-S2W"], "b.b1").trivial
    assert not word_problem(fixtures["FX-BS"], "t.e2").trivial
    assert word_problem(fixtures["FX-ORB"], "b.b1^2").trivial
    assert not word_problem(fixtures["FX-ORB"], "b.b1").trivial


def test_word_problem_budget_exhaustion(fixtures):
    with pytest.raises(UndeterminedError) as exc:
        word_problem(fixtures["FX-ORB"], "b.b1^2", budget=Budget.parse("1,8"))
    assert "b1" in str(exc.value)
