import random

import pytest

from stratisolve.errors import UndeterminedError
from stratisolve.gog import GraphOfGroups, LoopWord, to_loop_word
from stratisolve.graph_model import canonical_tree, parse_graph
from stratisolve.oracle import Budget
from stratisolve.pipeline import compile
from stratisolve.presentation import natural_presentation, parse_word
from stratisolve.serre_solver import (
    SpliceStep,
    _splice,
    reduce_once,
    replay_trace,
    solve,
    word_problem,
)
from stratisolve.words import concat, inverse, power

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
    vs, ws, es = [lw.vertices[0]], [lw.vertex_words[0]], []
    splices = 0
    for de, v, w in zip(lw.edges, lw.vertices[1:], lw.vertex_words[1:]):
        es.append(de)
        vs.append(v)
        ws.append(w)
        before = len(es)
        if reduce_once(gog, vs, ws, es) is not None:
            splices += 1
            assert before - len(es) == 2
    assert len(es) == 0 and splices == lw.edge_length // 2


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
    bad = v._replace(trace=(v.trace[0]._replace(witness=v.trace[0].witness + 1),)
                     + v.trace[1:])
    assert not replay_trace(gog, lw, bad)
    bad2 = v._replace(reduced_length=v.reduced_length + 2)
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


def _leftmost_restart(gog, lw):
    """Reference reduction: splice the leftmost reducible pair, then rescan
    the loop from the left."""
    vs, ws, es = list(lw.vertices), list(lw.vertex_words), list(lw.edges)
    trace, i = [], 0
    while i + 1 < len(es):
        de = es[i]
        mid_end = "black" if de.to_black else "white"
        s = None
        if es[i + 1] == de.reverse():
            s = gog.edge_membership(de.edge, mid_end, ws[i + 1])
        if s is None:
            i += 1
            continue
        trace.append(SpliceStep(i, de.edge, mid_end, s))
        _splice(gog, vs, ws, es, i, s)
        i = 0
    trivial = not es and gog.vertex_handle(gog.basepoint).wp(ws[0])
    return trivial, len(es), tuple(trace), LoopWord(tuple(vs), tuple(ws), tuple(es))


def _disk_capped_chain(links):
    """Genus-1 whites w_{i-1} -1- b_i -1- w_i, each b_i capped by a label-2
    disk."""
    lines = [f"white w{i} genus 1" for i in range(links + 1)]
    lines += [f"white d{i} genus 0" for i in range(1, links + 1)]
    lines += [f"black b{i}" for i in range(1, links + 1)]
    for i in range(1, links + 1):
        lines += [f"edge l{i} w{i - 1} b{i} 1", f"edge r{i} w{i} b{i} 1",
                  f"edge k{i} d{i} b{i} 2"]
    return parse_graph("\n".join(lines) + "\n")


def test_stack_pass_matches_leftmost_restart(fixtures, monkeypatch):
    graphs = {"chain8": _disk_capped_chain(8), **fixtures}
    rng = random.Random(8)
    compared = 0
    for name, g in graphs.items():
        c = compile(g)
        gens = c.pres.generators
        words = list(c.pres.relators)
        for _ in range(70 if name in ("chain8", "FX-BS", "FX-ORB") else 0):
            # a conjugated relator makes long splice cascades, a random word
            # a mix of spliced and surviving pairs
            r = rng.choice(c.pres.relators)
            u = tuple((rng.choice(gens), rng.choice((-1, 1))) for _ in range(4))
            words.append(concat(u, power(r, rng.choice((-1, 1))), inverse(u)))
            words.append(tuple((rng.choice(gens), rng.choice((-2, -1, 1, 2)))
                               for _ in range(rng.randint(1, 12))))
        calls = [0]
        membership = c.gog.edge_membership

        def counted(*args):
            calls[0] += 1
            return membership(*args)

        monkeypatch.setattr(c.gog, "edge_membership", counted)
        for w in words:
            lw = to_loop_word(c.gog, w)
            calls[0] = 0
            expected = _leftmost_restart(c.gog, lw)
            reference_calls = calls[0]
            calls[0] = 0
            v = solve(c.gog, lw)
            assert (v.trivial, v.reduced_length, v.trace, v.final_loop) == \
                expected, (name, w)
            assert calls[0] <= reference_calls, (name, w)
            compared += 1
        monkeypatch.undo()
    assert compared >= 3 * 140 + 9


def test_dotted_white_surface_letters():
    # a white whose name has a dot: its surface letters are y.a.b.1, y.a.b.2
    g = parse_graph("white a.b genus 1\nwhite d genus 0\nblack b1\n"
                    "edge e1 a.b b1 1\nedge e2 d b1 2\n")
    pres = compile(g).pres
    assert parse_word("y.a.b.1", pres) == (("y.a.b.1", 1),)
    assert not word_problem(g, "y.a.b.1").trivial
    # a conjugate of the white's relator c.e1 [y1, y2]
    assert word_problem(
        g, "y.a.b.1 * y.a.b.2 * y.a.b.1^-1 * y.a.b.2^-1 * c.e1").trivial
