import random
from collections import Counter
from itertools import combinations

import pytest
from test_acceptance import _random_valid_graph

import stratisolve.decisions as decisions
import stratisolve.serre_solver as serre_solver
from stratisolve.decisions import (
    _screen,
    is_abelian,
    is_simply_connected,
    prune,
    wedge_check,
    zero_terminal_order,
)
from stratisolve.errors import (
    NotApplicableError,
    NotZeroTerminalError,
    UndeterminedError,
)
from stratisolve.graph_model import parse_graph
from stratisolve.oracle import Budget
from stratisolve.pipeline import compile


def test_is_abelian(fixtures):
    assert is_abelian(fixtures["FX-Z3"])
    assert is_abelian(fixtures["FX-TOR"])
    assert is_abelian(fixtures["FX-RP2"])
    assert not is_abelian(fixtures["FX-BS"])
    assert not is_abelian(fixtures["FX-KLB"])
    assert not is_abelian(fixtures["FX-TRI(2,3,5)"])


def test_zero_terminal_order(fixtures):
    assert zero_terminal_order(fixtures["FX-Z3"], "b1") == 3
    assert zero_terminal_order(fixtures["FX-S2W"], "b1") == 1
    assert zero_terminal_order(fixtures["FX-ORB"], "b1") == 2
    with pytest.raises(NotZeroTerminalError):
        zero_terminal_order(fixtures["FX-BS"], "b1")


def test_zero_terminal_order_reads_the_resolved_orders(fixtures, monkeypatch):
    import stratisolve.decisions as decisions

    def refuse(*args):
        raise AssertionError("the order is read off the resolved orders")

    monkeypatch.setattr(decisions, "solve", refuse)
    assert zero_terminal_order(fixtures["FX-Z3"], "b1") == 3
    assert zero_terminal_order(fixtures["FX-S2W"], "b1") == 1
    assert zero_terminal_order(fixtures["FX-ORB"], "b1") == 2


def test_prune_success(fixtures):
    report = prune(fixtures["FX-S2W"])
    assert report.success
    assert [s.action for s in report.steps] == ["delete"]
    assert report.steps[0].order == 1
    assert all(not c.edges for c in report.final_components)


def test_prune_stops_on_nontrivial_order(fixtures):
    report = prune(fixtures["FX-Z3"])
    assert not report.success
    assert report.steps[-1].action == "stop"
    assert report.steps[-1].order == 3


def test_prune_not_applicable(fixtures):
    with pytest.raises(NotApplicableError):
        prune(fixtures["FX-TOR"])  # positive genus
    with pytest.raises(NotApplicableError):
        prune(fixtures["FX-BS"])  # not a tree


def test_prune_terminal_edge_condition():
    # a black leaf hanging off a non-terminal white fails the screen
    g = parse_graph(
        "white w1 genus 0\nwhite w2 genus 0\nblack b1\nblack b2\n"
        "edge e1 w1 b1 3\nedge e2 w2 b1 1\nedge e3 w2 b2 3\n"
    )
    # here both blacks have a terminal white (w1 for b1? w1 deg 1 yes);
    # check structure: e3 is terminal at b2 only if b2 has degree 1 and w2
    # degree > 1 -> screen failure
    with pytest.raises(NotApplicableError) as exc:
        prune(g)
    assert "e3" in str(exc.value)


def test_prune_multi_step():
    # chain: w1 - b1 - w2 - b2 - w3, disks everywhere, unit orders
    g = parse_graph(
        "white w1 genus 0\nwhite w2 genus 0\nwhite w3 genus 0\n"
        "black b1\nblack b2\n"
        "edge e1 w1 b1 1\nedge e2 w2 b1 3\nedge e3 w2 b2 3\nedge e4 w3 b2 1\n"
    )
    report = prune(g)
    assert report.success
    assert len(report.steps) == 2
    assert {s.action for s in report.steps} == {"delete"}
    assert is_simply_connected(g)


def test_is_simply_connected(fixtures):
    assert is_simply_connected(fixtures["FX-S2W"])
    assert not is_simply_connected(fixtures["FX-Z3"])
    assert not is_simply_connected(fixtures["FX-RP2"])
    assert not is_simply_connected(fixtures["FX-BS"])


def test_wedge_check(fixtures):
    assert wedge_check(fixtures["FX-S2W"]) == 1
    assert wedge_check(fixtures["FX-Z3"]) is None
    assert wedge_check(fixtures["FX-TOR"]) is None


def test_wedge_check_bare_sphere():
    g = parse_graph(
        "white w1 genus 0\nwhite w2 genus 0\nblack b1\n"
        "edge e1 w1 b1 1\nedge e2 w2 b1 2\n"
    )
    assert wedge_check(g) == 1


def test_decisions_ask_words_of_the_generators_that_generate(fixtures, monkeypatch):
    def refuse(*args):
        raise AssertionError("the decision went through the text grammar")

    s2w = fixtures["FX-S2W"]
    with monkeypatch.context() as m:
        m.setattr(serre_solver, "parse_word", refuse)
        assert is_abelian(fixtures["FX-TOR"])
        assert not is_abelian(fixtures["FX-ORB"])
        assert is_simply_connected(s2w)
        assert wedge_check(s2w) == 1
    with monkeypatch.context() as m:
        m.setattr(decisions, "solve", refuse)  # sc reads the circle orders
        assert is_simply_connected(s2w)
        assert wedge_check(s2w) == 1

    calls = []

    def counting(*args):
        calls.append(args)
        return serre_solver.solve(*args)

    monkeypatch.setattr(decisions, "solve", counting)
    # the torus keeps only [y1, y2]; Z/3's one circle makes it cyclic
    assert is_abelian(fixtures["FX-TOR"]) and len(calls) == 1
    calls.clear()
    assert is_abelian(fixtures["FX-Z3"]) and not calls


def _outcome(decide, g, budget):
    try:
        return decide(g, budget)
    except Exception as exc:  # the class is the outcome
        return type(exc)


def test_decisions_agree_with_their_definitions(fixtures):
    """Abelian: every pair of natural generators commutes; simply connected:
    the screen passes and every natural generator is trivial.  Each word is
    written as text and decided by ``word_problem``."""

    def trivial(g, text, budget):
        return serre_solver.word_problem(g, text, budget).trivial

    def abelian(g, budget):
        gens = compile(g, budget).pres.generators
        return all(trivial(g, f"{a} * {b} * {a}^-1 * {b}^-1", budget)
                   for a, b in combinations(gens, 2))

    def sc(g, budget):
        return _screen(g) is None and all(
            trivial(g, x, budget) for x in compile(g, budget).pres.generators)

    # a screened pair of pants whose circles have orders 1, 2 and 2
    pants = parse_graph(
        "white p genus 0\nwhite d1 genus 0\nwhite d2 genus 0\n"
        "white d3 genus 0\nblack b1\nblack b2\nblack b3\n"
        "edge e1 p b1 2\nedge e2 p b2 1\nedge e3 p b3 1\n"
        "edge f1 d1 b1 1\nedge f2 d2 b2 2\nedge f3 d3 b3 2\n"
    )
    rng = random.Random(11)
    graphs = [*fixtures.values(), pants]
    while len(graphs) < len(fixtures) + 151:
        g = _random_valid_graph(rng)
        if g is not None:
            graphs.append(g)
    budget = Budget(6, 64, 300)
    reached = Counter()
    for g in graphs:
        gens = compile(g, budget).pres.generators
        ab = _outcome(is_abelian, g, budget)
        assert ab == _outcome(abelian, g, budget)
        simple = _outcome(is_simply_connected, g, budget)
        assert simple == _outcome(sc, g, budget)
        reached["abelian with t."] += ab is True and any(x[0] == "t" for x in gens)
        reached["y."] += any(x[0] == "y" for x in gens)
        reached["undetermined"] += ab is UndeterminedError
        reached["simply connected"] += simple is True
    # the pool reaches every branch of both definitions
    assert min(reached.values()) > 0, reached
