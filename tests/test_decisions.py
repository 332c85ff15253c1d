import random
from collections import Counter
from itertools import combinations

import pytest
from test_acceptance import _random_valid_graph

import stratisolve.decisions as decisions
import stratisolve.graph_model as graph_model
import stratisolve.serre_solver as serre_solver
from stratisolve.decisions import (
    PruneReport,
    PruneStep,
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
from stratisolve.graph_model import StratifoldGraph, parse_graph, serialize_graph
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


def _screened_tree(rng, max_blacks):
    """A random tree that passes the screen: genus-0 whites, each black hung
    off a placed white with one to three new white leaves."""
    lines, whites = ["white w0 genus 0"], ["w0"]
    for i in range(1, rng.randint(1, max_blacks) + 1):
        ends = [rng.choice(whites)]
        for _ in range(rng.randint(1, 3)):
            ends.append(f"w{len(whites)}")
            whites.append(ends[-1])
            lines.append(f"white {ends[-1]} genus 0")
        labels = [0]
        while sum(map(abs, labels)) < 3:
            labels = [rng.choice((1, -1, 2, 3)) for _ in ends]
        lines.append(f"black b{i}")
        lines += [f"edge e{i}{w} {w} b{i} {m}" for w, m in zip(ends, labels)]
    return parse_graph("\n".join(lines) + "\n")


# w1 is a disk on b1 (order 1); once it goes, b2 is capped by two label-3
# disks, so the second step stops on order 3
_DELETE_THEN_STOP = parse_graph(
    "white w1 genus 0\nwhite w2 genus 0\nwhite w3 genus 0\n"
    "black b1\nblack b2\n"
    "edge e1 w1 b1 1\nedge e2 w2 b1 2\nedge e3 w2 b2 3\nedge e4 w3 b2 3\n"
)


def test_decisions_compile_each_graph_once(fixtures, monkeypatch):
    """``prune`` reads every order off the graph it is given, compiled once,
    and ``sc`` and ``wedge`` read the same orders without pruning."""
    multi = parse_graph(
        "white w1 genus 0\nwhite w2 genus 0\nwhite w3 genus 0\n"
        "black b1\nblack b2\n"
        "edge e1 w1 b1 1\nedge e2 w2 b1 3\nedge e3 w2 b2 3\nedge e4 w3 b2 1\n"
    )

    def refuse(*args):
        raise AssertionError("a pruning step compiled its component")

    with monkeypatch.context() as m:
        m.setattr(decisions, "zero_terminal_order", refuse)
        assert prune(fixtures["FX-S2W"]).success
        assert not prune(fixtures["FX-Z3"]).success
        assert len(prune(multi).steps) == 2
        assert is_simply_connected(fixtures["FX-S2W"])
        assert wedge_check(fixtures["FX-S2W"]) == 1
    seen = []

    def counting(g, budget=None):
        seen.append(g)
        return compile(g, budget)

    monkeypatch.setattr(decisions, "compile", counting)
    for g in (fixtures["FX-S2W"], fixtures["FX-Z3"], multi, _DELETE_THEN_STOP):
        seen.clear()
        prune(g)
        assert seen == [g]


def _old_prune(g, budget=None):
    """The pruning procedure as first defined: each step compiles its
    component and asks ``zero_terminal_order`` there."""
    reason = _screen(g)
    if reason is not None:
        raise NotApplicableError(reason)
    steps, pending, finals = [], [g], []
    while pending:
        comp = pending.pop()
        if not comp.edges:
            finals.append(comp)
            continue
        white = next(w for w in comp.white_names()
                     if len(comp.edges_at_white(w)) == 1)
        black = comp.edges_at_white(white)[0].black
        order = zero_terminal_order(comp, black, budget)
        if order != 1:
            steps.append(PruneStep(black, white, order, "stop"))
            return PruneReport(tuple(steps), (*finals, comp, *pending), False)
        steps.append(PruneStep(black, white, order, "delete"))
        pending.extend(decisions._components(
            tuple(x for x in comp.whites if x.name != white),
            tuple(x for x in comp.blacks if x.name != black),
            tuple(e for e in comp.edges if e.black != black)))
    return PruneReport(tuple(steps), tuple(finals),
                       all(not c.edges for c in finals))


def _prune_outcome(decide, g, budget):
    try:
        r = decide(g, budget)
    except Exception as exc:  # the class and message are the outcome
        return type(exc), str(exc)
    return (r.steps, tuple(serialize_graph(c) for c in r.final_components),
            r.success)


def test_prune_agrees_with_its_old_definition(fixtures):
    # a small budget keeps the failed searches of undetermined trees cheap
    rng, small = random.Random(28), Budget(4, 40, 20)
    graphs = [(g, None) for g in (*fixtures.values(), _DELETE_THEN_STOP)]
    graphs += [(_screened_tree(rng, 5), small) for _ in range(200)]
    reached = Counter({"multi-step success": 0, "stop after step 1": 0})
    for g, budget in graphs:
        outcome = _prune_outcome(prune, g, budget)
        assert outcome == _prune_outcome(_old_prune, g, budget), serialize_graph(g)
        if len(outcome) == 3:
            steps, _, success = outcome
            reached["multi-step success"] += success and len(steps) > 1
            reached["stop after step 1"] += not success and len(steps) > 1
    assert min(reached.values()) > 0, reached


def test_prune_splits_components_without_validating_them(fixtures, monkeypatch):
    """A component of a valid tree minus a deleted terminal pair is valid,
    so ``prune`` builds it without ``_validate``."""
    multi = _screened_tree(random.Random(29), 5)
    graphs = (fixtures["FX-S2W"], _DELETE_THEN_STOP, multi)
    expected = [_prune_outcome(prune, g, None) for g in graphs]
    assert len(expected[2][0]) > 1 and expected[2][2]

    def refuse(*args):
        raise AssertionError("a pruning step validated its component")

    monkeypatch.setattr(graph_model, "_validate", refuse)
    assert [_prune_outcome(prune, g, None) for g in graphs] == expected


def test_decisions_scan_no_graph_per_vertex(fixtures, monkeypatch):
    """The screen and the decisions read each vertex's edges from one
    grouping of the edges, not from a scan of the graph per vertex."""
    graphs = (*fixtures.values(), _DELETE_THEN_STOP)

    def outcomes():
        return [(_screen(g), _prune_outcome(prune, g, None),
                 _outcome(is_simply_connected, g, None),
                 _outcome(wedge_check, g, None)) for g in graphs]

    expected = outcomes()

    def refuse(*args):
        raise AssertionError("a decision scanned the graph per vertex")

    for name in ("edges_at_white", "edges_at_black", "white"):
        monkeypatch.setattr(StratifoldGraph, name, refuse)
    assert outcomes() == expected
