import pytest

from stratisolve.decisions import (
    is_abelian,
    is_simply_connected,
    prune,
    wedge_check,
    zero_terminal_order,
)
from stratisolve.errors import NotApplicableError, NotZeroTerminalError
from stratisolve.graph_model import parse_graph


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

    monkeypatch.setattr(decisions, "word_problem", refuse)
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
