"""Value semantics of the result and record classes.

Every record is immutable, and two records built from equal fields are
equal; those that were ever hashable also hash equal, so the memos keyed on
graphs, budgets and white-group specs keep answering for equal keys.
"""

import pytest

from stratisolve import load_fixture
from stratisolve.decisions import prune
from stratisolve.fgroup_handles import WhiteGroupSpec, WhiteHandle, white_handle
from stratisolve.gog import GraphOfGroups, to_loop_word
from stratisolve.graph_model import MaximalTree, canonical_tree
from stratisolve.local_groups import FreeProductOfCyclics
from stratisolve.oracle import (
    Budget,
    derive_trivial,
    finite_quotient_search,
    todd_coxeter,
)
from stratisolve.order_engine import certify_orders
from stratisolve.pipeline import compile
from stratisolve.presentation import abelianization, natural_presentation, parse_word
from stratisolve.serre_solver import solve

RECORDS = (
    "WhiteVertex", "BlackVertex", "Edge", "StratifoldGraph", "MaximalTree",
    "Presentation", "Abelianization", "Budget", "DerivStep", "Derivation",
    "CosetTable", "QuotientHom", "WhiteGroupSpec", "WhiteHandle",
    "FreeProductOfCyclics", "OrderAssignment", "DirectedEdge", "LoopWord",
    "SpliceStep", "Verdict", "PruneStep", "PruneReport",
)
UNHASHABLE = {"CosetTable", "WhiteHandle", "OrderAssignment"}


def _records():
    """One record of every class, each built afresh on every call."""
    g = load_fixture("FX-Z3")
    tree = canonical_tree(g)
    pres = natural_presentation(g, tree)
    gog = GraphOfGroups(g, tree, {"b1": 3})
    loop = to_loop_word(gog, parse_word("b.b1^3", pres))
    verdict = solve(gog, loop)
    deriv = derive_trivial(pres, (("b.b1", 3),))
    spec = WhiteGroupSpec(("c.e1", "c.e2"), (2, 3), 0, ())
    handle = white_handle(spec)
    report = prune(load_fixture("FX-S2W"))
    records = [
        g.whites[0], g.blacks[0], g.edges[0], g, tree, pres,
        abelianization(pres), Budget.parse("4,32"), deriv.steps[0], deriv,
        todd_coxeter(pres), finite_quotient_search(pres, 3)[0], spec,
        WhiteHandle(handle.handle, dict(handle.boundary_images)),
        FreeProductOfCyclics((("a", 2), ("x", 0))),
        certify_orders(pres, Budget()), loop.edges[0], loop, verdict.trace[0],
        verdict, report.steps[0], report,
    ]
    return {type(r).__name__: r for r in records}


def test_every_record_class_is_covered():
    assert sorted(_records()) == sorted(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_give_equal_records(name):
    a, b = _records()[name], _records()[name]
    assert a is not b and a == b
    if name not in UNHASHABLE:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable(name):
    record = _records()[name]
    fields = record._fields if hasattr(record, "_fields") else tuple(vars(record))
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_maximal_tree_hash_ignores_the_parent_map():
    a = MaximalTree("w1", frozenset({"e1"}), {"b1": ("w1", "e1")})
    b = MaximalTree("w1", frozenset({"e1"}), dict(a.parent))
    assert a == b and hash(a) == hash(b)


def test_equal_specs_share_one_white_handle():
    spec = WhiteGroupSpec(("c.e1", "c.e2", "c.e3"), (2, 3, 7), 0, ())
    again = WhiteGroupSpec(tuple(spec.boundary_names), (2, 3, 7), 0, ())
    assert white_handle(spec) is white_handle(again)


def test_an_equal_budget_finds_the_same_compiled_pipeline(fixtures):
    g = fixtures["FX-Z3"]
    assert compile(g, Budget.parse("6,64")) is compile(g)


def test_order_assignment_maps_are_read_only(fixtures):
    oa = compile(fixtures["FX-Z3"]).orders
    with pytest.raises(TypeError):
        oa.sigma["b1"] = 1
    with pytest.raises(AttributeError):
        oa.sigma = {"b1": 1}
    assert oa.sigma == {"b1": 3}
