import ast
from functools import lru_cache
from pathlib import Path

import pytest

import stratisolve
from stratisolve import gog as gog_module, pipeline
from stratisolve.cli import run
from stratisolve.decisions import is_abelian
from stratisolve.errors import WordSyntaxError
from stratisolve.gog import GraphOfGroups
from stratisolve.oracle import DEFAULT_BUDGET, Budget
from stratisolve.order_engine import resolve_orders
from stratisolve.pipeline import compile
from stratisolve.serre_solver import word_problem


def _unseen(g, tree_edge):
    """The same group under a memo key no other test uses: the label of a
    tree edge negated, which the pipeline normalizes back."""
    return g.replace_labels({tree_edge: -g.edge(tree_edge).label})


@pytest.fixture
def empty_memo(monkeypatch):
    """An empty memo; the shared memo is left as it was."""
    monkeypatch.setattr(
        pipeline, "_compile", lru_cache(maxsize=256)(pipeline.CompiledStratifold)
    )


@pytest.fixture
def no_order_search(empty_memo, monkeypatch):
    """An empty memo whose order search refuses to run."""

    def refuse(pres, budget):
        raise AssertionError("order resolution was not expected here")

    monkeypatch.setattr(pipeline, "certify_orders", refuse)


@pytest.fixture
def gog_builds(monkeypatch):
    calls = []
    original = GraphOfGroups.__init__

    def counting(self, *args, **kwargs):
        calls.append(args[0])
        original(self, *args, **kwargs)

    monkeypatch.setattr(GraphOfGroups, "__init__", counting)
    return calls


def test_compile_applies_the_default_budget(fixtures):
    g = fixtures["FX-Z3"]
    assert compile(g) is compile(g, DEFAULT_BUDGET)
    assert compile(g).budget == DEFAULT_BUDGET
    assert compile(g, Budget.parse("1,8")) is not compile(g)


def test_compile_normalizes_tree_edge_labels(fixtures):
    g = _unseen(fixtures["FX-BS"], "e1")
    c = compile(g)
    assert g.edge("e1").label == -1 and c.pres.graph.edge("e1").label == 1


def test_presentation_and_word_errors_skip_order_search(
    fixtures, no_order_search, capsys
):
    g = fixtures["FX-BS"]
    assert "t.e2" in compile(g).pres.generators
    with pytest.raises(WordSyntaxError):
        word_problem(g, "t.e2^^")
    path = str(stratisolve.fixture_path("FX-BS"))
    assert run(["--json", "present", path]) == 0
    assert run(["--json", "oracle", path, "tc"]) == 0
    assert run(["--json", "oracle", path, "derive", "b.b1"]) == 0


def test_graph_of_groups_built_once_per_graph_and_budget(fixtures, gog_builds):
    assert is_abelian(_unseen(fixtures["FX-S2W"], "e2"))
    assert len(gog_builds) == 1
    g7 = _unseen(fixtures["FX-TRI(2,3,7)"], "f3")
    for k in range(1, 11):
        word_problem(g7, f"c.e1^{k} * c.e2")
    assert len(gog_builds) == 2
    word_problem(g7, "c.e1", Budget.parse("6,64"))  # the default, spelled out
    assert len(gog_builds) == 2
    word_problem(g7, "c.e1", Budget.parse("5,64"))
    assert len(gog_builds) == 3


def test_each_white_is_classified_once_per_compile(
    fixtures, empty_memo, monkeypatch
):
    """The validity fixpoint reads boundary orders off genus and curve
    orders; only the graph of groups classifies, each white once."""
    kinds = []
    original = gog_module.white_handle

    def spy(spec):
        wh = original(spec)
        kinds.append((spec.boundary_names, type(wh.handle).__name__))
        return wh

    monkeypatch.setattr(gog_module, "white_handle", spy)
    c = compile(fixtures["FX-TRI(2,3,7)"])
    assert c.orders.sigma == {"b1": 2, "b2": 3, "b3": 7}
    assert kinds == []
    c.gog
    assert len(kinds) == len(set(kinds)) == 4
    assert [k for _, k in kinds].count("TriangleHandle") == 1


def test_shared_orders_are_read_only(fixtures):
    g = fixtures["FX-Z3"]
    oa = resolve_orders(g)
    with pytest.raises(TypeError):
        oa.sigma["b1"] = 1
    with pytest.raises(TypeError):
        oa.certificates["b1"] = None
    with pytest.raises(TypeError):
        oa.ab_evidence["b1"] = 1
    gog = compile(g).gog
    with pytest.raises(TypeError):
        gog.sigma["b1"] = 1
    with pytest.raises(TypeError):
        gog.white_handles["w1"].boundary_images["c.e1"] = (("c.e1", 1),)
    assert oa.sigma == {"b1": 3}
    assert not word_problem(g, "b.b1").trivial


def test_no_assert_statements_in_the_package():
    """Decisions must not depend on checks that ``python -O`` removes."""
    root = Path(stratisolve.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
