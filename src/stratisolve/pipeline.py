"""One compiled pipeline per input graph.

The decision procedure runs in a fixed order: canonical maximal tree,
tree-edge labels made positive, natural presentation, singular-circle
orders, graph of groups.  ``compile`` builds the first three eagerly (they
are cheap and every command needs them) and the last two on first use, so
commands that only present the group, or that reject a malformed word,
never pay for the order search.  ``compile`` memoizes whole pipelines
(256 entries): resolution is deterministic in (graph, budget) and the
certificate search dominates the cost of the pipeline.  Below it, the
exact-field ``cyclotomic_polynomial`` and ``minimal_polynomial`` are
memoized too.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .gog import GraphOfGroups
from .graph_model import StratifoldGraph, canonical_tree, normalize_orientations
from .oracle import DEFAULT_BUDGET, Budget
from .order_engine import OrderAssignment, certify_orders
from .presentation import Presentation, natural_presentation


class CompiledStratifold:
    """The presentation of one graph, which carries the tree and the graph
    with every tree-edge label made positive, plus the orders and the graph
    of groups, built on first use."""

    def __init__(self, g: StratifoldGraph, budget: Budget):
        tree = canonical_tree(g)
        g_norm, _ = normalize_orientations(g, tree)
        self.pres: Presentation = natural_presentation(g_norm, tree)
        self.budget = budget

    @cached_property
    def orders(self) -> OrderAssignment:
        return certify_orders(self.pres, self.budget)

    @cached_property
    def gog(self) -> GraphOfGroups:
        """Raises UndeterminedError unless the orders are exact."""
        self.orders.require_exact()
        return GraphOfGroups(self.pres.graph, self.pres.tree, self.orders.sigma)


def compile(g: StratifoldGraph, budget: Budget | None = None) -> CompiledStratifold:
    """The compiled pipeline of ``g``, shared by every caller in the process."""
    return _compile(g, budget or DEFAULT_BUDGET)


_compile = lru_cache(maxsize=256)(CompiledStratifold)
