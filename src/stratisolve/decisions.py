"""Decision corollaries built on the word-problem solver.

* abelianness: a generating set commutes pairwise, each commutator a word
  decided in the compiled graph of groups;
* order of a black vertex on a 0-terminal edge (terminal genus-0 white);
* simple connectivity of a graph passing the necessary-condition screen
  (tree, all whites genus 0, all terminal vertices white): every certified
  circle order is 1;
* wedge recognition: a simply-connected stratifold is homotopy equivalent
  to a wedge of (#whites - #blacks) 2-spheres.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import NamedTuple

from .errors import InternalError, NotApplicableError, NotZeroTerminalError
from .gog import to_loop_word
from .graph_model import StratifoldGraph, breadth_first, edges_by_white
from .pipeline import compile
from .serre_solver import solve


def is_abelian(g: StratifoldGraph, budget=None) -> bool:
    """True iff the ``y.`` and ``t.`` generators and the circles of order
    other than 1 commute; they generate the group, as each curve is ``b^m``
    or ``t b^m t^-1``.  Raises UndeterminedError when orders are uncertified."""
    compiled = compile(g, budget)
    gog = compiled.gog
    gens = [x for x in compiled.pres.generators
            if x[0] in "yt" or x[0] == "b" and gog.sigma[x[2:]] != 1]
    return all(solve(gog, to_loop_word(gog, ((a, 1), (b, 1), (a, -1), (b, -1))))
               .trivial for a, b in combinations(gens, 2))


def zero_terminal_order(g: StratifoldGraph, black: str, budget=None) -> int:
    """Order of the black vertex generator when b carries a 0-terminal edge
    (to a terminal genus-0 white).  The disk makes the order finite, and
    the resolved orders certify it exactly.  Raises UndeterminedError when
    orders cannot be certified."""
    if not any(
        g.white(e.white).genus == 0 and len(g.edges_at_white(e.white)) == 1
        for e in g.edges_at_black(black)
    ):
        raise NotZeroTerminalError(
            f"black vertex {black!r} has no terminal genus-0 white neighbour"
        )
    orders = compile(g, budget).orders
    orders.require_exact()
    return orders.sigma[black]


class PruneStep(NamedTuple):
    black: str
    white: str
    order: int
    action: str  # 'delete' | 'stop'


class PruneReport(NamedTuple):
    steps: tuple[PruneStep, ...]
    final_components: tuple[StratifoldGraph, ...]
    success: bool


def _screen(g: StratifoldGraph):
    """The necessary conditions for simple connectivity; None if all hold,
    else a description of the first failure."""
    if len(g.edges) != len(g.whites) + len(g.blacks) - 1:
        return "graph is not a tree"
    for w in g.whites:
        if w.genus != 0:
            return f"white vertex {w.name!r} has genus {w.genus} != 0"
    at, black_degree = edges_by_white(g), Counter(e.black for e in g.edges)
    for e in g.edges:
        # a terminal edge must end in a terminal white vertex
        if black_degree[e.black] == 1 and len(at[e.white]) > 1:
            return f"terminal edge {e.name!r} ends in black vertex {e.black!r}"
    return None


def _components(whites, blacks, edges) -> tuple[StratifoldGraph, ...]:
    comps: list[set[str]] = []
    names = [w.name for w in whites] + [b.name for b in blacks]
    for v, link in breadth_first(names, edges, sorted(names)).items():
        if link is None:  # a root starts the next component
            comps.append(set())
        comps[-1].add(v)
    # valid and in name order, not validated again: a black left keeps its edges
    # and sheets, a deleted white had one edge, to the deleted black, BFS connects
    return tuple(
        StratifoldGraph._sorted_and_valid(
            tuple(w for w in whites if w.name in comp),
            tuple(b for b in blacks if b.name in comp),
            tuple(e for e in edges if e.white in comp),
        )
        for comp in comps
    )


def prune(g: StratifoldGraph, budget=None) -> PruneReport:
    """Repeatedly read the order at a 0-terminal pair; delete the pair when
    the order is 1, stop otherwise.  Success means every surviving
    component is edgeless.  Each order is read off ``g``, compiled once: a
    deleted circle has order 1, so adding it as a relator splits the group
    into the free product of the components left, and a free factor embeds
    (Lyndon-Schupp, free products)."""
    reason = _screen(g)
    if reason is not None:
        raise NotApplicableError(reason)
    orders = compile(g, budget).orders
    orders.require_exact()
    steps: list[PruneStep] = []
    pending = [g]
    finals: list[StratifoldGraph] = []
    while pending:
        comp = pending.pop()
        if not comp.edges:
            finals.append(comp)
            continue
        # a tree whose terminals are all white has a 0-terminal pair
        for white, edges in edges_by_white(comp).items():
            if len(edges) == 1:
                break
        else:
            raise InternalError("tree with white terminals lost its leaves")
        black = edges[0].black
        order = orders.sigma[black]
        if order != 1:
            steps.append(PruneStep(black, white, order, "stop"))
            finals.append(comp)
            return PruneReport(tuple(steps), tuple(finals + pending), False)
        steps.append(PruneStep(black, white, order, "delete"))
        pending.extend(_components(
            tuple(x for x in comp.whites if x.name != white),
            tuple(x for x in comp.blacks if x.name != black),
            tuple(e for e in comp.edges if e.black != black)))
    success = all(not c.edges for c in finals)
    return PruneReport(tuple(steps), tuple(finals), success)


def is_simply_connected(g: StratifoldGraph, budget=None) -> bool:
    """True iff the screen passes and every certified circle order is 1: a
    screened graph is a tree of genus-0 whites, and its circles generate its
    group (each ``c = b^m``), so ``prune`` succeeds exactly when this holds."""
    if _screen(g) is not None:
        return False
    orders = compile(g, budget).orders
    orders.require_exact()
    return all(s == 1 for s in orders.sigma.values())


def wedge_check(g: StratifoldGraph, budget=None):
    """Number of 2-spheres in the wedge when simply connected, else None."""
    if not is_simply_connected(g, budget):
        return None
    return len(g.whites) - len(g.blacks)
