"""Decision corollaries built on the word-problem solver.

* abelianness: all pairwise generator commutators trivial;
* order of a black vertex on a 0-terminal edge (terminal genus-0 white);
* simple connectivity, with the pruning procedure as a cross-checked fast
  path on graphs passing the necessary-condition screen (tree, all whites
  genus 0, all terminal vertices white);
* wedge recognition: a simply-connected stratifold is homotopy equivalent
  to a wedge of (#whites - #blacks) 2-spheres.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InternalError, NotApplicableError, NotZeroTerminalError
from .graph_model import StratifoldGraph
from .pipeline import compile
from .serre_solver import word_problem


def _solve(g: StratifoldGraph, word_text: str, budget) -> bool:
    return word_problem(g, word_text, budget).trivial


def is_abelian(g: StratifoldGraph, budget=None) -> bool:
    """True iff every pairwise commutator of the natural generators is
    trivial.  Raises UndeterminedError when orders cannot be certified."""
    gens = compile(g, budget).pres.generators
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            a, b = gens[i], gens[j]
            comm = f"{a} * {b} * {a}^-1 * {b}^-1"
            if not _solve(g, comm, budget):
                return False
    return True


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
    n_vertices = len(g.whites) + len(g.blacks)
    if len(g.edges) != n_vertices - 1:
        return "graph is not a tree"
    for w in g.whites:
        if w.genus != 0:
            return f"white vertex {w.name!r} has genus {w.genus} != 0"
    for e in g.edges:
        # a terminal edge must end in a terminal white vertex
        if (
            len(g.edges_at_black(e.black)) == 1
            and len(g.edges_at_white(e.white)) > 1
        ):
            return f"terminal edge {e.name!r} ends in black vertex {e.black!r}"
    return None


def _components(
    whites, blacks, edges
) -> tuple[StratifoldGraph, ...]:
    names = [w.name for w in whites] + [b.name for b in blacks]
    if not names:
        return ()
    adj = {n: set() for n in names}
    for e in edges:
        adj[e.white].add(e.black)
        adj[e.black].add(e.white)
    seen: set[str] = set()
    out = []
    for start in sorted(names):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        out.append(
            StratifoldGraph(
                tuple(w for w in whites if w.name in comp),
                tuple(b for b in blacks if b.name in comp),
                tuple(e for e in edges if e.white in comp),
            )
        )
    return tuple(out)


def prune(g: StratifoldGraph, budget=None) -> PruneReport:
    """Repeatedly compute the order at a 0-terminal pair; delete the pair
    when the order is 1, stop otherwise.  Success means every surviving
    component is edgeless."""
    reason = _screen(g)
    if reason is not None:
        raise NotApplicableError(reason)
    steps: list[PruneStep] = []
    pending = [g]
    finals: list[StratifoldGraph] = []
    while pending:
        comp = pending.pop()
        if not comp.edges:
            finals.append(comp)
            continue
        # a tree whose terminals are all white has a 0-terminal pair
        pair = None
        for w in sorted(comp.white_names()):
            edges = comp.edges_at_white(w)
            if len(edges) == 1:
                pair = (edges[0].black, w)
                break
        if pair is None:
            raise InternalError("tree with white terminals lost its leaves")
        black, white = pair
        order = zero_terminal_order(comp, black, budget)
        if order != 1:
            steps.append(PruneStep(black, white, order, "stop"))
            finals.append(comp)
            return PruneReport(tuple(steps), tuple(finals + pending), False)
        steps.append(PruneStep(black, white, order, "delete"))
        keep_whites = tuple(x for x in comp.whites if x.name != white)
        keep_blacks = tuple(x for x in comp.blacks if x.name != black)
        keep_edges = tuple(e for e in comp.edges if e.black != black)
        pending.extend(_components(keep_whites, keep_blacks, keep_edges))
    success = all(not c.edges for c in finals)
    return PruneReport(tuple(steps), tuple(finals), success)


def is_simply_connected(g: StratifoldGraph, budget=None) -> bool:
    """All natural generators trivial; screened by the necessary
    conditions, cross-checked against pruning when the screen passes."""
    if _screen(g) is not None:
        return False
    gens = compile(g, budget).pres.generators
    result = all(_solve(g, gen, budget) for gen in gens)
    if prune(g, budget).success != result:
        raise InternalError("pruning disagrees with the generator check")
    return result


def wedge_check(g: StratifoldGraph, budget=None):
    """Number of 2-spheres in the wedge when simply connected, else None."""
    if not is_simply_connected(g, budget):
        return None
    return len(g.whites) - len(g.blacks)
