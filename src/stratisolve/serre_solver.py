"""Loop-word reduction in a graph of groups.

A based loop r0 e1 r1 ... en rn is reduced when no backtracking pair
e_{i+1} = reverse(e_i) has its middle vertex element r_i inside the image
of the edge group (Serre, *Trees* I.5).  A reduced nonempty loop represents
a nontrivial element; a length-0 loop is decided by the basepoint vertex
handle.  Each splice removes one backtracking pair, shortening the loop by
exactly two edges, so at most n/2 splices occur.

:func:`solve` reduces in one left-to-right stack pass.  It pushes each edge
with the vertex after it and that vertex's word, and :func:`reduce_once`
then tests only the top pair of the stack, splicing it in place when the
middle word lies in the edge group.  A splice changes only the new top
vertex word, and every pair below it was refuted with the middle word it
still has, so nothing below the top is tested again.  The pass therefore
makes exactly the splices of "splice the leftmost reducible pair, then
rescan from the left", in the same order and at the same indices, and its
trace replays through :func:`replay_trace`.
"""

from __future__ import annotations

from typing import NamedTuple

from .gog import DirectedEdge, GraphOfGroups, LoopWord, to_loop_word
from .graph_model import StratifoldGraph
from .pipeline import compile
from .presentation import parse_word
from .words import Word, concat, inverse


class SpliceStep(NamedTuple):
    """One reduction step: the backtracking pair at edge positions
    (index, index+1) was removed using the recorded witness exponent."""

    index: int
    edge: str
    end: str  # side of the middle vertex: 'black' or 'white'
    witness: int


class Verdict(NamedTuple):
    trivial: bool
    reduced_length: int
    trace: tuple[SpliceStep, ...]
    final_loop: LoopWord

    @property
    def label(self) -> str:
        return "trivial" if self.trivial else "nontrivial"


def _splice(gog: GraphOfGroups, vertices: list[str], vertex_words: list[Word],
            edges: list[DirectedEdge], i: int, witness: int) -> None:
    """Remove the backtracking pair at edge positions (i, i+1) in place,
    carrying the edge-group element with the witness exponent to the near
    end."""
    de = edges[i]
    near_end = "white" if de.to_black else "black"
    carried = gog.transport(de.edge, near_end, witness)
    merged = concat(vertex_words[i], carried, vertex_words[i + 2])
    del edges[i : i + 2], vertices[i + 1 : i + 3]
    vertex_words[i : i + 3] = [merged]


def reduce_once(gog: GraphOfGroups, vertices: list[str], vertex_words: list[Word],
                edges: list[DirectedEdge]):
    """Splice the top backtracking pair of a loop stack, in place.

    The stack holds a loop prefix r0 e1 r1 ... ek rk as three lists.  Only
    the pair (e_{k-1}, e_k) with middle word r_{k-1} is tested.  Returns the
    :class:`SpliceStep`, or None when the top pair does not reduce.
    """
    if len(edges) < 2:
        return None
    de = edges[-2]
    if edges[-1] != de.reverse():
        return None
    mid_end = "black" if de.to_black else "white"
    s = gog.edge_membership(de.edge, mid_end, vertex_words[-2])
    if s is None:
        return None
    index = len(edges) - 2
    _splice(gog, vertices, vertex_words, edges, index, s)
    return SpliceStep(index, de.edge, mid_end, s)


def solve(gog: GraphOfGroups, lw: LoopWord) -> Verdict:
    """Decide triviality of a based loop in one stack pass of splices."""
    trace: list[SpliceStep] = []
    vertices, vertex_words = [lw.vertices[0]], [lw.vertex_words[0]]
    edges: list[DirectedEdge] = []
    for de, v, w in zip(lw.edges, lw.vertices[1:], lw.vertex_words[1:]):
        edges.append(de)
        vertices.append(v)
        vertex_words.append(w)
        step = reduce_once(gog, vertices, vertex_words, edges)
        if step is not None:
            trace.append(step)
    lw = LoopWord(tuple(vertices), tuple(vertex_words), tuple(edges))
    if lw.edge_length == 0:
        trivial = gog.vertex_handle(gog.basepoint).wp(lw.vertex_words[0])
    else:
        trivial = False
    return Verdict(trivial, lw.edge_length, tuple(trace), lw)


def replay_trace(gog: GraphOfGroups, lw: LoopWord, verdict: Verdict) -> bool:
    """Re-run a verdict's trace as an independent certificate check.

    Each recorded splice must name an actual backtracking pair whose middle
    element passes the edge-membership test with the recorded witness; for
    a Trivial verdict the surviving length-0 loop must carry a trivial
    basepoint element.
    """
    vertices, vertex_words, edges = (
        list(lw.vertices), list(lw.vertex_words), list(lw.edges))
    for step in verdict.trace:
        i = step.index
        if i < 0 or i + 1 >= len(edges):
            return False
        de = edges[i]
        if de.edge != step.edge or edges[i + 1] != de.reverse():
            return False
        mid_end = "black" if de.to_black else "white"
        if mid_end != step.end:
            return False
        # the recorded witness must represent the same edge-group element
        probe = concat(
            vertex_words[i + 1],
            inverse(gog.transport(de.edge, mid_end, step.witness)),
        )
        if not gog.vertex_handle(vertices[i + 1]).wp(probe):
            return False
        _splice(gog, vertices, vertex_words, edges, i, step.witness)
    if len(edges) != verdict.reduced_length:
        return False
    if verdict.trivial:
        return not edges and gog.vertex_handle(gog.basepoint).wp(vertex_words[0])
    return True


def word_problem(g: StratifoldGraph, word_text: str, budget=None) -> Verdict:
    """Full pipeline: parse the word against the compiled presentation,
    then translate and reduce it in the compiled graph of groups.  Raises
    UndeterminedError when the order engine cannot certify an exact
    assignment within budget."""
    compiled = compile(g, budget)
    w = parse_word(word_text, compiled.pres)
    gog = compiled.gog
    return solve(gog, to_loop_word(gog, w))
