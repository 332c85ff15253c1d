"""Loop-word reduction in a graph of groups.

A based loop r0 e1 r1 ... en rn is reduced when no backtracking pair
e_{i+1} = reverse(e_i) has its middle vertex element r_i inside the image
of the edge group.  A reduced nonempty loop represents a nontrivial
element; a length-0 loop is decided by the basepoint vertex handle.  Each
splice removes one backtracking pair, shortening the loop by exactly two
edges, so at most n/2 splices occur.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gog import GraphOfGroups, LoopWord, to_loop_word
from .graph_model import StratifoldGraph
from .pipeline import compile
from .presentation import parse_word
from .words import concat, inverse


@dataclass(frozen=True)
class SpliceStep:
    """One reduction step: the backtracking pair at edge positions
    (index, index+1) was removed using the recorded witness exponent."""

    index: int
    edge: str
    end: str  # side of the middle vertex: 'black' or 'white'
    witness: int


@dataclass(frozen=True)
class Verdict:
    trivial: bool
    reduced_length: int
    trace: tuple[SpliceStep, ...]
    final_loop: LoopWord

    @property
    def label(self) -> str:
        return "trivial" if self.trivial else "nontrivial"


def _splice(gog: GraphOfGroups, lw: LoopWord, i: int, witness: int) -> LoopWord:
    """Remove the backtracking pair at edge positions (i, i+1), carrying the
    edge-group element with the witness exponent to the near end."""
    de = lw.edges[i]
    near_end = "white" if de.to_black else "black"
    carried = gog.transport(de.edge, near_end, witness)
    merged = concat(lw.vertex_words[i], carried, lw.vertex_words[i + 2])
    return LoopWord(
        lw.vertices[: i + 1] + lw.vertices[i + 3 :],
        lw.vertex_words[:i] + (merged,) + lw.vertex_words[i + 3 :],
        lw.edges[:i] + lw.edges[i + 2 :],
    )


def reduce_once(gog: GraphOfGroups, lw: LoopWord):
    """Splice the leftmost reducible backtracking pair.

    Returns (new_loop, step) or None when the loop is already reduced.
    """
    for i in range(len(lw.edges) - 1):
        if lw.edges[i + 1] != lw.edges[i].reverse():
            continue
        de = lw.edges[i]
        mid_end = "black" if de.to_black else "white"
        s = gog.edge_membership(de.edge, mid_end, lw.vertex_words[i + 1])
        if s is None:
            continue
        return _splice(gog, lw, i, s), SpliceStep(i, de.edge, mid_end, s)
    return None


def solve(gog: GraphOfGroups, lw: LoopWord) -> Verdict:
    """Decide triviality of a based loop by repeated splicing."""
    trace: list[SpliceStep] = []
    while True:
        step = reduce_once(gog, lw)
        if step is None:
            break
        lw, s = step
        trace.append(s)
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
    for step in verdict.trace:
        i = step.index
        if i < 0 or i + 1 >= len(lw.edges):
            return False
        de = lw.edges[i]
        if de.edge != step.edge or lw.edges[i + 1] != de.reverse():
            return False
        mid_end = "black" if de.to_black else "white"
        if mid_end != step.end:
            return False
        # the recorded witness must represent the same edge-group element
        probe = concat(
            lw.vertex_words[i + 1],
            inverse(gog.transport(de.edge, mid_end, step.witness)),
        )
        if not gog.vertex_handle(lw.vertices[i + 1]).wp(probe):
            return False
        lw = _splice(gog, lw, i, step.witness)
    if lw.edge_length != verdict.reduced_length:
        return False
    if verdict.trivial:
        return lw.edge_length == 0 and gog.vertex_handle(gog.basepoint).wp(
            lw.vertex_words[0]
        )
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
