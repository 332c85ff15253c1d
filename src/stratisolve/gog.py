"""Graph of groups over a stratifold graph, and based loop words.

Vertex groups: a black vertex carries the cyclic group on its ``b.`` letter
of the resolved order sigma (0 = infinite); a white vertex carries the
classified handle from :mod:`fgroup_handles`.  The edge group of an edge
with label m into a black vertex of order sigma is cyclic of order

    k = sigma / gcd(sigma, |m|)     (k = 0 when sigma = 0)

with monomorphisms sending the edge generator to b^m on the black side and
to the white handle's image of the boundary curve on the white side.

Natural-presentation words embed as based loops r0 e1 r1 ... en rn along
maximal-tree paths; the loop keeps the tree scaffolding eagerly so the
reduction in :mod:`serre_solver` stays literal and auditable.
"""

from __future__ import annotations

from math import gcd
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from .errors import InjectivityError, InternalError, UnknownGeneratorError
from .fgroup_handles import WhiteGroupSpec, WhiteHandle, white_handle
from .graph_model import Edge, MaximalTree, StratifoldGraph
from .local_groups import FreeProductOfCyclics, solve_congruence
from .presentation import surface_names
from .words import EMPTY, Word, concat, power


def edge_group_order(sigma: int, label: int) -> int:
    """Order of the edge group: sigma/gcd(sigma, |label|), 0 when sigma=0."""
    if sigma == 0:
        return 0
    return sigma // gcd(sigma, abs(label))


def build_white_handle(
    g: StratifoldGraph, w: str, sigma: dict[str, int]
) -> WhiteHandle:
    """Classify the white vertex group under the order assignment sigma."""
    edges = sorted(g.edges_at_white(w), key=lambda e: e.name)
    spec = WhiteGroupSpec(
        boundary_names=tuple(f"c.{e.name}" for e in edges),
        boundary_orders=tuple(
            edge_group_order(sigma[e.black], e.label) for e in edges
        ),
        genus=g.white(w).genus,
        surface_names=surface_names(w, g.white(w).genus),
    )
    return white_handle(spec)


def boundary_mismatches(
    g: StratifoldGraph, white_handles: Mapping[str, WhiteHandle],
    sigma: Mapping[str, int],
) -> Iterator[tuple[Edge, int, int]]:
    """(edge, computed, required) for each edge whose boundary image has a
    computed order other than the edge-group order under sigma, whites in
    order and each white's edges in order.  Only free products of cyclics
    are checked: there a merged curve can change order (curves of orders
    k1, k2 on a disk give gcd(k1, k2)), while in an amalgam, HNN or triangle
    handle each curve keeps its order by the normal form theorem or the
    faithful reflection representation.  On the black side b^label has
    order sigma/gcd(sigma, |label|) by construction."""
    for w in g.white_names():
        wh = white_handles[w]
        if not isinstance(wh.handle, FreeProductOfCyclics):
            continue
        for e in g.edges_at_white(w):
            required = edge_group_order(sigma[e.black], e.label)
            computed = wh.handle.elem_order(wh.boundary_images[f"c.{e.name}"])
            if computed != required:
                yield e, computed, required


class DirectedEdge(NamedTuple):
    """An edge traversal; ``to_black`` True means white -> black."""

    edge: str
    to_black: bool

    def reverse(self) -> "DirectedEdge":
        return DirectedEdge(self.edge, not self.to_black)


class LoopWord(NamedTuple):
    """Based loop r0 e1 r1 ... en rn; vertex_words[i] lives in the handle of
    vertices[i]; vertices[0] = vertices[-1] = basepoint."""

    vertices: tuple[str, ...]
    vertex_words: tuple[Word, ...]
    edges: tuple[DirectedEdge, ...]

    @property
    def edge_length(self) -> int:
        return len(self.edges)


class GraphOfGroups:
    """Immutable bundle of graph, tree, orders, handles and edge data."""

    def __init__(self, graph: StratifoldGraph, tree: MaximalTree,
                 sigma: dict[str, int]):
        self.graph = graph
        self.tree = tree
        self.sigma = MappingProxyType(dict(sigma))
        self.basepoint = tree.basepoint
        self.white_handles = MappingProxyType({
            w: build_white_handle(graph, w, self.sigma)
            for w in graph.white_names()
        })
        # one vertex group per vertex: the white handles and, on each black
        # b, the cyclic group on b.<b> of order sigma[b]
        self._handles = {w: wh.handle for w, wh in self.white_handles.items()}
        self._handles.update(
            (b, FreeProductOfCyclics(((f"b.{b}", self.sigma[b]),)))
            for b in graph.black_names()
        )
        bad = next(boundary_mismatches(graph, self.white_handles, self.sigma), None)
        if bad is not None:
            e, computed, required = bad
            raise InjectivityError(
                f"edge {e.name!r}: boundary image has order {computed} "
                f"but the edge group has order {required}"
            )

    # -- vertex/edge helpers -----------------------------------------------

    def vertex_handle(self, v: str):
        return self._handles[v]

    def white_image(self, edge_name: str) -> Word:
        """Image of the edge generator in the white handle's letters."""
        e = self.graph.edge(edge_name)
        return self.white_handles[e.white].boundary_images[f"c.{edge_name}"]

    def black_image(self, edge_name: str) -> Word:
        e = self.graph.edge(edge_name)
        return ((f"b.{e.black}", e.label),)

    # -- edge-group membership with witness ---------------------------------

    def edge_membership(self, edge_name: str, end: str, r: Word):
        """Witness s with r = (edge-generator image)^s at the given end
        ('black' or 'white'), or None."""
        e = self.graph.edge(edge_name)
        if end == "black":
            letter = f"b.{e.black}"
            x = 0
            for name, exp in r:
                if name != letter:
                    raise UnknownGeneratorError(
                        f"{name!r} is not a letter at black vertex {e.black!r}"
                    )
                x += exp
            return solve_congruence(e.label, x, self.sigma[e.black])
        if end != "white":
            raise ValueError(f"end must be 'black' or 'white', got {end!r}")
        handle = self._handles[e.white]
        return handle.cyclic_membership(r, self.white_image(edge_name))

    def transport(self, edge_name: str, to_end: str, s: int) -> Word:
        """The edge-group element with witness exponent s, written at the
        requested end."""
        if to_end == "black":
            return power(self.black_image(edge_name), s)
        return power(self.white_image(edge_name), s)


# -- loop-word translation ------------------------------------------------


class _LoopBuilder:
    def __init__(self, gog: GraphOfGroups):
        self.gog = gog
        self.vertices = [gog.basepoint]
        self.vertex_words: list[Word] = [EMPTY]
        self.edges: list[DirectedEdge] = []

    def add_word(self, w: Word) -> None:
        self.vertex_words[-1] = concat(self.vertex_words[-1], w)

    def add_edge(self, de: DirectedEdge) -> None:
        e = self.gog.graph.edge(de.edge)
        here, there = (e.white, e.black) if de.to_black else (e.black, e.white)
        if self.vertices[-1] != here:
            raise InternalError("loop word lost its footing")
        self.edges.append(de)
        self.vertices.append(there)
        self.vertex_words.append(EMPTY)

    def cross(self, ename: str) -> None:
        """Cross an edge from the vertex the loop stands at."""
        e = self.gog.graph.edge(ename)
        self.add_edge(DirectedEdge(ename, to_black=(self.vertices[-1] == e.white)))

    def walk(self, v: str, back: bool = False) -> None:
        """Tree path basepoint -> v, or v -> basepoint when ``back``."""
        path = self.gog.tree.path_from_basepoint(v)
        for ename in reversed(path) if back else path:
            self.cross(ename)

    def visit(self, v: str, w: Word) -> None:
        """Walk the tree to v, read w there and walk back."""
        self.walk(v)
        self.add_word(w)
        self.walk(v, back=True)

    def loop(self) -> LoopWord:
        return LoopWord(
            tuple(self.vertices), tuple(self.vertex_words), tuple(self.edges)
        )


def to_loop_word(gog: GraphOfGroups, w: Word) -> LoopWord:
    """Embed a natural-presentation word as a based loop."""
    b = _LoopBuilder(gog)
    g = gog.graph
    for name, exp in w:
        kind, _, rest = name.partition(".")
        if kind == "b":
            g.black(rest)
            b.visit(rest, ((name, exp),))
        elif kind == "y":
            v = rest.rpartition(".")[0]  # y.<white>.<i>
            g.white(v)
            b.visit(v, ((name, exp),))
        elif kind == "c":
            e = g.edge(rest)
            b.visit(e.white, power(gog.white_image(e.name), exp))
        elif kind == "t":
            e = g.edge(rest)
            if e.name in gog.tree.tree_edges:
                raise UnknownGeneratorError(
                    f"{name!r} refers to a tree edge; no stable letter exists"
                )
            # t^+1 crosses from the white end to the black end, t^-1 back
            here, there = (e.white, e.black) if exp > 0 else (e.black, e.white)
            for _ in range(abs(exp)):
                b.walk(here)
                b.cross(e.name)
                b.walk(there, back=True)
        else:
            raise UnknownGeneratorError(f"unknown generator {name!r}")
    return b.loop()
