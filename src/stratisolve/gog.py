"""Graph of groups over a stratifold graph, and based loop words.

Vertex groups: a black vertex carries the cyclic group on its ``b.`` letter
of the resolved order sigma (0 = infinite); a white vertex carries the
classified handle from :mod:`fgroup_handles`.  The edge group of an edge
with label m into a black vertex of order sigma is cyclic of order

    k = sigma / gcd(sigma, |m|)     (k = 0 when sigma = 0)

with monomorphisms sending the edge generator to b^m on the black side and
to the white handle's image of the boundary curve on the white side.  One
table holds each end of each edge as (vertex handle, image of the edge
generator), so edge-group membership is one ``cyclic_membership`` call.

Natural-presentation words embed as based loops r0 e1 r1 ... en rn along
maximal-tree paths; the loop keeps the tree scaffolding eagerly so the
reduction in :mod:`serre_solver` stays literal and auditable.
"""

from __future__ import annotations

from math import gcd
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from .errors import InjectivityError, UnknownGeneratorError
from .fgroup_handles import WhiteGroupSpec, WhiteHandle, white_handle
from .graph_model import Edge, MaximalTree, StratifoldGraph
from .local_groups import FreeProductOfCyclics
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
    edges = g.edges_at_white(w)
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
        # (edge, end) -> (handle at that end, image of the edge generator)
        self._ends = {}
        for e in graph.edges:
            white_image = self.white_handles[e.white].boundary_images[f"c.{e.name}"]
            self._ends[e.name, "white"] = (self._handles[e.white], white_image)
            black_image = ((f"b.{e.black}", e.label),)
            self._ends[e.name, "black"] = (self._handles[e.black], black_image)
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

    def _end(self, edge_name: str, end: str):
        try:
            return self._ends[edge_name, end]
        except KeyError:
            self.graph.edge(edge_name)  # UnknownVertexError for an unknown edge
            raise ValueError(f"end must be 'black' or 'white', got {end!r}") from None

    def white_image(self, edge_name: str) -> Word:
        """Image of the edge generator in the white handle's letters."""
        return self._end(edge_name, "white")[1]

    def edge_membership(self, edge_name: str, end: str, r: Word):
        """Witness s with r = (edge-generator image)^s at the given end
        ('black' or 'white'), or None."""
        handle, image = self._end(edge_name, end)
        return handle.cyclic_membership(r, image)

    def transport(self, edge_name: str, to_end: str, s: int) -> Word:
        """The edge-group element with witness exponent s, written at the
        requested end."""
        return power(self._end(edge_name, to_end)[1], s)


# -- loop-word translation ------------------------------------------------


def to_loop_word(gog: GraphOfGroups, w: Word) -> LoopWord:
    """Embed a natural-presentation word as a based loop."""
    g, parent = gog.graph, gog.tree.parent
    vertices, vertex_words = [gog.basepoint], [EMPTY]
    edges: list[DirectedEdge] = []

    def cross(ename: str, there: str) -> None:
        edges.append(DirectedEdge(ename, to_black=there in gog.sigma))
        vertices.append(there)
        vertex_words.append(EMPTY)

    def walk(v: str, back: bool = False) -> None:
        """Tree path basepoint -> v, or v -> basepoint when ``back``."""
        path = []
        while v != gog.basepoint:
            p, ename = parent[v]
            path.append((ename, p if back else v))
            v = p
        for ename, there in path if back else reversed(path):
            cross(ename, there)

    def visit(v: str, word: Word) -> None:
        """Walk the tree to v, read word there and walk back."""
        walk(v)
        vertex_words[-1] = concat(vertex_words[-1], word)
        walk(v, back=True)

    for name, exp in w:
        kind, _, rest = name.partition(".")
        if kind == "b":
            g.black(rest)
            visit(rest, ((name, exp),))
        elif kind == "y":
            v = rest.rpartition(".")[0]  # y.<white>.<i>
            g.white(v)
            visit(v, ((name, exp),))
        elif kind == "c":
            e = g.edge(rest)
            visit(e.white, power(gog.white_image(e.name), exp))
        elif kind == "t":
            e = g.edge(rest)
            if e.name in gog.tree.tree_edges:
                raise UnknownGeneratorError(
                    f"{name!r} refers to a tree edge; no stable letter exists"
                )
            # t^+1 crosses from the white end to the black end, t^-1 back
            here, there = (e.white, e.black) if exp > 0 else (e.black, e.white)
            for _ in range(abs(exp)):
                walk(here)
                cross(e.name, there)
                walk(there, back=True)
        else:
            raise UnknownGeneratorError(f"unknown generator {name!r}")
    return LoopWord(tuple(vertices), tuple(vertex_words), tuple(edges))
