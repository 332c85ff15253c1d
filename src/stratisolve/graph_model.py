"""Labelled bipartite graphs describing 2-stratifolds.

The graph has white vertices carrying a genus label (negative genus means a
nonorientable surface, following Neumann's convention), black vertices for
the singular circles, and edges carrying a nonzero integer label.  The sum
of |label| over the edges at a black vertex is the number of sheets meeting
along that circle and must be at least 3.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import NamedTuple

from .errors import (
    BlackDegreeError,
    DanglingEdgeError,
    DisconnectedError,
    DuplicateNameError,
    GraphSyntaxError,
    UnknownVertexError,
    ZeroLabelError,
)


class WhiteVertex(NamedTuple):
    name: str
    genus: int


class BlackVertex(NamedTuple):
    name: str


class Edge(NamedTuple):
    name: str
    white: str
    black: str
    label: int


class StratifoldGraph:
    """A validated graph: immutable, equal and hashed by its three tuples,
    each kept in name order, so every walk over them is in name order and
    the order they were given in does not matter."""

    def __init__(self, whites: tuple[WhiteVertex, ...],
                 blacks: tuple[BlackVertex, ...], edges: tuple[Edge, ...]):
        self.__dict__.update(whites=tuple(sorted(whites)),
                             blacks=tuple(sorted(blacks)), edges=tuple(sorted(edges)))
        _validate(self)

    @classmethod
    def _sorted_and_valid(cls, whites, blacks, edges) -> "StratifoldGraph":
        """A graph from tuples known to be in name order and to pass
        ``_validate``, which is not run again."""
        g = object.__new__(cls)
        g.__dict__.update(whites=whites, blacks=blacks, edges=edges)
        return g

    def __setattr__(self, name, value):
        raise AttributeError(f"StratifoldGraph is immutable: cannot set {name!r}")

    def __eq__(self, other):
        return isinstance(other, StratifoldGraph) and (
            self.whites, self.blacks, self.edges) == (other.whites, other.blacks, other.edges)

    def __hash__(self):
        return hash((self.whites, self.blacks, self.edges))

    # -- lookups ------------------------------------------------------------

    def white(self, name: str) -> WhiteVertex:
        for w in self.whites:
            if w.name == name:
                return w
        raise UnknownVertexError(f"unknown white vertex {name!r}")

    def black(self, name: str) -> BlackVertex:
        for b in self.blacks:
            if b.name == name:
                return b
        raise UnknownVertexError(f"unknown black vertex {name!r}")

    @cached_property
    def _edge_index(self) -> dict[str, Edge]:
        # built on the first edge lookup: to_loop_word looks up the edge of
        # each c and t letter
        return {e.name: e for e in self.edges}

    def edge(self, name: str) -> Edge:
        e = self._edge_index.get(name)
        if e is None:
            raise UnknownVertexError(f"unknown edge {name!r}")
        return e

    def white_names(self) -> tuple[str, ...]:
        return tuple(w.name for w in self.whites)

    def black_names(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.blacks)

    def edges_at_white(self, name: str) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.white == name)

    def edges_at_black(self, name: str) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.black == name)

    def replace_labels(self, new_labels: dict[str, int]) -> "StratifoldGraph":
        edges = tuple(
            Edge(e.name, e.white, e.black, new_labels.get(e.name, e.label))
            for e in self.edges
        )
        return StratifoldGraph(self.whites, self.blacks, edges)


def edges_by_white(g: StratifoldGraph) -> dict[str, list[Edge]]:
    """Each white's name -> its edges, whites and edges in name order: one
    pass over the edges, for whole-graph passes that go white by white."""
    at: dict[str, list[Edge]] = {w.name: [] for w in g.whites}
    for e in g.edges:
        at[e.white].append(e)
    return at


def _validate(g: StratifoldGraph) -> None:
    if not g.whites and not g.blacks:
        raise DisconnectedError("empty graph")
    wnames = [w.name for w in g.whites]
    bnames = [b.name for b in g.blacks]
    enames = [e.name for e in g.edges]
    # whites and blacks share one namespace: the tree and the presentation
    # tell vertices apart by name alone
    for names, sort in ((wnames + bnames, "vertex"), (enames, "edge")):
        seen = set()
        for n in names:
            # '^' and '*' split words: no generator could spell the name
            if "^" in n or "*" in n:
                raise GraphSyntaxError(f"{sort} name {n!r} contains '^' or '*'")
            if n in seen:
                raise DuplicateNameError(f"duplicate {sort} name {n!r}")
            seen.add(n)
    wset = set(wnames)
    sheets = dict.fromkeys(bnames, 0)  # in name order
    for e in g.edges:
        if e.white not in wset or e.black not in sheets:
            raise DanglingEdgeError(f"edge {e.name!r} references unknown endpoint")
        if e.label == 0:
            raise ZeroLabelError(f"edge {e.name!r} has label 0")
        sheets[e.black] += abs(e.label)
    for b, total in sheets.items():
        if total < 3:
            raise BlackDegreeError(
                f"black vertex {b!r} has sheet count {total} < 3"
            )
    # a black has at least 3 sheets, so there is a white for the basepoint
    if len(canonical_tree(g).parent) != len(g.whites) + len(g.blacks) - 1:
        raise DisconnectedError("graph is not connected")


# -- parsing ------------------------------------------------------------------

def parse_graph(text: str) -> StratifoldGraph:
    """Parse the line-based graph format.

    Lines: ``white <name> genus <int>``, ``black <name>``,
    ``edge <name> <white> <black> <nonzero-int>``.  '#' starts a comment,
    blank lines are ignored.
    """
    whites: list[WhiteVertex] = []
    blacks: list[BlackVertex] = []
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "white":
                if len(parts) != 4 or parts[2] != "genus":
                    raise GraphSyntaxError("expected 'white <name> genus <int>'", lineno)
                whites.append(WhiteVertex(parts[1], int(parts[3])))
            elif kind == "black":
                if len(parts) != 2:
                    raise GraphSyntaxError("expected 'black <name>'", lineno)
                blacks.append(BlackVertex(parts[1]))
            elif kind == "edge":
                if len(parts) != 5:
                    raise GraphSyntaxError(
                        "expected 'edge <name> <white> <black> <label>'", lineno
                    )
                edges.append(Edge(parts[1], parts[2], parts[3], int(parts[4])))
            else:
                raise GraphSyntaxError(f"unknown directive {kind!r}", lineno)
        except ValueError:
            raise GraphSyntaxError("malformed integer", lineno) from None
    return StratifoldGraph(tuple(whites), tuple(blacks), tuple(edges))


def serialize_graph(g: StratifoldGraph) -> str:
    lines = [f"white {w.name} genus {w.genus}" for w in g.whites]
    lines += [f"black {b.name}" for b in g.blacks]
    lines += [f"edge {e.name} {e.white} {e.black} {e.label}" for e in g.edges]
    return "\n".join(lines) + "\n"


# -- spanning tree and orientation normalization ------------------------------

class MaximalTree(NamedTuple):
    basepoint: str
    tree_edges: frozenset[str]
    # vertex -> (parent vertex, edge name); basepoint absent
    parent: dict[str, tuple[str, str]]

    def __hash__(self):
        # the parent dict is unhashable and follows from the other two
        return hash((self.basepoint, self.tree_edges))


def breadth_first(vertices, edges, roots) -> dict[str, tuple[str, str] | None]:
    """Breadth-first search from each root not yet reached, in turn,
    neighbours explored in (neighbour-name, edge-name) order.  Maps each
    reached vertex to its (parent vertex, edge name) and each root to None,
    in the order reached, so every root is followed by its component."""
    adj: dict[str, list[tuple[str, str]]] = {v: [] for v in vertices}
    for e in edges:
        adj[e.white].append((e.black, e.name))
        adj[e.black].append((e.white, e.name))
    for v in adj:
        adj[v].sort()
    reached: dict[str, tuple[str, str] | None] = {}
    for root in roots:
        if root in reached:
            continue
        reached[root] = None
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for u, ename in adj[v]:
                if u not in reached:
                    reached[u] = (v, ename)
                    queue.append(u)
    return reached


def canonical_tree(g: StratifoldGraph) -> MaximalTree:
    """Deterministic spanning tree: BFS from the smallest white vertex,
    neighbors explored in (neighbor-name, edge-name) order."""
    base = g.whites[0].name
    parent = breadth_first(g.white_names() + g.black_names(), g.edges, (base,))
    del parent[base]
    tree_edges = frozenset(ename for _, ename in parent.values())
    return MaximalTree(base, tree_edges, parent)


def normalize_orientations(
    g: StratifoldGraph, t: MaximalTree
) -> tuple[StratifoldGraph, tuple[str, ...]]:
    """Make every tree-edge label positive; non-tree labels are untouched.

    Returns the normalized graph (``g`` itself when nothing flips) and the
    names of the flipped edges.  A sign flip keeps every name, the order of
    the edges (sorted by name first), each |label| and the connectivity, so
    the flipped graph passes validation as ``g`` did and is not validated
    again.
    """
    flips = tuple(
        e.name for e in g.edges if e.name in t.tree_edges and e.label < 0
    )
    if not flips:
        return g, flips
    edges = tuple(e._replace(label=-e.label) if e.name in flips else e
                  for e in g.edges)
    return StratifoldGraph._sorted_and_valid(g.whites, g.blacks, edges), flips
