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
    """A validated graph: immutable, equal and hashed by its three tuples."""

    def __init__(self, whites: tuple[WhiteVertex, ...],
                 blacks: tuple[BlackVertex, ...], edges: tuple[Edge, ...]):
        self.__dict__.update(whites=whites, blacks=blacks, edges=edges)
        _validate(self)

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
        # built on the first edge lookup: splicing looks an edge up per test
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
    wset, bset = set(wnames), set(bnames)
    for e in g.edges:
        if e.white not in wset or e.black not in bset:
            raise DanglingEdgeError(f"edge {e.name!r} references unknown endpoint")
        if e.label == 0:
            raise ZeroLabelError(f"edge {e.name!r} has label 0")
    for b in g.blacks:
        total = sum(abs(e.label) for e in g.edges_at_black(b.name))
        if total < 3:
            raise BlackDegreeError(
                f"black vertex {b.name!r} has sheet count {total} < 3"
            )
    if not _connected(g):
        raise DisconnectedError("graph is not connected")


def _connected(g: StratifoldGraph) -> bool:
    vertices = set(g.white_names()) | set(g.black_names())
    if not vertices:
        return True
    adj: dict[str, set[str]] = {v: set() for v in vertices}
    for e in g.edges:
        adj[e.white].add(e.black)
        adj[e.black].add(e.white)
    start = next(iter(sorted(vertices)))
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return seen == vertices


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
    whites.sort(key=lambda w: w.name)
    blacks.sort(key=lambda b: b.name)
    edges.sort(key=lambda e: e.name)
    return StratifoldGraph(tuple(whites), tuple(blacks), tuple(edges))


def serialize_graph(g: StratifoldGraph) -> str:
    lines = [f"white {w.name} genus {w.genus}" for w in sorted(g.whites, key=lambda w: w.name)]
    lines += [f"black {b.name}" for b in sorted(g.blacks, key=lambda b: b.name)]
    lines += [
        f"edge {e.name} {e.white} {e.black} {e.label}"
        for e in sorted(g.edges, key=lambda e: e.name)
    ]
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

    def path_from_basepoint(self, v: str) -> tuple[str, ...]:
        """Edge names along the tree path basepoint -> v."""
        rev = []
        while v != self.basepoint:
            p, e = self.parent[v]
            rev.append(e)
            v = p
        return tuple(reversed(rev))


def canonical_tree(g: StratifoldGraph) -> MaximalTree:
    """Deterministic spanning tree: BFS from the smallest white vertex,
    neighbors explored in (neighbor-name, edge-name) order."""
    if g.whites:
        base = min(g.white_names())
    else:
        base = min(g.black_names())
    adj: dict[str, list[tuple[str, str]]] = {
        v: [] for v in g.white_names() + g.black_names()
    }
    for e in g.edges:
        adj[e.white].append((e.black, e.name))
        adj[e.black].append((e.white, e.name))
    for v in adj:
        adj[v].sort()
    parent: dict[str, tuple[str, str]] = {}
    tree_edges: set[str] = set()
    seen = {base}
    queue = deque([base])
    while queue:
        v = queue.popleft()
        for u, ename in adj[v]:
            if u not in seen:
                seen.add(u)
                parent[u] = (v, ename)
                tree_edges.add(ename)
                queue.append(u)
    return MaximalTree(base, frozenset(tree_edges), parent)


def normalize_orientations(
    g: StratifoldGraph, t: MaximalTree
) -> tuple[StratifoldGraph, tuple[str, ...]]:
    """Make every tree-edge label positive; non-tree labels are untouched.

    Returns the normalized graph and the names of the flipped edges.
    """
    flips = tuple(
        e.name for e in g.edges if e.name in t.tree_edges and e.label < 0
    )
    new_labels = {name: abs(g.edge(name).label) for name in flips}
    return g.replace_labels(new_labels), flips
