"""Natural presentation of the fundamental group of a 2-stratifold.

Generators are plain strings carrying a role prefix:

  ``b.<black>``      the singular circle of a black vertex
  ``c.<edge>``       the boundary curve corresponding to an edge
  ``y.<white>.<i>``  surface generator i of a white vertex (i >= 1)
  ``t.<edge>``       stable letter of a non-tree edge

Relators, one per white vertex, one per tree edge and one per non-tree edge:

  c_1 ... c_p . q          (boundary curves sorted by edge name; q is the
                            genus word of the white vertex)
  b^m . c^-1               for a tree edge with label m >= 1
  t^-1 . c . t . b^-m      for a non-tree edge with label m

Its abelianization H1 (a Smith normal form, Holt-Eick-O'Brien) answers one
question, the order of a word's image (``Abelianization.order``), which
``oracle.derive_if_h1_trivial`` uses to skip searches that H1 refutes.
"""

from __future__ import annotations

import re
from math import gcd, lcm
from typing import NamedTuple

from .errors import TreeEdgeStableError, UnknownGeneratorError, WordSyntaxError
from .graph_model import MaximalTree, StratifoldGraph
from .snf import smith_normal_form
from .words import EMPTY, Word, concat, free_reduce, genus_word


def surface_gen_count(genus: int) -> int:
    """Number of surface generators: 2g for genus g > 0, -g for g < 0."""
    if genus > 0:
        return 2 * genus
    return -genus


def surface_names(white: str, genus: int) -> tuple[str, ...]:
    """The surface generators ``y.<white>.1`` ... of a white vertex."""
    return tuple(f"y.{white}.{i + 1}" for i in range(surface_gen_count(genus)))


class Presentation(NamedTuple):
    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    graph: StratifoldGraph
    tree: MaximalTree

    def index(self, gen: str) -> int:
        try:
            return self.generators.index(gen)
        except ValueError:
            raise UnknownGeneratorError(f"unknown generator {gen!r}") from None


def natural_presentation(g: StratifoldGraph, t: MaximalTree) -> Presentation:
    gens: list[str] = [f"b.{b}" for b in g.black_names()]
    for w in g.white_names():
        gens.extend(f"c.{e.name}" for e in g.edges_at_white(w))
        gens.extend(surface_names(w, g.white(w).genus))
    gens.extend(f"t.{e.name}" for e in g.edges if e.name not in t.tree_edges)

    relators: list[Word] = []
    for w in g.white_names():
        boundary = tuple((f"c.{e.name}", 1) for e in g.edges_at_white(w))
        genus = g.white(w).genus
        relators.append(
            concat(boundary, genus_word(surface_names(w, genus), genus))
        )
    for e in g.edges:
        if e.name in t.tree_edges:
            relators.append(
                free_reduce(((f"b.{e.black}", e.label), (f"c.{e.name}", -1)))
            )
        else:
            te, ce, be = f"t.{e.name}", f"c.{e.name}", f"b.{e.black}"
            relators.append(
                free_reduce(((te, -1), (ce, 1), (te, 1), (be, -e.label)))
            )
    return Presentation(tuple(gens), tuple(relators), g, t)


# -- word grammar --------------------------------------------------------------

_ATOM = re.compile(
    r"^(b\.[^\s^*]+|c\.[^\s^*]+|t\.[^\s^*]+|y\.[^\s^*]+\.\d+)(?:\^(-?\d+))?$"
)


def parse_word(text: str, p: Presentation) -> Word:
    """Parse ``atom[^int] (* atom[^int])*`` or the identity word "1"."""
    text = text.strip()
    if not text:
        raise WordSyntaxError("empty word text")
    if text == "1":
        return EMPTY
    pairs = []
    for factor in text.split("*"):
        factor = factor.strip()
        m = _ATOM.match(factor)
        if not m:
            raise WordSyntaxError(f"malformed factor {factor!r}")
        atom, exp = m.group(1), int(m.group(2)) if m.group(2) else 1
        if atom.startswith("t."):
            edge = atom[2:]
            if edge in p.tree.tree_edges:
                raise TreeEdgeStableError(
                    f"{atom!r} refers to a tree edge; stable letters exist "
                    "only for non-tree edges"
                )
        if atom not in p.generators:
            raise UnknownGeneratorError(f"unknown generator {atom!r}")
        pairs.append((atom, exp))
    return free_reduce(pairs)


def format_word(w: Word) -> str:
    if not w:
        return "1"
    return " * ".join(
        name if exp == 1 else f"{name}^{exp}" for name, exp in w
    )


# -- abelianization -------------------------------------------------------------

class Abelianization(NamedTuple):
    """H1 as D = U A V: a word with exponent-sum vector x has coordinates
    u = x V, u_j in Z/d_j (in Z where d_j = 0 or j is past the diagonal)."""

    presentation: Presentation
    diagonal: tuple[int, ...]
    colbasis: tuple[tuple[int, ...], ...]  # V, columns operated

    def free_rank(self) -> int:
        n = len(self.presentation.generators)
        nonzero = sum(1 for d in self.diagonal if d != 0)
        return n - nonzero

    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d > 1)

    def order(self, w: Word) -> int:
        """Order of the image of w in H1 (0 = infinite, 1 = trivial), read
        from one row of V per letter of w."""
        p = self.presentation
        u = [0] * len(p.generators)
        for name, exp in w:
            u = [a + exp * x for a, x in zip(u, self.colbasis[p.index(name)])]
        order = 1
        for j, uj in enumerate(u):
            d = self.diagonal[j] if j < len(self.diagonal) else 0
            if d > 0:
                order = lcm(order, d // gcd(d, uj))
            elif uj:
                return 0
        return order


def abelianization(p: Presentation) -> Abelianization:
    n = len(p.generators)
    rows = []
    for rel in p.relators:
        row = [0] * n
        for name, exp in rel:
            row[p.index(name)] += exp
        rows.append(row)
    diag, v = smith_normal_form(rows, n)
    return Abelianization(p, tuple(diag), tuple(tuple(r) for r in v))
