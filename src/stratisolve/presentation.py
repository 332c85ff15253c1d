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

Its abelianization H1 answers one question, the order of a word's image
(``Abelianization.order``), which ``oracle.derive_if_h1_trivial`` uses to
skip searches that H1 refutes.  H1 is computed as Havas-Holt-Rees
("Recognizing badly presented Z-modules", 1993) and Holt-Eick-O'Brien
describe: most relators have a generator of exponent sum +-1 (each tree-edge
relator its ``c``, each disk relator its only curve), so those generators
are eliminated first, sparsely, and a Smith normal form is taken only of
the block that is left, which is empty on a disk-capped chain.
"""

from __future__ import annotations

import heapq
import re
from math import gcd, lcm
from typing import NamedTuple

from .errors import TreeEdgeStableError, UnknownGeneratorError, WordSyntaxError
from .graph_model import MaximalTree, StratifoldGraph, edges_by_white
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
    at = edges_by_white(g)
    gens: list[str] = [f"b.{b}" for b in g.black_names()]
    relators: list[Word] = []
    for w in g.whites:
        curves = [f"c.{e.name}" for e in at[w.name]]
        surface = surface_names(w.name, w.genus)
        gens.extend((*curves, *surface))
        relators.append(concat(tuple((c, 1) for c in curves),
                               genus_word(surface, w.genus)))
    gens.extend(f"t.{e.name}" for e in g.edges if e.name not in t.tree_edges)
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
    """H1 as the relation matrix after unit-pivot elimination.

    Each substitution ``(i, ((j, a), ...))`` records that generator i is
    sum a * generator j in H1: it was read off a relator in which i had
    coefficient +-1, and every j in it is eliminated later or survives.
    A survivor in no relation left (``free``) spans a Z summand.  The rest
    (``columns``) span the block that is left, and its Smith form
    D = U B V gives the others: a vector x over them has coordinates
    u = x V, u_j in Z/d_j (in Z where d_j = 0 or j is past the diagonal).
    Generators are named by their index in the presentation, which
    ``index`` maps each generator name to."""

    presentation: Presentation
    index: dict[str, int]
    substitutions: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    free: tuple[int, ...]
    columns: tuple[int, ...]
    diagonal: tuple[int, ...]
    colbasis: tuple[tuple[int, ...], ...]  # V, columns operated

    def __hash__(self):
        # ``index`` is a function of the presentation, so equal records
        # still hash equal without it
        return hash(self[:1] + self[2:])

    def free_rank(self) -> int:
        return len(self.free) + len(self.columns) - sum(1 for d in self.diagonal if d)

    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d > 1)

    def order(self, w: Word) -> int:
        """Order of the image of w in H1 (0 = infinite, 1 = trivial): the
        substitutions, in elimination order, move w's exponent sums onto
        the survivors, whose rows of V then give its coordinates."""
        index = self.index
        x = [0] * len(index)
        for name, exp in w:
            x[index[name]] += exp
        for i, terms in self.substitutions:
            e = x[i]
            if e:
                x[i] = 0
                for j, a in terms:
                    x[j] += e * a
        if any(x[i] for i in self.free):
            return 0
        u = [0] * len(self.columns)
        for i, row in zip(self.columns, self.colbasis):
            if x[i]:
                u = [a + x[i] * v for a, v in zip(u, row)]
        order = 1
        for j, uj in enumerate(u):
            d = self.diagonal[j] if j < len(self.diagonal) else 0
            if d > 0:
                order = lcm(order, d // gcd(d, uj))
            elif uj:
                return 0
        return order


def abelianization(p: Presentation) -> Abelianization:
    """Eliminate the generators that have a +-1 coefficient in some
    relator, cheapest pivot first (Markowitz fill), then take the Smith
    form of what is left (Havas-Holt-Rees)."""
    index = {g: i for i, g in enumerate(p.generators)}
    rows: dict[int, dict[int, int]] = {}  # relator -> generator -> exponent sum
    at: dict[int, set[int]] = {i: set() for i in range(len(p.generators))}
    for r, rel in enumerate(p.relators):
        row: dict[int, int] = {}
        for name, exp in rel:
            i = index[name]
            row[i] = row.get(i, 0) + exp
            if not row[i]:
                del row[i]
        if row:
            rows[r] = row
            for i in row:
                at[i].add(r)

    def fill(r: int, i: int) -> int:
        return (len(rows[r]) - 1) * (len(at[i]) - 1)

    pivots = [(fill(r, i), r, i) for r, row in rows.items()
              for i, a in row.items() if a in (1, -1)]
    heapq.heapify(pivots)
    substitutions = []
    while pivots:
        cost, r, i = heapq.heappop(pivots)
        if r not in rows or rows[r].get(i) not in (1, -1):
            continue
        if fill(r, i) > cost:  # the rows around it grew: queue it again
            heapq.heappush(pivots, (fill(r, i), r, i))
            continue
        pivot = rows.pop(r)
        a = pivot.pop(i)
        for j in pivot:
            at[j].discard(r)
        # generator i = -a * (the rest of the pivot row), a = +-1
        substitutions.append((i, tuple((j, -a * c) for j, c in pivot.items())))
        others = at.pop(i)
        others.discard(r)
        for s in sorted(others):
            row = rows[s]
            f = row.pop(i) * a
            for j, c in pivot.items():
                v = row.get(j, 0) - f * c
                if v:
                    row[j] = v
                    at[j].add(s)
                else:
                    row.pop(j, None)
                    at[j].discard(s)
            if not row:
                del rows[s]
                continue
            for j, v in row.items():
                if v in (1, -1):
                    heapq.heappush(pivots, (fill(s, j), s, j))
    free = tuple(i for i in sorted(at) if not at[i])
    columns = tuple(i for i in sorted(at) if at[i])
    position = {i: k for k, i in enumerate(columns)}
    block = []
    for row in rows.values():
        dense = [0] * len(columns)
        for i, v in row.items():
            dense[position[i]] = v
        block.append(dense)
    diag, v = smith_normal_form(block, len(columns))
    return Abelianization(p, index, tuple(substitutions), free, columns,
                          tuple(diag), tuple(tuple(r) for r in v))
