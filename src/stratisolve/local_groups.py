"""Vertex-group handles, and normal forms in free products of cyclic groups.

A handle is a vertex group of the graph of groups.  Its class is its kind;
every handle class (this module's ``FreeProductOfCyclics``, and in
:mod:`fgroup_handles` the amalgam and HNN handles, which share one reduction
as ``CyclicSplitting`` subclasses, and the triangle handle) provides what
the graph-of-groups splice needs:

  letters                          letter name -> order (0 = infinite)
  wp(word) -> bool                 word problem
  cyclic_membership(g, t) -> k     g = t^k, or None, for a target t in one
                                   factor (every edge-group image is one)

Witness exponents are returned (not just booleans) because splicing in the
graph-of-groups solver must transport edge-group elements to the other end.

``FreeProductOfCyclics`` covers finite cyclic groups, the infinite cyclic
group, free groups (all letter orders 0) and arbitrary mixtures; it is the
black-vertex group, a white handle of its own and the factor type inside
amalgam and HNN handles.  It alone decides membership for any target and
computes element orders, which the amalgam and HNN constructors need to
check that their amalgamated and associated subgroups are infinite.
"""

from __future__ import annotations

from math import gcd

from .errors import UnknownLetterError
from .words import Word, concat, inverse, power


def solve_congruence(a: int, b: int, n: int):
    """Smallest s >= 0 with a*s == b (mod n); n == 0 means exact equality.
    Returns None when unsolvable."""
    if n == 0:
        if a == 0:
            return 0 if b == 0 else None
        if b % a:
            return None
        return b // a
    a %= n
    b %= n
    g = gcd(a, n)
    if b % g:
        return None
    if n == g:
        return 0
    a, b, n = a // g, b // g, n // g
    return (b * pow(a, -1, n)) % n


class FreeProductOfCyclics:
    """Free product of cyclic groups Z/n1 * Z/n2 * ... (ni = 0 gives Z);
    immutable, equal and hashed by its ``letter_list``."""

    def __init__(self, letter_list: tuple[tuple[str, int], ...]):
        self.__dict__.update(letter_list=letter_list, letters=dict(letter_list))

    def __setattr__(self, name, value):
        raise AttributeError(f"FreeProductOfCyclics is immutable: cannot set {name!r}")

    def __eq__(self, other):
        return isinstance(other, FreeProductOfCyclics) and self.letter_list == other.letter_list

    def __hash__(self):
        return hash(self.letter_list)

    def order_of_letter(self, name: str) -> int:
        n = self.letters.get(name)
        if n is None:
            raise UnknownLetterError(f"unknown letter {name!r}")
        return n

    # -- normal form ---------------------------------------------------------

    def normal_form(self, w: Word) -> Word:
        """Unique reduced syllable form: alternating letters, exponents
        nonzero and reduced mod the letter order."""
        out: list[tuple[str, int]] = []
        for name, exp in w:
            n = self.order_of_letter(name)
            if out and out[-1][0] == name:
                exp += out.pop()[1]
            if n:
                exp %= n
            if exp:
                out.append((name, exp))
        return tuple(out)

    def wp(self, w: Word) -> bool:
        return not self.normal_form(w)

    # -- cyclic reduction ------------------------------------------------------

    def cyclic_reduce(self, w: Word) -> tuple[Word, Word]:
        """Return (u, r) with w = u r u^-1 and r cyclically reduced."""
        r = self.normal_form(w)
        u: list[tuple[str, int]] = []
        while len(r) >= 2 and r[0][0] == r[-1][0]:
            # peel the first syllable s: w = s (m s_last s) s^-1; normal_form
            # reduces the merged exponent, and drops it when it is zero
            (name, first), last = r[0], r[-1][1]
            u.append(r[0])
            r = self.normal_form(r[1:-1] + ((name, last + first),))
        return tuple(u), r

    def elem_order(self, w: Word) -> int:
        _, r = self.cyclic_reduce(w)
        if not r:
            return 1
        if len(r) == 1:
            name, exp = r[0]
            n = self.order_of_letter(name)
            if n == 0:
                return 0
            return n // gcd(n, exp)
        return 0

    def cyclic_membership(self, g: Word, t: Word):
        """k with g = t^k, or None.

        Cyclically reduce t = u r u^-1.  A single-syllable r reduces to
        exponent arithmetic in that letter's cyclic group.  For length >= 2
        the length law l(r^k) = |k| l(r) of a cyclically reduced r leaves
        only k = +-l(g)/l(r), and both signs are checked."""
        tn = self.normal_form(t)
        gn = self.normal_form(g)
        if not tn:
            return 0 if not gn else None
        u, r = self.cyclic_reduce(tn)
        gp = self.normal_form(concat(inverse(u), gn, u))
        if len(r) == 1:
            if not gp:
                return 0
            if len(gp) != 1 or gp[0][0] != r[0][0]:
                return None
            n = self.order_of_letter(r[0][0])
            return solve_congruence(r[0][1], gp[0][1], n)
        if not gp:
            return 0
        if len(gp) % len(r):
            return None
        k = len(gp) // len(r)
        if self.wp(concat(gp, power(inverse(r), k))):
            return k
        if self.wp(concat(gp, power(r, k))):
            return -k
        return None


def cyclic_group(name: str, order: int) -> FreeProductOfCyclics:
    return FreeProductOfCyclics(((name, order),))


def free_group(names: tuple[str, ...]) -> FreeProductOfCyclics:
    return FreeProductOfCyclics(tuple((n, 0) for n in names))


TRIVIAL_HANDLE = FreeProductOfCyclics(())
