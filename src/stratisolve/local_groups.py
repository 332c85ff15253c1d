"""Normal forms and decision procedures in free products of cyclic groups.

``FreeProductOfCyclics`` covers finite cyclic groups, the infinite cyclic
group, free groups (all letter orders 0) and arbitrary mixtures; it is the
workhorse vertex-group implementation and the factor type used inside
amalgam and HNN handles.

Every handle implements the shared contract:

  wp(word) -> bool                 word problem
  elem_order(word) -> int          0 means infinite order
  cyclic_membership(g, t) -> k     g = t^k, or None

Witness exponents are returned (not just booleans) because splicing in the
graph-of-groups solver must transport edge-group elements to the other end.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import UnknownLetterError
from .words import Word, concat, inverse, power


class GroupHandle:
    """Duck-typed base; subclasses decide words over their own letters."""

    #: letter name -> order (0 = infinite); None means "not letter-based"
    letters: dict[str, int]

    #: True when designated-generator orders rest on normal-form theory for
    #: an amalgam/HNN/reflection handle rather than direct computation
    orders_assumed: bool = False

    def wp(self, w: Word) -> bool:
        raise NotImplementedError

    def elem_order(self, w: Word) -> int:
        raise NotImplementedError

    def cyclic_membership(self, g: Word, t: Word):
        """Return k with g = t^k, or None."""
        raise NotImplementedError


def length_law_exponent(
    handle: GroupHandle, g: Word, r: Word, n_g: int, n_r: int
):
    """k with g = r^k, or None, for a cyclically reduced r of reduced length
    n_r and a g of reduced length n_g.

    In free products, amalgams and HNN extensions the length law
    l(r^k) = |k| l(r) holds for cyclically reduced r, so only k = +-n_g/n_r
    can work and both signs are checked (n_g = 0 leaves k = 0: g = 1)."""
    if n_r == 0 or n_g % n_r:
        return None
    k = n_g // n_r
    if handle.wp(concat(g, power(inverse(r), k))):
        return k
    if k and handle.wp(concat(g, power(r, k))):
        return -k
    return None


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


@dataclass(frozen=True)
class FreeProductOfCyclics(GroupHandle):
    """Free product of cyclic groups Z/n1 * Z/n2 * ... (ni = 0 gives Z)."""

    letter_list: tuple[tuple[str, int], ...]

    @property
    def letters(self) -> dict[str, int]:
        return dict(self.letter_list)

    def order_of_letter(self, name: str) -> int:
        for n, o in self.letter_list:
            if n == name:
                return o
        raise UnknownLetterError(f"unknown letter {name!r}")

    # -- normal form ---------------------------------------------------------

    def _reduce_exp(self, name: str, exp: int) -> int:
        n = self.order_of_letter(name)
        return exp % n if n > 0 else exp

    def normal_form(self, w: Word) -> Word:
        """Unique reduced syllable form: alternating letters, exponents
        nonzero and reduced mod the letter order."""
        out: list[tuple[str, int]] = []
        for name, exp in w:
            self.order_of_letter(name)
            if out and out[-1][0] == name:
                exp += out.pop()[1]
            exp = self._reduce_exp(name, exp)
            if exp != 0:
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
            name = r[0][0]
            merged = self._reduce_exp(name, r[-1][1] + r[0][1])
            # peel the first syllable s: w = s (m s_last s) s^-1
            u.append(r[0])
            middle = r[1:-1]
            if merged:
                r = self.normal_form(middle + ((name, merged),))
            else:
                r = self.normal_form(middle)
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
        exponent arithmetic in that letter's cyclic group; for length >= 2
        the law l(r^k) = k l(r) pins |k| and both signs are checked."""
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
        return length_law_exponent(self, gp, r, len(gp), len(r))


def cyclic_group(name: str, order: int) -> FreeProductOfCyclics:
    return FreeProductOfCyclics(((name, order),))


def free_group(names: tuple[str, ...]) -> FreeProductOfCyclics:
    return FreeProductOfCyclics(tuple((n, 0) for n in names))


TRIVIAL_HANDLE = FreeProductOfCyclics(())
