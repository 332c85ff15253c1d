"""Group handles for white-vertex groups.

A white vertex with p boundary curves of required orders k_i and genus g has

    G_w = < c_1..c_p, y_1..y_n : c_1...c_p q = 1, c_i^{k_i} = 1 >

(k_i = 0 meaning no power relation).  ``white_handle`` classifies this into
a handle with a full decision kit plus an elimination map sending each
boundary generator to a word in the handle's letters:

  * some k_i in {0, 1}: curves of order 1 vanish; an undisked curve is
    eliminated and the group falls back to a free product of cyclics;
  * all k_i >= 2, n >= 1, p >= 2: amalgam of a free product of cyclics with
    a free group over the infinite cyclic subgroup <c_1...c_p> = <q^-1>;
  * n >= 1, p <= 1, with at most one curve c of order k >= 2; a closed
    surface is the case without a curve (c of order 1): an HNN extension
    with stable letter y_{2g} (genus g >= 1), the cyclic group of order 2k
    (genus -1, k = 1 when closed), or an amalgam with the last surface
    letter split off (genus <= -2);
  * n = 0: trivial / finite cyclic / triangle-group reflection matrices /
    polygon amalgam, by the number of boundary curves.

Amalgam and HNN word problems run by pinch reduction in one left-to-right
pass: syllables lying in the amalgamated (resp. associated) cyclic subgroup
are detected through factor membership with a witness exponent, transported
to the other side and merged into the top of a stack of reduced syllables.
Nonempty pinch-reduced words of length >= 2 are nontrivial by the normal form
theorem (Britton's lemma for HNN extensions).  Membership is decided for a
target in one factor (the base of an HNN handle, one rotation's powers in a
triangle handle), as every boundary image is: g is reduced once and that
factor decides.  Other targets raise ``NotImplementedError``.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import InternalError, UnknownLetterError
from .exactfield import Mat3, RealCyclotomicField
from .local_groups import (
    FreeProductOfCyclics,
    TRIVIAL_HANDLE,
    cyclic_group,
    free_group,
    solve_congruence,
)
from .words import EMPTY, Word, concat, genus_word, inverse, power


# ---------------------------------------------------------------------------
# amalgams  A *_C B  with C = <z_A> = <z_B> infinite cyclic
# ---------------------------------------------------------------------------

class AmalgamHandle:
    """Free product of two handles amalgamated over an infinite cyclic
    subgroup.  Both factors must be FreeProductOfCyclics (they own the
    cyclic-membership machinery the pinch reduction needs)."""

    def __init__(self, a: FreeProductOfCyclics, b: FreeProductOfCyclics,
                 z_a: Word, z_b: Word):
        if a.elem_order(z_a) != 0:
            raise ValueError("z_A must have infinite order in factor A")
        if b.elem_order(z_b) != 0:
            raise ValueError("z_B must have infinite order in factor B")
        overlap = set(a.letters) & set(b.letters)
        if overlap:
            raise ValueError(f"factor letters overlap: {overlap}")
        self.factors = (a, b)
        self.z = (a.normal_form(z_a), b.normal_form(z_b))
        self.letters = {**a.letters, **b.letters}
        self._side = {name: 0 for name in a.letters}
        self._side.update({name: 1 for name in b.letters})

    # -- syllables -------------------------------------------------------------

    def _split(self, w: Word) -> list[tuple[int, Word]]:
        sylls: list[tuple[int, list]] = []
        for name, exp in w:
            if name not in self._side:
                raise UnknownLetterError(f"unknown letter {name!r}")
            side = self._side[name]
            if sylls and sylls[-1][0] == side:
                sylls[-1][1].append((name, exp))
            else:
                sylls.append((side, [(name, exp)]))
        return [(side, tuple(ws)) for side, ws in sylls]

    def _c_exponent(self, side: int, w: Word):
        """Witness k with w = z_side^k in its factor, or None."""
        return self.factors[side].cyclic_membership(w, self.z[side])

    def pinch_reduce(self, w: Word) -> tuple[list[tuple[int, Word]], int]:
        """Reduce to syllables none of which lies in C, except possibly a
        single remaining C-syllable reported as ([], k) with w = z^k.

        Returns (syllables, c_exp); c_exp is meaningful only when the
        syllable list is empty.  One left-to-right pass over a stack of
        reduced syllables: a C-syllable z^k is folded into the top together
        with the next syllable (both lie on the other side) and the new top
        is tested again; with the stack empty, z^k is carried into the next
        syllable.  Every syllable below the top was already refuted, so this
        makes the same pinches in the same order as rescanning from the
        left after each one."""
        todo = self._split(w)[::-1]  # the next syllable is last
        done: list[tuple[int, Word]] = []
        while todo:
            side, word = todo.pop()
            k = self._c_exponent(side, word)
            if k is None:
                done.append((side, word))
                continue
            if done:
                side, word = done.pop()
                if k or todo:  # else the top stays as it was
                    nxt = todo.pop()[1] if todo else EMPTY
                    word = self.factors[side].normal_form(
                        concat(word, power(self.z[side], k), nxt)
                    )
                todo.append((side, word))
            elif not todo:
                return [], k
            elif k:
                side, word = todo.pop()
                todo.append((side, self.factors[side].normal_form(
                    concat(power(self.z[side], k), word)
                )))
        return done, 0

    # -- contract ---------------------------------------------------------------

    def wp(self, w: Word) -> bool:
        sylls, k = self.pinch_reduce(w)
        return not sylls and k == 0

    def cyclic_membership(self, g: Word, t: Word):
        """k with g = t^k, or None, for a target t in one factor.

        A pinch-reduced word of two or more syllables lies in neither
        factor (normal form theorem), so g lies in t's factor exactly when
        it reduces to z^k or to one syllable on that side."""
        sylls = self._split(t)
        if len(sylls) > 1:
            raise NotImplementedError(
                "AmalgamHandle decides membership only for targets in one factor"
            )
        side, t_word = sylls[0] if sylls else (0, EMPTY)
        g_sylls, k = self.pinch_reduce(g)
        if not g_sylls:
            word = power(self.z[side], k)
        elif len(g_sylls) == 1 and g_sylls[0][0] == side:
            word = g_sylls[0][1]
        else:
            return None
        return self.factors[side].cyclic_membership(word, t_word)


# ---------------------------------------------------------------------------
# HNN extensions of a free product of cyclics with cyclic associated subgroups
# ---------------------------------------------------------------------------

class HNNHandle:
    """HNN extension < A, t : t^-1 u t = v > with u, v of infinite order in
    the base A.  Pinches follow Britton's lemma: t^-1 u^k t -> v^k and
    t v^k t^-1 -> u^k."""

    def __init__(self, base: FreeProductOfCyclics, stable: str, u: Word, v: Word):
        if base.elem_order(u) != 0 or base.elem_order(v) != 0:
            raise ValueError("associated subgroup generators must have infinite order")
        if stable in base.letters:
            raise ValueError("stable letter collides with a base letter")
        self.base = base
        self.stable = stable
        self.u = base.normal_form(u)
        self.v = base.normal_form(v)
        self.letters = {**base.letters, stable: 0}

    def _tokens(self, w: Word):
        """Alternating [word-in-A, +-1, word-in-A, ...] token list."""
        toks: list = [EMPTY]
        for name, exp in w:
            if name == self.stable:
                step = 1 if exp > 0 else -1
                for _ in range(abs(exp)):
                    toks.append(step)
                    toks.append(EMPTY)
            elif name in self.base.letters:
                toks[-1] = concat(toks[-1], ((name, exp),))
            else:
                raise UnknownLetterError(f"unknown letter {name!r}")
        return toks

    def _pinch(self, e: int, a: Word):
        """The base word equal to t^e a t^-e, or None when a is not in the
        associated subgroup the pinch needs (<u> for e = -1, <v> for e = 1)."""
        inner, outer = (self.u, self.v) if e < 0 else (self.v, self.u)
        k = self.base.cyclic_membership(a, inner)
        return None if k is None else power(outer, k)

    def _britton(self, toks: list) -> list:
        """Britton reduction in one left-to-right pass: a pinch changes only
        the top piece, and every t-pair below it was already refuted."""
        out = [toks[0]]
        for i in range(1, len(toks), 2):
            e, a = toks[i], toks[i + 1]
            if len(out) > 1 and out[-2] == -e:
                rep = self._pinch(out[-2], out[-1])
                if rep is not None:
                    out[-3:] = [self.base.normal_form(concat(out[-3], rep, a))]
                    continue
            out += [e, a]
        return out

    def wp(self, w: Word) -> bool:
        toks = self._britton(self._tokens(w))
        return len(toks) == 1 and self.base.wp(toks[0])

    def cyclic_membership(self, g: Word, t: Word):
        """k with g = t^k, or None, for a target t in the base.  By
        Britton's lemma g lies in the base exactly when its reduction keeps
        no stable letter."""
        if any(name == self.stable for name, _ in t):
            raise NotImplementedError(
                "HNNHandle decides membership only for targets in the base"
            )
        toks = self._britton(self._tokens(g))
        if len(toks) > 1:
            return None
        return self.base.cyclic_membership(toks[0], t)


# ---------------------------------------------------------------------------
# triangle groups via the Tits reflection representation
# ---------------------------------------------------------------------------

class TriangleHandle:
    """Von Dyck group < c1, c2, c3 : c1 c2 c3, c_i^{k_i} > decided through
    exact 3x3 reflection matrices.

    The rotations are products of the standard generators s1, s2, s3 of the
    Coxeter group with m(s2,s3) = k1, m(s3,s1) = k2, m(s1,s2) = k3:
    c1 = s2 s3, c2 = s3 s1, c3 = s1 s2.  The geometric representation of a
    Coxeter group is faithful, and the von Dyck group is its even subgroup,
    so a word is trivial iff its matrix is the identity."""

    def __init__(self, names: tuple[str, str, str], orders: tuple[int, int, int]):
        if any(k < 2 for k in orders):
            raise ValueError("triangle orders must all be >= 2")
        self.names = names
        self.letters = dict(zip(names, orders))
        self.L = lcm(*orders)
        self.field = RealCyclotomicField(self.L)
        f = self.field
        m = {
            (0, 0): 1, (1, 1): 1, (2, 2): 1,
            (1, 2): orders[0], (2, 1): orders[0],
            (2, 0): orders[1], (0, 2): orders[1],
            (0, 1): orders[2], (1, 0): orders[2],
        }
        refl = []
        for i in range(3):
            rows = []
            for r in range(3):
                row = []
                for cidx in range(3):
                    # s_i(e_c) = e_c - 2 B(e_i, e_c) e_i;  2B(e_i,e_c) is 2
                    # on the diagonal and -2cos(pi/m_ic) off it
                    val = f.one() if r == cidx else f.zero()
                    if r == i:
                        if cidx == i:
                            val = f.sub(val, f.from_int(2))
                        else:
                            val = f.add(val, f.two_cos_pi_over(m[(i, cidx)]))
                    row.append(val)
                rows.append(row)
            refl.append(Mat3(f, rows))
        if not all((s * s).is_identity() for s in refl):
            raise InternalError("reflection matrices: s_i^2 != I")
        s1, s2, s3 = refl
        # _powers[name][e] = rotation^e for 0 <= e < k, so a letter costs one
        # product whatever its exponent
        identity = Mat3.identity(f)
        self._powers = {}
        for name, k, rot in zip(names, orders, (s2 * s3, s3 * s1, s1 * s2)):
            pw = [identity, rot]
            for _ in range(k - 2):
                pw.append(pw[-1] * rot)
            if not (pw[-1] * rot).is_identity():
                raise InternalError(f"reflection matrices: {name}^{k} != I")
            self._powers[name] = pw
        c1, c2, c3 = (self._powers[name][1] for name in names)
        if not (c1 * c2 * c3).is_identity():
            raise InternalError("reflection matrices: c1 c2 c3 != I")

    def matrix(self, w: Word) -> Mat3:
        out = Mat3.identity(self.field)
        for name, exp in w:
            pw = self._powers.get(name)
            if pw is None:
                raise UnknownLetterError(f"unknown letter {name!r}")
            out = out * pw[exp % len(pw)]
        return out

    def wp(self, w: Word) -> bool:
        return self.matrix(w).is_identity()

    def cyclic_membership(self, g: Word, t: Word):
        """k with g = t^k, or None, for t empty or one letter c^e: g must be
        c^j for a j found in the power table of c."""
        if not t:
            return 0 if self.wp(g) else None
        if len(t) > 1:
            raise NotImplementedError(
                "TriangleHandle decides membership only for powers of one letter"
            )
        (name, e), = t
        pw = self._powers.get(name)
        if pw is None:
            raise UnknownLetterError(f"unknown letter {name!r}")
        m = self.matrix(g)
        if m not in pw:
            return None
        return solve_congruence(e, pw.index(m), len(pw))


# ---------------------------------------------------------------------------
# classification of white vertex groups
# ---------------------------------------------------------------------------

class WhiteGroupSpec(NamedTuple):
    """Boundary count p, per-boundary required orders (0 = infinite),
    genus, plus the generator names to use."""

    boundary_names: tuple[str, ...]
    boundary_orders: tuple[int, ...]
    genus: int
    surface_names: tuple[str, ...]


class WhiteHandle:
    """A white vertex group (its handle, whose class is its kind) together
    with the read-only map from boundary generators to handle words."""

    def __init__(
        self, handle: FreeProductOfCyclics | AmalgamHandle | HNNHandle | TriangleHandle,
        boundary_images: Mapping[str, Word],
    ):
        images = MappingProxyType(dict(boundary_images))
        self.__dict__.update(handle=handle, boundary_images=images)

    def __setattr__(self, name, value):
        raise AttributeError(f"WhiteHandle is immutable: cannot set {name!r}")

    def __eq__(self, other):
        return isinstance(other, WhiteHandle) and vars(self) == vars(other)


@lru_cache(maxsize=256)
def white_handle(spec: WhiteGroupSpec) -> WhiteHandle:
    """The classified handle of a white vertex group.  Handles are never
    changed once built, so one is shared by every classification of the
    same spec: each validity round of the order engine and the graph of
    groups.  The graph of groups rereads only the last round, so the cache
    needs to hold one round (129 entries on a 64-link chain)."""
    images = {name: ((name, 1),) for name in spec.boundary_names}
    q = genus_word(spec.surface_names, spec.genus)
    curves = tuple(zip(spec.boundary_names, spec.boundary_orders))
    c_word = tuple((name, 1) for name in spec.boundary_names)  # c_1...c_p

    # (1a) boundary curves of order 1 vanish
    if any(k == 1 for k in spec.boundary_orders):
        keep = [i for i, k in enumerate(spec.boundary_orders) if k != 1]
        sub = WhiteGroupSpec(
            tuple(spec.boundary_names[i] for i in keep),
            tuple(spec.boundary_orders[i] for i in keep),
            spec.genus,
            spec.surface_names,
        )
        inner = white_handle(sub)
        out = dict(inner.boundary_images)
        for i, name in enumerate(spec.boundary_names):
            if spec.boundary_orders[i] == 1:
                out[name] = EMPTY
        return WhiteHandle(inner.handle, out)

    # (1b) an undisked boundary curve is eliminated via the long relation
    if 0 in spec.boundary_orders:
        j = max(i for i, k in enumerate(spec.boundary_orders) if k == 0)
        handle = FreeProductOfCyclics(
            curves[:j] + curves[j + 1:] + tuple((y, 0) for y in spec.surface_names)
        )
        # c_j = (c_1...c_{j-1})^-1 (c_{j+1}...c_p q)^-1
        images[spec.boundary_names[j]] = concat(
            inverse(c_word[:j]), inverse(concat(c_word[j + 1:], q))
        )
        return WhiteHandle(handle, images)

    p, n, g = len(spec.boundary_names), len(spec.surface_names), spec.genus

    if n >= 1 and p >= 2:
        a = FreeProductOfCyclics(curves)
        b = free_group(spec.surface_names)
        z_b = inverse(q)
        return WhiteHandle(AmalgamHandle(a, b, c_word, z_b), images)

    if n >= 1:
        # one boundary curve c, or none: a closed surface is the one-curve
        # group with c of order 1, i.e. c dropped from every word below
        ys = spec.surface_names
        if g == -1:
            # c y1^2 = 1: cyclic of order 2k on y1 (k = 1 when closed)
            k = spec.boundary_orders[0] if p else 1
            images.update({name: ((ys[0], -2),) for name in spec.boundary_names})
            return WhiteHandle(cyclic_group(ys[0], 2 * k), images)
        base = FreeProductOfCyclics(curves + tuple((y, 0) for y in ys[:-1]))
        if g > 0:
            # relation c [y1,y2]...[y_{2g-1},y_{2g}] = 1 becomes the HNN
            # relation y_{2g}^-1 (P y_{2g-1}) y_{2g} = y_{2g-1}
            u = concat(c_word, genus_word(ys[:-2], g - 1), ((ys[-2], 1),))
            v = ((ys[-2], 1),)
            return WhiteHandle(HNNHandle(base, ys[-1], u, v), images)
        # g <= -2: split off the last surface letter, c y1^2...y_{m-1}^2 = y_m^-2
        z_a = concat(c_word, genus_word(ys[:-1], g + 1))
        z_b = ((ys[-1], -2),)
        handle = AmalgamHandle(base, cyclic_group(ys[-1], 0), z_a, z_b)
        return WhiteHandle(handle, images)

    # n == 0, genus 0: polygon cases
    if p == 0:
        return WhiteHandle(TRIVIAL_HANDLE, images)
    if p == 1:
        images[spec.boundary_names[0]] = EMPTY
        return WhiteHandle(TRIVIAL_HANDLE, images)
    if p == 2:
        c1, c2 = spec.boundary_names
        k1, k2 = spec.boundary_orders
        d = gcd(k1, k2)
        handle = cyclic_group(c1, d)
        images[c2] = ((c1, -1),)
        return WhiteHandle(handle, images)
    if p == 3:
        handle = TriangleHandle(spec.boundary_names, spec.boundary_orders)
        return WhiteHandle(handle, images)
    # p >= 4: split {c1, c2} | {c3..cp} over z = (c1 c2)^-1 = c3...cp
    a = FreeProductOfCyclics(curves[:2])
    b = FreeProductOfCyclics(curves[2:])
    handle = AmalgamHandle(a, b, inverse(c_word[:2]), c_word[2:])
    return WhiteHandle(handle, images)
