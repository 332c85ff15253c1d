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

Amalgam and HNN handles are both the group of a graph of groups with one
edge and infinite cyclic edge group (``CyclicSplitting``), and one reduction
decides both: a word is read as pieces between crossings of the edge (a
change of factor, or a stable letter), and a piece between two crossings of
opposite sign that lies in the edge group is transported to the other end
and merged into its neighbours, in one left-to-right stack pass.  A reduced
word with a crossing is nontrivial and lies in neither vertex group, by the
normal form theorem (Britton's lemma for HNN extensions).  Membership is
decided for a target in one vertex group (a factor, the base of an HNN
handle, one rotation's powers in a triangle handle), as every boundary image
is: g is reduced once, based at the target's end, and that group decides.
Other targets raise ``NotImplementedError``.
"""

from __future__ import annotations

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
# splittings over an infinite cyclic subgroup: graphs of groups with one edge
# ---------------------------------------------------------------------------

class CyclicSplitting:
    """A group split over an infinite cyclic subgroup C, the group of a graph
    of groups with one edge (Serre, Trees I.5): ``ends[i]`` is the factor at
    end i of the edge with the image of C's generator there, and ``_side``
    maps each vertex letter to its end.  A word is read as pieces between
    crossings of the edge and reduced once for both kinds; subclasses only
    build the ends."""

    stable: str | None = None  # the stable letter of an HNN extension

    def _pieces(self, w: Word, at: int) -> list:
        """w as [piece, e, piece, ..., piece] based at end ``at``: a crossing
        e = +-1 goes from end 0 to end 1 (resp. back), or is a stable letter;
        a word ending at the other end closes back to ``at``."""
        out: list = [[]]
        side = at
        for name, exp in w:
            if name == self.stable:
                step = 1 if exp > 0 else -1
                for _ in range(abs(exp)):
                    out += [step, []]
                continue
            s = self._side.get(name)
            if s is None:
                raise UnknownLetterError(f"unknown letter {name!r}")
            if s != side:
                out += [s - side, []]
                side = s
            out[-1].append((name, exp))
        if side != at:
            out += [at - side, []]
        out[::2] = [tuple(piece) for piece in out[::2]]
        return out

    def reduce(self, w: Word, at: int = 0) -> list:
        """The reduced form [piece, e, piece, ...] of w based at ``at``, with
        no pinch left: a piece z_i^k between crossings -e, e (i = 0 for
        e = 1, i = 1 for e = -1) becomes z_{1-i}^k and merges with its
        neighbours (Britton's lemma; the normal form theorem for amalgams).
        One left-to-right pass: a pinch changes only the top piece, and
        every crossing pair below it was already refuted."""
        pieces = self._pieces(w, at)
        out = [pieces[0]]
        for i in range(1, len(pieces), 2):
            e, a = pieces[i], pieces[i + 1]
            if len(out) > 1 and out[-2] == -e:
                # the piece lies at end 0 when e = 1, at end 1 when e = -1
                (group, z), (other, z_other) = self.ends[::e]
                k = group.cyclic_membership(out[-1], z)
                if k is not None:
                    out[-3:] = [other.normal_form(concat(out[-3], power(z_other, k), a))]
                    continue
            out += [e, a]
        return out

    def wp(self, w: Word) -> bool:
        out = self.reduce(w)
        return len(out) == 1 and self.ends[0][0].wp(out[0])

    def cyclic_membership(self, g: Word, t: Word):
        """k with g = t^k, or None, for a target t in one vertex group: a
        reduced form with a crossing lies in neither factor, so g lies in
        t's factor exactly when it reduces to one piece based there."""
        at = self._side.get(t[0][0], 0) if t else 0
        if len(self._pieces(t, at)) > 1:
            raise NotImplementedError(
                f"{type(self).__name__} decides membership only for targets "
                "in one vertex group"
            )
        out = self.reduce(g, at)
        if len(out) > 1:
            return None
        return self.ends[at][0].cyclic_membership(out[0], t)


class AmalgamHandle(CyclicSplitting):
    """Free product A *_C B of two free products of cyclics amalgamated over
    C = <z_A> = <z_B> infinite cyclic."""

    def __init__(self, a: FreeProductOfCyclics, b: FreeProductOfCyclics,
                 z_a: Word, z_b: Word):
        if a.elem_order(z_a) != 0:
            raise ValueError("z_A must have infinite order in factor A")
        if b.elem_order(z_b) != 0:
            raise ValueError("z_B must have infinite order in factor B")
        overlap = set(a.letters) & set(b.letters)
        if overlap:
            raise ValueError(f"factor letters overlap: {overlap}")
        self.ends = ((a, a.normal_form(z_a)), (b, b.normal_form(z_b)))
        self.letters = {**a.letters, **b.letters}
        self._side = {name: 0 for name in a.letters}
        self._side.update({name: 1 for name in b.letters})


class HNNHandle(CyclicSplitting):
    """HNN extension < A, t : t^-1 u t = v > with u, v of infinite order in
    the base A: t^-1 u^k t -> v^k and t v^k t^-1 -> u^k."""

    def __init__(self, base: FreeProductOfCyclics, stable: str, u: Word, v: Word):
        if base.elem_order(u) != 0 or base.elem_order(v) != 0:
            raise ValueError("associated subgroup generators must have infinite order")
        if stable in base.letters:
            raise ValueError("stable letter collides with a base letter")
        self.ends = ((base, base.normal_form(u)), (base, base.normal_form(v)))
        self.stable = stable
        self.letters = {**base.letters, stable: 0}
        self._side = dict.fromkeys(base.letters, 0)


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


class WhiteHandle(NamedTuple):
    """A white vertex group (its handle, whose class is its kind) together
    with the read-only map from boundary generators to handle words."""

    handle: FreeProductOfCyclics | AmalgamHandle | HNNHandle | TriangleHandle
    boundary_images: Mapping[str, Word]


def white_handle(spec: WhiteGroupSpec) -> WhiteHandle:
    """The classified handle of a white vertex group."""
    # (1a) boundary curves of order 1 vanish
    both = tuple(zip(spec.boundary_names, spec.boundary_orders))
    curves = tuple((name, k) for name, k in both if k != 1)
    names = tuple(name for name, _ in curves)
    orders = tuple(k for _, k in curves)
    images = {name: ((name, 1),) for name in names}
    images.update((name, EMPTY) for name, k in both if k == 1)
    c_word = tuple((name, 1) for name in names)  # c_1...c_p
    ys = spec.surface_names
    p, n, g = len(curves), len(ys), spec.genus
    q = genus_word(ys, g)

    if 0 in orders:
        # (1b) an undisked boundary curve is eliminated via the long relation
        j = max(i for i, k in enumerate(orders) if k == 0)
        handle = FreeProductOfCyclics(
            curves[:j] + curves[j + 1:] + tuple((y, 0) for y in ys)
        )
        # c_j = (c_1...c_{j-1})^-1 (c_{j+1}...c_p q)^-1
        images[names[j]] = concat(
            inverse(c_word[:j]), inverse(concat(c_word[j + 1:], q))
        )
    elif n >= 1 and p >= 2:
        handle = AmalgamHandle(
            FreeProductOfCyclics(curves), free_group(ys), c_word, inverse(q)
        )
    # n >= 1 below: one boundary curve c, or none: a closed surface is the
    # one-curve group with c of order 1, i.e. c dropped from every word
    elif n >= 1 and g == -1:
        # c y1^2 = 1: cyclic of order 2k on y1 (k = 1 when closed)
        handle = cyclic_group(ys[0], 2 * (orders[0] if p else 1))
        images.update((name, ((ys[0], -2),)) for name in names)
    elif n >= 1 and g > 0:
        # relation c [y1,y2]...[y_{2g-1},y_{2g}] = 1 becomes the HNN
        # relation y_{2g}^-1 (P y_{2g-1}) y_{2g} = y_{2g-1}
        base = FreeProductOfCyclics(curves + tuple((y, 0) for y in ys[:-1]))
        u = concat(c_word, genus_word(ys[:-2], g - 1), ((ys[-2], 1),))
        handle = HNNHandle(base, ys[-1], u, ((ys[-2], 1),))
    elif n >= 1:
        # g <= -2: split off the last surface letter, c y1^2...y_{m-1}^2 = y_m^-2
        base = FreeProductOfCyclics(curves + tuple((y, 0) for y in ys[:-1]))
        z_a = concat(c_word, genus_word(ys[:-1], g + 1))
        handle = AmalgamHandle(base, cyclic_group(ys[-1], 0), z_a, ((ys[-1], -2),))
    # n == 0, genus 0 below: polygon cases
    elif p <= 1:
        handle = TRIVIAL_HANDLE
        images.update((name, EMPTY) for name in names)
    elif p == 2:
        handle = cyclic_group(names[0], gcd(*orders))
        images[names[1]] = ((names[0], -1),)
    elif p == 3:
        handle = TriangleHandle(names, orders)
    else:
        # p >= 4: split {c1, c2} | {c3..cp} over z = (c1 c2)^-1 = c3...cp
        handle = AmalgamHandle(
            FreeProductOfCyclics(curves[:2]), FreeProductOfCyclics(curves[2:]),
            inverse(c_word[:2]), c_word[2:],
        )
    return WhiteHandle(handle, MappingProxyType(images))
