import hashlib
import itertools
import random
from math import lcm

import pytest

from stratisolve.errors import UnknownLetterError
from stratisolve.fgroup_handles import (
    AmalgamHandle,
    HNNHandle,
    TriangleHandle,
    WhiteGroupSpec,
    white_handle,
)
from stratisolve.local_groups import (
    TRIVIAL_HANDLE,
    FreeProductOfCyclics,
    cyclic_group,
    free_group,
    solve_congruence,
)
from stratisolve.oracle import cayley_wp, todd_coxeter
from stratisolve.pipeline import compile
from stratisolve.words import concat, genus_word, inverse, power


def comm(u, v):
    return concat(u, v, inverse(u), inverse(v))


def _order_by_wp(h, w):
    """Order of w in handle h (0 = infinite): the least j in 1..N with
    w^j = 1, N the lcm of the finite letter orders.  A torsion element of
    these amalgams, HNN extensions and von Dyck groups is conjugate into a
    cyclic letter subgroup, so its order divides N."""
    n = lcm(*(k for k in h.letters.values() if k))
    return next((j for j in range(1, n + 1) if h.wp(power(w, j))), 0)


# -- amalgamated products ----------------------------------------------------

def klein_bottle():
    # <a> *_{a^2 = b^-2} <b>
    a = cyclic_group("a", 0)
    b = cyclic_group("b", 0)
    return AmalgamHandle(a, b, (("a", 2),), (("b", -2),))


def test_amalgam_wp():
    h = klein_bottle()
    assert h.wp((("a", 2), ("b", 2)))
    assert not h.wp((("a", 1), ("b", 1)))
    assert not h.wp(comm((("a", 1),), (("b", 1),)))
    assert h.wp(comm((("a", 2),), (("b", 1),)))  # a^2 is central... in <a,b^2>? no:
    # a^2 = b^-2 commutes with b, so [a^2, b] = 1 indeed.


def test_amalgam_elem_order():
    # (Z/4 * Z) *_{x = b^2} Z: finite letter orders survive the amalgam
    a = FreeProductOfCyclics((("a", 4), ("x", 0)))
    b = cyclic_group("b", 0)
    h = AmalgamHandle(a, b, (("x", 1),), (("b", 2),))
    assert _order_by_wp(h, (("a", 1),)) == 4
    assert _order_by_wp(h, (("a", 2),)) == 2
    assert _order_by_wp(h, (("b", 1),)) == 0
    assert _order_by_wp(h, (("a", 1), ("b", 1))) == 0
    assert _order_by_wp(h, ()) == 1
    assert h.wp((("x", 1), ("b", -2)))


def test_amalgam_requires_infinite_amalgamated_element():
    with pytest.raises(ValueError):
        AmalgamHandle(
            cyclic_group("a", 4), cyclic_group("b", 6), (("a", 2),), (("b", 3),)
        )


def test_amalgam_cyclic_membership():
    h = klein_bottle()
    t = (("a", 1),)
    for k in (-2, 0, 3):
        assert h.cyclic_membership(power(t, k), t) == k
    assert h.cyclic_membership((("b", -2),), t) == 2  # a^2 = b^-2
    b = (("b", 1),)
    assert h.cyclic_membership((("a", 2),), b) == -2
    assert h.cyclic_membership((("a", 2), ("b", 1)), b) == -1
    assert h.cyclic_membership((("b", 1),), t) is None
    assert h.cyclic_membership((("a", 1), ("b", 1)), t) is None
    # a target with a syllable in each factor is refused, never guessed
    with pytest.raises(NotImplementedError):
        h.cyclic_membership((("a", 1), ("b", 1)), (("a", 1), ("b", 1)))


# -- HNN extensions ----------------------------------------------------------

def bs_1_2():
    # <b, t | t^-1 b t = b^2>: base Z on b, u = b, v = b^2 would be an
    # ascending HNN; here stable conjugates u to v.
    base = cyclic_group("b", 0)
    return HNNHandle(base, "t", (("b", 1),), (("b", 2),))


def test_hnn_wp_britton():
    h = bs_1_2()
    rel = (("t", -1), ("b", 1), ("t", 1), ("b", -2))
    assert h.wp(rel)
    assert not h.wp((("t", 1),))
    assert not h.wp((("b", 1),))
    assert not h.wp(comm((("b", 1),), (("t", 1),)))
    # t^-1 b^2 t = b^4
    assert h.wp((("t", -1), ("b", 2), ("t", 1), ("b", -4)))
    # b has no t-th root on the v side: t b t^-1 only defined for even powers
    assert not h.wp((("t", 1), ("b", 1), ("t", -1), ("b", -1)))


def test_hnn_elem_order_and_membership():
    h = bs_1_2()
    assert _order_by_wp(h, (("t", 1),)) == 0
    assert _order_by_wp(h, (("b", 3),)) == 0
    assert _order_by_wp(h, ()) == 1
    b = (("b", 1),)
    assert h.cyclic_membership((("b", 2),), b) == 2
    assert h.cyclic_membership((("t", -1), ("b", 1), ("t", 1)), b) == 2
    assert h.cyclic_membership((("t", 1),), b) is None
    # targets with a stable letter are refused, never guessed
    t = (("t", 1), ("b", 1))
    with pytest.raises(NotImplementedError):
        h.cyclic_membership(power(t, 2), t)
    with pytest.raises(NotImplementedError):
        h.cyclic_membership(b, (("t", 1),))


# -- the one reduction: pieces between crossings of one edge -------------------

A, B = (("a", 1),), (("b", 1),)


def test_pinch_carries_a_leading_c_syllable_right():
    # based at B's end: a^2 = z_A between crossings becomes z_B = b^-2, which
    # merges into b: b^-2 b = b^-1
    assert klein_bottle().reduce((("a", 2), ("b", 1), ("a", 1)), at=1) == [
        (("b", -1),), -1, A, 1, ()
    ]


def test_pinch_cascades_leftwards():
    # a^2 folds b . b^-1 into b^-2 = z_B, which then folds into a: a a^2
    w = concat(A, B, (("a", 2),), inverse(B))
    assert klein_bottle().reduce(w) == [(("a", 3),)]


def test_pinch_collapses_to_a_single_c_element():
    w = concat(A, B, (("a", 2),), inverse(B), inverse(A))
    h = klein_bottle()
    assert h.reduce(w) == [(("a", 2),)]
    assert h.reduce(w, at=1) == [(("b", -2),)]
    assert h.reduce(power(w, -3)) == [(("a", -6),)]


def test_britton_nested_cascade():
    h = bs_1_2()
    t, ti = (("t", 1),), (("t", -1),)
    # t^-1 (t^-1 b t) t = t^-1 b^2 t = b^4
    assert h.reduce(concat(ti, ti, B, t, t)) == [(("b", 4),)]
    # t (b^-1 (t^-1 b t) b^-1) t^-1: the outer pair pinches only after
    # the inner one has emptied the piece between them
    w = concat(t, inverse(B), ti, B, t, inverse(B), ti)
    assert h.reduce(w) == [()]
    # the merged top b^2 b^2 meets the next pair: b^4 (t^-1 b t) = b^6
    w = concat(ti, B, t, (("b", 2),), ti, B, t)
    assert h.reduce(w) == [(("b", 6),)]
    # the pair t b t^-1 is not pinchable: b is not in <b^2>
    assert h.reduce(concat(t, B, ti)) == [(), 1, B, -1, ()]


def test_hnn_membership_of_targets_conjugate_into_the_base():
    """A g written with stable letters is decided after Britton reduction;
    a target conjugate into the base but not in it is refused."""
    h = bs_1_2()
    b = (("b", 1),)
    # t^-1 b t = b^2, so t b^2 t^-1 = b
    assert h.cyclic_membership((("t", 1), ("b", 2), ("t", -1)), b) == 1
    assert h.cyclic_membership((("t", 1), ("b", 3), ("t", -1)), b) is None
    with pytest.raises(NotImplementedError):
        h.cyclic_membership(b, (("t", 1), ("b", 1), ("t", -1)))
    torus = white_handle(spec([3], 1, 2)).handle
    c, y = (("c1", 1),), (("y2", 1),)
    g = concat(y, power(c, 2), inverse(y))
    assert torus.cyclic_membership(g, c) is None
    with pytest.raises(NotImplementedError):
        torus.cyclic_membership(g, concat(y, c, inverse(y)))


@pytest.mark.parametrize("genus", [1, 2, 3])
@pytest.mark.parametrize("curve", [None, 2, 3])
def test_hnn_membership_finds_every_power(genus, curve):
    """g = t^k for random base targets t, written with conjugated HNN
    relators spliced in: a witness always comes back, and it is verified
    by the word problem."""
    h = white_handle(spec([] if curve is None else [curve], genus, 2 * genus)).handle
    assert isinstance(h, HNNHandle)
    s = h.stable
    (base, u), (_, v) = h.ends
    relator = concat(((s, -1),), u, ((s, 1),), inverse(v))
    assert h.wp(relator)
    rng = random.Random(10 * genus + (curve or 0))
    letters = sorted(h.letters)
    base_letters = sorted(base.letters)
    for _ in range(40):
        t = _random_word(rng, base_letters, rng.randint(1, 4))
        x = _random_word(rng, letters, rng.randint(0, 3))
        r = power(relator, rng.choice((-1, 1)))
        g = concat(x, r, inverse(x), power(t, rng.randint(-3, 3)))
        k = h.cyclic_membership(g, t)
        assert k is not None and h.wp(concat(g, power(t, -k)))


# -- reflection triangle handles ----------------------------------------------

def test_triangle_235_wp():
    h = TriangleHandle(("c1", "c2", "c3"), (2, 3, 5))
    assert h.wp((("c1", 2),))
    assert h.wp((("c2", 3),))
    assert h.wp((("c1", 1), ("c2", 1), ("c3", 1)))
    assert not h.wp((("c1", 1), ("c2", 1)))
    assert _order_by_wp(h, (("c1", 1), ("c2", 1))) == 5  # (c1 c2) = c3^-1
    assert _order_by_wp(h, (("c3", 1),)) == 5


def test_triangle_237_product_order():
    h = TriangleHandle(("c1", "c2", "c3"), (2, 3, 7))
    w = (("c1", 1), ("c2", 1))
    assert _order_by_wp(h, w) == 7
    assert h.wp(power(w, 7))
    for k in range(1, 7):
        assert not h.wp(power(w, k))


def test_triangle_infinite_element():
    h = TriangleHandle(("c1", "c2", "c3"), (3, 3, 4))
    w = comm((("c1", 1),), (("c2", 1),))
    assert _order_by_wp(h, w) == 0


def test_triangle_membership_refuses_infinite_targets():
    # edge groups at a triangle handle are finite; an infinite-order target
    # gets an explicit refusal, never a bounded scan's "not a member"
    h = TriangleHandle(("c1", "c2", "c3"), (3, 3, 4))
    t = comm((("c1", 1),), (("c2", 1),))
    with pytest.raises(NotImplementedError):
        h.cyclic_membership(power(t, 2), t)


def test_triangle_membership():
    h = TriangleHandle(("c1", "c2", "c3"), (2, 3, 5))
    t = (("c2", 1),)
    assert h.cyclic_membership((("c2", 2),), t) == 2
    assert h.cyclic_membership((("c1", 1),), t) is None
    assert h.cyclic_membership((("c2", 1),), (("c2", -1),)) == 2
    assert h.cyclic_membership((("c3", 1),), (("c3", 2),)) == 3  # 2*3 = 1 mod 5
    assert h.cyclic_membership((("c1", 1), ("c1", 1)), ()) == 0
    assert h.cyclic_membership((("c1", 1),), ()) is None


@pytest.mark.parametrize("orders", [(2, 3, 5), (2, 3, 7), (2, 4, 5)])
def test_triangle_power_tables(orders):
    h = TriangleHandle(("c1", "c2", "c3"), orders)
    for name, k in zip(h.names, orders):
        pw = h._powers[name]
        assert len(pw) == k
        assert all(type(c) is int
                   for m in pw for row in m.rows for x in row for c in x)
        rot = pw[1]
        for e in range(-2 * k, 2 * k + 1):
            assert h.matrix(((name, e),)) == rot.pow(e % k)


def _chamber_point(h, w):
    """The row vector (1, 1, 1) times the matrix of w, one row-vector
    product per letter over h's power tables."""
    f = h.field
    v = (f.one(),) * 3
    for name, exp in w:
        pw = h._powers[name]
        v = tuple(f.dot(v, col) for col in zip(*pw[exp % len(pw)].rows))
    return v


@pytest.mark.parametrize("orders", [
    (2, 3, 5), (2, 3, 7), (2, 4, 5), (3, 3, 4), (2, 3, 6), (2, 4, 4),
    (3, 3, 3), (2, 3, 3), (2, 3, 4), (2, 2, 5), (4, 5, 6), (2, 3, 11),
])
def test_chamber_point_decides_like_the_matrices(orders):
    # (1, 1, 1) lies in the open dual fundamental chamber, whose stabilizer
    # is trivial (Tits): on spherical, Euclidean and hyperbolic types, the
    # point a word moves it to gives the handle's wp and membership answers
    h = TriangleHandle(("c1", "c2", "c3"), orders)
    start = _chamber_point(h, ())
    exponent = {name: {_chamber_point(h, ((name, j),)): j for j in range(k)}
                for name, k in h.letters.items()}
    rng = random.Random(sum(orders) * 1000 + orders[0])
    n, trivial = 60, 0
    for _ in range(n):
        w = tuple((rng.choice(h.names), rng.choice((-3, -2, -1, 1, 2, 3)))
                  for _ in range(rng.randint(1, 14)))
        if rng.random() < 0.3:
            w = concat(w, inverse(w[:rng.randint(1, len(w))]))
        v = _chamber_point(h, w)
        assert h.wp(w) == (v == start), w
        assert h.cyclic_membership(w, ()) == (0 if v == start else None)
        trivial += v == start
        for name, k in h.letters.items():
            j = exponent[name].get(v)
            for e in (1, -1, 2):
                want = None if j is None else solve_congruence(e, j, k)
                assert h.cyclic_membership(w, ((name, e),)) == want, (w, name, e)
    assert 0 < trivial < n


def test_triangle_235_agrees_with_coset_table(fixtures):
    c = compile(fixtures["FX-TRI(2,3,5)"])
    table = todd_coxeter(c.pres)
    assert table.status == "complete" and table.order == 60
    h = c.gog.white_handles["w0"].handle
    assert isinstance(h, TriangleHandle)
    rng = random.Random(235)
    trivial = 0
    for _ in range(200):
        w = _random_word(rng, h.names, rng.randint(1, 12))
        assert h.wp(w) == cayley_wp(table, w), w
        trivial += h.wp(w)
    assert 0 < trivial < 200


# -- white vertex classification -----------------------------------------------

def spec(orders, genus, n_surface, prefix="c"):
    return WhiteGroupSpec(
        tuple(f"{prefix}{i+1}" for i in range(len(orders))),
        tuple(orders),
        genus,
        tuple(f"y{i+1}" for i in range(n_surface)),
    )


def test_order_one_boundaries_vanish():
    wh = white_handle(spec([1, 3], 0, 0))
    assert wh.boundary_images["c1"] == ()
    assert wh.handle.wp(wh.boundary_images["c1"])


@pytest.mark.parametrize("genus, n_surface", [(-2, 2), (-1, 1), (0, 0), (1, 2), (2, 4)])
def test_order_one_curves_fold_away(genus, n_surface):
    """A spec classifies as the spec without its order-1 curves (same handle
    class, letters and images), each stripped curve mapping to the empty
    word."""
    grid = itertools.chain.from_iterable(
        itertools.product((0, 1, 2, 3, 5), repeat=p) for p in range(1, 5)
    )
    for orders in (o for o in grid if 1 in o):
        full = spec(orders, genus, n_surface)
        curves = list(zip(full.boundary_names, orders))
        kept = [(name, k) for name, k in curves if k != 1]
        sub = WhiteGroupSpec(tuple(name for name, _ in kept),
                             tuple(k for _, k in kept), genus, full.surface_names)
        wh, wh_sub = white_handle(full), white_handle(sub)
        assert type(wh.handle) is type(wh_sub.handle), orders
        assert wh.handle.letters == wh_sub.handle.letters, orders
        stripped = {name: () for name, k in curves if k == 1}
        assert dict(wh.boundary_images) == {**wh_sub.boundary_images, **stripped}, orders


def test_infinite_boundary_eliminated():
    # genus -2, so the long relation is c1 c2 y1^2 y2^2 = 1
    wh = white_handle(spec([2, 0], -2, 2))
    assert isinstance(wh.handle, FreeProductOfCyclics)
    # eliminated generator expressed in the remaining free product
    img = wh.boundary_images["c2"]
    assert img and all(name != "c2" for name, _ in img)
    assert wh.handle.elem_order(wh.boundary_images["c1"]) == 2
    assert wh.handle.elem_order(wh.boundary_images["c2"]) == 0
    # the long relation holds under the substitution
    rel = concat(
        wh.boundary_images["c1"], wh.boundary_images["c2"], (("y1", 2), ("y2", 2))
    )
    assert wh.handle.wp(rel)


def test_disk_and_sphere_trivial():
    assert white_handle(spec([], 0, 0)).handle is TRIVIAL_HANDLE
    wh = white_handle(spec([5], 0, 0))
    assert wh.handle is TRIVIAL_HANDLE
    assert wh.handle.wp(wh.boundary_images["c1"])


def test_two_boundary_gcd():
    wh = white_handle(spec([4, 6], 0, 0))
    assert isinstance(wh.handle, FreeProductOfCyclics)
    assert wh.handle.elem_order(wh.boundary_images["c1"]) == 2
    assert wh.handle.wp(concat(wh.boundary_images["c1"], wh.boundary_images["c2"]))


def test_three_boundary_triangle():
    wh = white_handle(spec([2, 3, 5], 0, 0))
    h = wh.handle
    assert isinstance(h, TriangleHandle)
    assert h.wp(concat(*(wh.boundary_images[f"c{i}"] for i in (1, 2, 3))))


def test_polygon_amalgam():
    wh = white_handle(spec([2, 2, 2, 2], 0, 0))
    assert isinstance(wh.handle, AmalgamHandle)
    h = wh.handle
    long_rel = concat(*(wh.boundary_images[f"c{i}"] for i in (1, 2, 3, 4)))
    assert h.wp(long_rel)
    assert _order_by_wp(h, wh.boundary_images["c1"]) == 2
    assert not h.wp(concat(wh.boundary_images["c1"], wh.boundary_images["c2"]))


def test_positive_genus_with_boundary_hnn():
    wh = white_handle(spec([3], 1, 2))
    assert isinstance(wh.handle, HNNHandle)
    h = wh.handle
    # relation c [y1, y2] = 1 holds
    rel = concat(wh.boundary_images["c1"], comm((("y1", 1),), (("y2", 1),)))
    assert h.wp(rel)
    assert _order_by_wp(h, wh.boundary_images["c1"]) == 3


def test_projective_with_boundary_cyclic():
    # c y^2 = 1 with c of order k gives Z/2k
    wh = white_handle(spec([3], -1, 1))
    assert isinstance(wh.handle, FreeProductOfCyclics)
    assert wh.handle.elem_order((("y1", 1),)) == 6
    assert wh.handle.elem_order(wh.boundary_images["c1"]) == 3
    assert wh.handle.wp(concat(wh.boundary_images["c1"], (("y1", 2),)))


def test_nonorientable_genus2_with_boundary():
    wh = white_handle(spec([2], -2, 2))
    assert isinstance(wh.handle, AmalgamHandle)
    rel = concat(wh.boundary_images["c1"], (("y1", 2), ("y2", 2)))
    assert wh.handle.wp(rel)
    assert _order_by_wp(wh.handle, wh.boundary_images["c1"]) == 2


def test_closed_surfaces():
    torus = white_handle(spec([], 1, 2))
    assert isinstance(torus.handle, HNNHandle)
    assert torus.handle.wp(comm((("y1", 1),), (("y2", 1),)))

    rp2 = white_handle(spec([], -1, 1))
    assert rp2.handle.wp((("y1", 2),))
    assert not rp2.handle.wp((("y1", 1),))

    genus2 = white_handle(spec([], 2, 4))
    rel = concat(
        comm((("y1", 1),), (("y2", 1),)), comm((("y3", 1),), (("y4", 1),))
    )
    assert isinstance(genus2.handle, HNNHandle)
    assert genus2.handle.wp(rel)
    assert not genus2.handle.wp(comm((("y1", 1),), (("y3", 1),)))

    klein = white_handle(spec([], -2, 2))
    assert klein.handle.wp((("y1", 2), ("y2", 2)))
    assert not klein.handle.wp((("y1", 1), ("y2", 1)))


def _random_word(rng, letters, length):
    return tuple((rng.choice(letters), rng.choice((-2, -1, 1, 2)))
                 for _ in range(length))


@pytest.mark.parametrize("curve", [None, 2, 3])
@pytest.mark.parametrize("genus", [1, 2, 3, -1, -2, -3])
def test_surface_with_at_most_one_curve(genus, curve):
    n = 2 * genus if genus > 0 else -genus
    orders = [] if curve is None else [curve]
    wh = white_handle(spec(orders, genus, n))
    h = wh.handle
    ys = [f"y{i + 1}" for i in range(n)]
    if genus > 0:
        q = concat(*(
            comm(((a, 1),), ((b, 1),)) for a, b in zip(ys[::2], ys[1::2])
        ))
    else:
        q = tuple((y, 2) for y in ys)
    relators = [q]
    if curve is not None:
        c = wh.boundary_images["c1"]
        relators = [concat(c, q), power(c, curve)]
        assert _order_by_wp(h, c) == curve
    rng = random.Random(100 * genus + (curve or 0))
    letters = sorted(h.letters)
    for _ in range(20):
        product = ()
        for _ in range(3):
            u = _random_word(rng, letters, rng.randint(0, 4))
            r = power(rng.choice(relators), rng.choice((-1, 1)))
            product = concat(product, u, r, inverse(u))
        assert h.wp(product)

    # a homomorphism to Z that kills the relators (and the curve) proves
    # a word nontrivial when it sends the word to a nonzero value
    if genus > 0:
        weight = {"y1": 1}
    elif n >= 2:
        weight = {"y1": 1, "y2": -1}
    else:
        return  # genus -1 gives a finite cyclic group
    assert all(sum(weight.get(y, 0) * e for y, e in r) == 0 for r in relators)
    seen = 0
    for _ in range(40):
        w = _random_word(rng, letters, rng.randint(1, 8))
        if sum(weight.get(y, 0) * e for y, e in w):
            seen += 1
            assert not h.wp(w)
    assert seen >= 10


def test_multi_boundary_positive_genus_amalgam():
    wh = white_handle(spec([2, 3], 1, 2))
    assert isinstance(wh.handle, AmalgamHandle)
    rel = concat(
        wh.boundary_images["c1"],
        wh.boundary_images["c2"],
        comm((("y1", 1),), (("y2", 1),)),
    )
    assert wh.handle.wp(rel)
    assert _order_by_wp(wh.handle, wh.boundary_images["c2"]) == 3


@pytest.mark.parametrize("genus, orders", [
    (1, [2, 3]), (-3, [2, 2]), (0, [2, 3, 2, 5]), (-2, [3]),
    (1, []), (2, [3]), (3, [2]),
])
def test_one_pass_reductions_leave_no_pinch(genus, orders):
    """Random words rich in conjugated C-elements (amalgams) or pinchable
    t-pairs (HNN): nothing left in the reduced form can be pinched, and it
    equals the input."""
    n = 2 * genus if genus > 0 else -genus
    h = white_handle(spec(orders, genus, n)).handle
    (_, z0), (_, z1) = h.ends
    # a crossing is empty in an amalgam and the stable letter in an HNN handle
    cross = {e: ((h.stable, e),) if h.stable else () for e in (1, -1)}
    pinchable = [concat(cross[-1], z0, cross[1]), concat(cross[1], z1, cross[-1])]
    rng = random.Random(7 * genus + len(orders))
    letters = sorted(h.letters)
    for _ in range(60):
        parts = []
        for _ in range(rng.randint(1, 5)):
            x = _random_word(rng, letters, rng.randint(0, 2))
            p = power(rng.choice(pinchable), rng.randint(-2, 2))
            parts += [x, p, inverse(x), _random_word(rng, letters, rng.randint(0, 2))]
        w = concat(*parts)
        out = h.reduce(w)
        assert all(e in (1, -1) for e in out[1::2])
        for i in range(1, len(out) - 2, 2):
            group, z = h.ends[0 if out[i + 2] > 0 else 1]
            assert out[i] != -out[i + 2] or group.cyclic_membership(out[i + 1], z) is None
        reduced = concat(*(x if i % 2 == 0 else cross[x] for i, x in enumerate(out)))
        assert h.wp(concat(w, inverse(reduced)))


@pytest.mark.parametrize("genus, orders", [
    (1, [2, 3]), (-3, [2, 2]), (0, [2, 3, 2, 5]), (-2, [3]),  # amalgams
    (1, [3]), (2, [2]),  # HNN extensions
    (0, [2, 3, 7]),  # triangle
    (1, [1, 3]), (0, [1, 2, 3, 5]),  # a vanished curve: an empty image
])
def test_boundary_membership_agrees_with_wp(genus, orders):
    """Membership in each boundary image c of order k, the question the
    graph-of-groups splice asks: g = c^j with conjugated relators spliced
    in gets a witness = j (mod k) that the word problem confirms; on random
    g a witness passes the word problem, and None means no power of c
    equals g."""
    n = 2 * genus if genus > 0 else -genus
    wh = white_handle(spec(orders, genus, n))
    h = wh.handle
    images = [wh.boundary_images[f"c{i + 1}"] for i in range(len(orders))]
    q = genus_word(tuple(f"y{i + 1}" for i in range(n)), genus)
    relators = [concat(*images, q)]
    relators += [power(c, k) for c, k in zip(images, orders)]
    assert all(h.wp(r) for r in relators)
    rng = random.Random(11 * genus + len(orders))
    letters = sorted(h.letters)

    def conjugated_relator():
        x = _random_word(rng, letters, rng.randint(0, 3))
        return concat(x, power(rng.choice(relators), rng.choice((-1, 1))),
                      inverse(x))

    for c, k in zip(images, orders):
        for _ in range(10):
            j = rng.randint(-2 * k, 2 * k)
            a = rng.randint(-k, k)
            g = concat(power(c, a), conjugated_relator(), power(c, j - a),
                       conjugated_relator())
            w = h.cyclic_membership(g, c)
            assert w is not None and (w - j) % k == 0
            assert h.wp(concat(g, power(c, -w)))
        for _ in range(10):
            g = _random_word(rng, letters, rng.randint(0, 6))
            w = h.cyclic_membership(g, c)
            if w is None:
                assert not any(h.wp(concat(g, power(c, -i))) for i in range(k))
            else:
                assert h.wp(concat(g, power(c, -w)))


def test_membership_refuses_targets_outside_one_factor():
    amalgam = white_handle(spec([2, 3], 1, 2)).handle
    assert isinstance(amalgam, AmalgamHandle)
    with pytest.raises(NotImplementedError):
        amalgam.cyclic_membership((("c1", 1),), (("c1", 1), ("y1", 1)))
    hnn = white_handle(spec([3], 1, 2)).handle
    assert isinstance(hnn, HNNHandle)
    with pytest.raises(NotImplementedError):
        hnn.cyclic_membership((("c1", 1),), (("c1", 1), (hnn.stable, 1)))
    triangle = white_handle(spec([2, 3, 7], 0, 0)).handle
    assert isinstance(triangle, TriangleHandle)
    with pytest.raises(NotImplementedError):
        triangle.cyclic_membership((("c1", 1),), (("c1", 1), ("c2", 1)))


def test_splitting_errors_name_the_bad_letter_or_target():
    """On both kinds of splitting, an unknown letter anywhere raises
    UnknownLetterError, and a target outside one vertex group (letters of
    both factors, or the stable letter) raises NotImplementedError."""
    zz = (("zz", 1),)
    amalgams = ((klein_bottle(), "a", "b"),
                (white_handle(spec([2, 2, 2, 2], 0, 0)).handle, "c1", "c3"))
    for h, a, b in amalgams:
        a, b = ((a, 1),), ((b, 1),)
        with pytest.raises(UnknownLetterError):
            h.wp(concat(a, zz))
        with pytest.raises(UnknownLetterError):
            h.cyclic_membership(concat(b, zz), a)
        with pytest.raises(UnknownLetterError):
            h.cyclic_membership(a, concat(a, zz))
        for t in (concat(a, b), concat(b, a)):
            with pytest.raises(NotImplementedError):
                h.cyclic_membership(a, t)
    for h, x in ((bs_1_2(), "b"), (white_handle(spec([3], 1, 2)).handle, "c1")):
        x, s = ((x, 1),), ((h.stable, 1),)
        with pytest.raises(UnknownLetterError):
            h.wp(concat(s, zz))
        with pytest.raises(UnknownLetterError):
            h.cyclic_membership(concat(x, zz), x)
        with pytest.raises(UnknownLetterError):
            h.cyclic_membership(x, concat(x, zz))
        # also when g does not reduce into the base
        with pytest.raises(UnknownLetterError):
            h.cyclic_membership(s, concat(x, zz))
        for t in (s, concat(x, s, x)):
            with pytest.raises(NotImplementedError):
                h.cyclic_membership(x, t)


def test_splitting_answers_are_pinned():
    """wp and every membership witness of the amalgam and HNN handles that
    white_handle builds, on seeded words with conjugated relators spliced
    in, hash to a fixed value.  The genus-0 spheres with four curves put
    the images c3, c4 in the second factor."""
    digest = hashlib.sha256()
    tuples = [(2,), (3,), (2, 3), (2, 2, 2, 2), (2, 3, 4, 5)]
    handles = 0
    for genus in range(-4, 5):
        n = 2 * genus if genus > 0 else -genus
        for orders in tuples:
            wh = white_handle(spec(orders, genus, n))
            h = wh.handle
            if not isinstance(h, (AmalgamHandle, HNNHandle)):
                continue
            handles += 1
            images = [wh.boundary_images[f"c{i + 1}"] for i in range(len(orders))]
            q = genus_word(tuple(f"y{i + 1}" for i in range(n)), genus)
            relators = [concat(*images, q)] + [power(c, k) for c, k in zip(images, orders) if k]
            letters = sorted(h.letters)
            targets = [c for c in images if c]
            targets += [((x, 1),) for x in letters if x != h.stable]
            rng = random.Random(100 * genus + 10 * len(orders) + sum(orders))
            for i in range(60):
                x = _random_word(rng, letters, rng.randint(0, 3))
                r = power(rng.choice(relators), rng.choice((-1, 1)))
                g = concat(power(rng.choice(targets), rng.randint(-3, 3)),
                           x, r, inverse(x))
                if i % 3 == 0:
                    g = _random_word(rng, letters, rng.randint(0, 8))
                digest.update(repr((h.wp(g), [h.cyclic_membership(g, t) for t in targets])).encode())
    assert handles == 40
    assert digest.hexdigest()[:16] == "0383df39a8b2c92d"
