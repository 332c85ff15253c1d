import pytest

from stratisolve.errors import UnknownLetterError
from stratisolve.local_groups import (
    FreeProductOfCyclics,
    cyclic_group,
    free_group,
    solve_congruence,
)
from stratisolve.words import concat, inverse, power


def test_solve_congruence():
    assert solve_congruence(3, 6, 0) == 2
    assert solve_congruence(3, 7, 0) is None
    assert solve_congruence(2, 4, 6) == 2
    assert solve_congruence(2, 3, 6) is None
    assert solve_congruence(4, 2, 6) == 2
    assert solve_congruence(0, 0, 5) == 0
    assert solve_congruence(0, 3, 5) is None
    assert solve_congruence(0, 0, 0) == 0


G = FreeProductOfCyclics((("a", 2), ("b", 3), ("x", 0)))


def test_normal_form_reduces_mod_orders():
    assert G.normal_form((("a", 3), ("b", 4))) == (("a", 1), ("b", 1))
    assert G.normal_form((("a", 1), ("a", 1))) == ()
    assert G.normal_form((("x", 2), ("x", -2))) == ()
    assert len(G.normal_form((("a", 1), ("b", 1), ("a", 1)))) == 3


def test_wp_free_product():
    assert G.wp((("b", 3),))
    assert not G.wp((("a", 1), ("b", 1)))
    r = (("a", 1), ("b", 1), ("x", 5))
    assert G.wp(concat(r, inverse(r)))


def test_unknown_letter():
    with pytest.raises(UnknownLetterError):
        G.wp((("z", 1),))


def test_cyclic_reduce():
    w = (("x", 2), ("a", 1), ("b", 1), ("x", -2))
    u, r = G.cyclic_reduce(w)
    assert r == (("a", 1), ("b", 1))
    assert G.wp(concat(u, r, inverse(u), inverse(w)))


def test_elem_order():
    assert G.elem_order(()) == 1
    assert G.elem_order((("a", 1),)) == 2
    assert G.elem_order((("b", 2),)) == 3
    assert G.elem_order((("x", 3),)) == 0
    assert G.elem_order((("a", 1), ("b", 1))) == 0
    assert G.elem_order((("x", 1), ("b", 2), ("x", -1))) == 3


@pytest.mark.parametrize(
    "g,t,expect",
    [
        ((("b", 2),), (("b", 1),), 2),
        ((("a", 1),), (("b", 1),), None),
        ((("x", 6),), (("x", 2),), 3),
        ((("x", 3),), (("x", 2),), None),
        ((), (("a", 1),), 0),
        # conjugated infinite-order target of syllable length 2
        (
            power((("a", 1), ("b", 1)), 3),
            (("a", 1), ("b", 1)),
            3,
        ),
        (
            power(inverse((("a", 1), ("b", 1))), 2),
            (("a", 1), ("b", 1)),
            -2,
        ),
    ],
)
def test_cyclic_membership(g, t, expect):
    assert G.cyclic_membership(g, t) == expect


def test_cyclic_membership_certificate_property():
    t = (("x", 1), ("a", 1), ("x", -1), ("b", 1))
    for k in (-3, -1, 0, 2, 4):
        g = power(t, k)
        got = G.cyclic_membership(g, t)
        assert got is not None
        assert G.wp(concat(g, power(inverse(t), got)))


def test_cyclic_and_free_helpers():
    c = cyclic_group("g", 4)
    assert c.elem_order((("g", 1),)) == 4
    f = free_group(("u", "v"))
    assert f.elem_order((("u", 1), ("v", 1))) == 0
