import pytest

from stratisolve.errors import IncompleteTableError
from stratisolve.graph_model import canonical_tree
from stratisolve.oracle import (
    Budget,
    Derivation,
    DerivStep,
    cayley_wp,
    derivation_concat,
    derivation_gcd,
    derivation_inverse,
    derivation_repeat,
    derive_trivial,
    finite_quotient_search,
    replay_derivation,
    todd_coxeter,
)
from stratisolve.presentation import (
    Presentation,
    natural_presentation,
    parse_word,
)
from stratisolve.words import EMPTY, concat, inverse, power


def pres(generators, relators):
    return Presentation(tuple(generators), tuple(relators), None, None)


def fixture_pres(g):
    return natural_presentation(g, canonical_tree(g))


def test_budget_parse():
    b = Budget.parse("4,32")
    assert b.insertions == 4 and b.max_length == 32
    with pytest.raises(ValueError):
        Budget.parse("nope")


@pytest.mark.parametrize("text", ["0,0", "0,32", "4,0", "-1,5"])
def test_budget_parse_rejects_a_field_below_one(text):
    with pytest.raises(ValueError):
        Budget.parse(text)


# -- derivation search -------------------------------------------------------

Z6 = pres(["a"], [(("a", 6),)])
Z2Z3 = pres(["a", "b"], [(("a", 2),), (("b", 3),)])


def test_derive_trivial_direct():
    d = derive_trivial(Z6, (("a", 6),))
    assert d is not None
    assert replay_derivation(Z6, d)


def test_derive_trivial_conjugated():
    w = concat((("b", 1),), (("a", 2),), (("b", -1),))
    d = derive_trivial(Z2Z3, w)
    assert d is not None and replay_derivation(Z2Z3, d)


def test_derive_trivial_certificates_are_pinned():
    """Moves cancel only across the seams of an insertion; the search must
    still explore in the same order and return these exact certificates."""

    def step(conjugator, index, sign=-1):
        return DerivStep(conjugator, index, sign)

    cases = [
        (Z6, (("a", 6),), Budget(),
         (step((("a", 6),), 0),)),
        (Z6, (("a", 12),), Budget(2, 16),
         (step((("a", 12),), 0), step((("a", 6),), 0))),
        (Z2Z3, (("b", 1), ("a", 2), ("b", -1)), Budget(),
         (step((("a", 2), ("b", -1)), 0),)),
        (Z2Z3, (("a", 1), ("b", 3), ("a", 1)), Budget(),
         (step((("b", 3), ("a", 1)), 1), step((("a", 2),), 0))),
        (Z2Z3, (("b", 2), ("a", 2), ("b", 4)), Budget(),
         (step((("b", 4),), 1), step((("a", 2), ("b", 1)), 0),
          step((("b", 3),), 1))),
    ]
    for p, w, budget, steps in cases:
        assert derive_trivial(p, w, budget) == Derivation(w, steps), w


def test_derive_trivial_empty_word():
    d = derive_trivial(Z6, EMPTY)
    assert d is not None and d.steps == ()


def test_derive_trivial_respects_budget():
    # a^12 needs two insertions of a^6
    tight = Budget(insertions=1, max_length=8)
    assert derive_trivial(Z6, (("a", 12),), tight) is None
    assert derive_trivial(Z6, (("a", 12),), Budget(2, 16)) is not None


def test_derive_nontrivial_returns_none():
    assert derive_trivial(Z6, (("a", 1),), Budget(3, 16)) is None


def test_derivation_algebra():
    da = derive_trivial(Z6, (("a", 6),))
    # inverse derives a^-6
    inv = derivation_inverse(da)
    assert inv.word == (("a", -6),)
    assert replay_derivation(Z6, inv)
    # concat derives a^12
    both = derivation_concat(da, da)
    assert replay_derivation(Z6, both)
    # repeat derives a^18 and a^-12
    assert replay_derivation(Z6, derivation_repeat(da, 3))
    assert replay_derivation(Z6, derivation_repeat(da, -2))


def test_derivation_gcd():
    p = pres(["a"], [(("a", 4),), (("a", 6),)])
    d4 = derive_trivial(p, (("a", 4),))
    d6 = derive_trivial(p, (("a", 6),))
    g, dg = derivation_gcd("a", d4, d6)
    assert g == 2
    assert dg.word == (("a", 2),)
    assert replay_derivation(p, dg)


# -- coset enumeration ---------------------------------------------------------

def test_todd_coxeter_cyclic():
    t = todd_coxeter(Z6)
    assert t.status == "complete" and t.order == 6


def test_todd_coxeter_s3():
    s3 = pres(
        ["a", "b"],
        [(("a", 2),), (("b", 3),), (("a", 1), ("b", 1), ("a", 1), ("b", 1))],
    )
    t = todd_coxeter(s3)
    assert t.order == 6
    assert cayley_wp(t, (("a", 2),))
    assert not cayley_wp(t, (("a", 1), ("b", 1)))
    assert cayley_wp(t, power((("a", 1), ("b", 1)), 2))


def test_todd_coxeter_trivial_group():
    p = pres(["a", "b"], [(("a", 1),), (("b", 1),)])
    t = todd_coxeter(p)
    assert t.order == 1


def test_todd_coxeter_exhausts_on_infinite_group():
    free = pres(["a"], [])
    t = todd_coxeter(free, max_cosets=50)
    assert t.status == "exhausted"
    with pytest.raises(IncompleteTableError):
        cayley_wp(t, (("a", 1),))


def test_cayley_agrees_with_exhaustive_words():
    t = todd_coxeter(Z2Z3)
    # in Z/2 * Z/3 the table cannot close; use the finite triangle-ish
    # quotient instead: impose (ab)^2 = 1 -> S3
    s3 = pres(
        ["a", "b"],
        [(("a", 2),), (("b", 3),), power((("a", 1), ("b", 1)), 2)],
    )
    assert t.status == "exhausted"
    t2 = todd_coxeter(s3)
    assert t2.order == 6
    w = concat((("b", 1),), (("a", 1),), (("b", -1),))
    assert t2.rows  # sanity
    assert not cayley_wp(t2, w)
    assert cayley_wp(t2, power(w, 2))


# -- finite quotient search ------------------------------------------------------

def test_quotients_of_s3_presentation():
    s3 = pres(
        ["a", "b"],
        [(("a", 2),), (("b", 3),), power((("a", 1), ("b", 1)), 2)],
    )
    quots = finite_quotient_search(s3, max_degree=3)
    assert quots  # at least the trivial degree-1 action
    orders = {q.image_order() for q in quots}
    assert 6 in orders  # the regular-ish faithful action appears by degree 3
    for q in quots:
        for r in s3.relators:
            assert q.permutation(r) == tuple(range(q.degree))


def test_quotient_hom_element_order():
    z4 = pres(["a"], [(("a", 4),)])
    quots = finite_quotient_search(z4, max_degree=4)
    best = max(quots, key=lambda q: q.element_order((("a", 1),)))
    assert best.element_order((("a", 1),)) == 4
    assert best.image_order() == 4


def test_quotient_search_deterministic():
    z4 = pres(["a"], [(("a", 4),)])
    a = finite_quotient_search(z4, max_degree=4)
    b = finite_quotient_search(z4, max_degree=4)
    assert [(q.degree, q.images) for q in a] == [(q.degree, q.images) for q in b]


def test_bs_quotient_separates_b_cubed(fixtures):
    # the two-sheet graph with labels 1 and 2: b has infinite order, and a
    # degree-9 quotient already shows b^3 != 1
    p = fixture_pres(fixtures["FX-BS"])
    quots = finite_quotient_search(p, max_degree=9, max_results=50)
    b_orders = {q.element_order((("b.b1", 1),)) for q in quots}
    assert any(o % 9 == 0 or o > 3 for o in b_orders)
    witness = [q for q in quots if q.element_order((("b.b1", 3),)) != 1]
    assert witness
    for q in witness:
        for r in p.relators:
            assert q.permutation(r) == tuple(range(q.degree))
