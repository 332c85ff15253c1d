import hashlib
import heapq
import random

import pytest
from test_acceptance import _random_valid_graph

from stratisolve import FIXTURE_NAMES, load_fixture, oracle
from stratisolve.errors import IncompleteTableError
from stratisolve.graph_model import canonical_tree
from stratisolve.oracle import (
    Budget,
    Derivation,
    DEFAULT_BUDGET,
    DerivStep,
    cayley_wp,
    derivation_concat,
    derivation_gcd,
    derivation_inverse,
    derivation_repeat,
    derive_trivial,
    encode_relators,
    finite_quotient_search,
    replay_derivation,
    todd_coxeter,
)
from stratisolve.pipeline import compile
from stratisolve.presentation import (
    Presentation,
    natural_presentation,
    parse_word,
)
from stratisolve.words import EMPTY, concat, free_reduce, inverse, power


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


# -- pinned searches -------------------------------------------------------------

#: sha256 of the repr of every ``derive_trivial`` outcome (the Derivation
#: found, or None) on ``_search_cases``: at ``Budget(4, 40, 20)`` on all 200
#: pairs; at the default budget on the relator products and the first four
#: powers, since a failed default search costs a third of a second
SEARCH_PINS = {
    Budget(4, 40, 20):
        "f343df402ad0543cd2d0d30d1d625eb2221b53c140cc6741833e2d63dcbaacef",
    DEFAULT_BUDGET:
        "23e84551e35fa17e5dd6dc31fcaaf70065c9297103e262e665c5faa9a74cfce9",
}


def _search_cases():
    """Two (presentation, word) pairs per graph with a black: the fixtures,
    then seed-19 acceptance-generator graphs.  The first word is b^n for a
    random black b and n in 1..6 (the capped search derives about half of
    them); the second is a product of one or two conjugated relators, which
    every search here derives."""
    rng = random.Random(19)
    graphs = [load_fixture(name) for name in FIXTURE_NAMES]
    cases = []
    while len(cases) < 200:
        g = graphs.pop(0) if graphs else _random_valid_graph(rng)
        if g is None or not g.blacks:
            continue
        p = compile(g).pres
        b = rng.choice(p.graph.black_names())
        cases.append((p, ((f"b.{b}", rng.randint(1, 6)),)))
        parts = []
        for _ in range(rng.randint(1, 2)):
            u = tuple((rng.choice(p.generators), rng.choice((-1, 1)))
                      for _ in range(rng.randint(0, 2)))
            rel = power(rng.choice(p.relators), rng.choice((1, -1)))
            parts.append(concat(u, rel, inverse(u)))
        cases.append((p, free_reduce(concat(*parts))))
    return cases


@pytest.mark.parametrize("budget", list(SEARCH_PINS), ids=("capped", "default"))
def test_derive_trivial_outcomes_are_pinned(budget):
    """The search explores in one fixed order: which words it derives, and
    with which steps, does not change."""
    cases = _search_cases()
    if budget == DEFAULT_BUDGET:
        cases = [c for i, c in enumerate(cases) if i % 2 or i < 8]
    h = hashlib.sha256()
    found = 0
    for p, w in cases:
        d = derive_trivial(p, w, budget)
        found += d is not None
        h.update(repr(d).encode())
    assert 0 < found < len(cases)
    assert h.hexdigest() == SEARCH_PINS[budget]


# -- differential check of the lazy search ---------------------------------------

def _eager_derive_trivial(p, w, budget, expanded):
    """The search as it was before plain children were queued lazily: every
    child of a state is built and queued when the state is expanded,
    skipping one queued before with no more insertions.  The reference
    for ``test_lazy_search_matches_the_eager_one``; it appends each
    (state, insertions) it expands to ``expanded``."""
    start = free_reduce(w)
    if start == EMPTY:
        return Derivation(start, ())
    enc = encode_relators(p)
    rels = enc.relators

    def derivation(link):
        steps = []
        while link is not None:
            link, state, pos, idx, sign = link
            steps.append(DerivStep(enc.decode(state[pos:]), idx, sign))
        return Derivation(start, tuple(reversed(steps)))

    init = enc.encode(start)
    tick = 0
    heap = [(len(init), 0, tick, init, None)]
    best = {init: 0}
    expansions = 0
    while heap and expansions < budget.max_expansions:
        _, ins, _, cur, link = heapq.heappop(heap)
        if best.get(cur, budget.insertions + 1) < ins:
            continue
        expansions += 1
        expanded.append((cur, ins))
        if ins >= budget.insertions:
            continue
        child = ins + 1
        n = len(cur)
        for pos in range(n + 1):
            left = cur[pos - 1] if pos else 0
            right = cur[pos] if pos < n else 0
            for rel, lr, neg_first, neg_last, idx, sign in rels:
                if left != neg_first and right != neg_last:
                    size = n + lr
                    if size > budget.max_length:
                        continue
                    nxt = cur[:pos] + rel + cur[pos:]
                else:
                    k = 0
                    while k < pos and k < lr and cur[pos - 1 - k] == -rel[k]:
                        k += 1
                    j = 0
                    while (k + j < lr and pos + j < n
                           and rel[lr - 1 - j] == -cur[pos + j]):
                        j += 1
                    i = 0
                    if k + j == lr:
                        while (i < pos - k and pos + j + i < n
                               and cur[pos - k - 1 - i] == -cur[pos + j + i]):
                            i += 1
                    size = n + lr - 2 * (k + j + i)
                    if not size:
                        return derivation((link, cur, pos, idx, sign))
                    if size > budget.max_length:
                        continue
                    nxt = cur[:pos - k - i] + rel[k:lr - j] + cur[pos + j + i:]
                if best.get(nxt, child + 1) <= child:
                    continue
                best[nxt] = child
                tick += 1
                heapq.heappush(heap, (size, child, tick, nxt,
                                      (link, cur, pos, idx, sign)))
    return None


def _differential_cases():
    """The fixtures, then 30 seed-22 acceptance-generator graphs; on each,
    b^k for every black b and a random k in 1..6, and two products of
    conjugated relators."""
    rng = random.Random(22)
    graphs = [load_fixture(name) for name in FIXTURE_NAMES]
    while len(graphs) < len(FIXTURE_NAMES) + 30:
        g = _random_valid_graph(rng)
        if g is not None:
            graphs.append(g)
    for g in graphs:
        p = compile(g).pres
        for b in p.graph.black_names():
            yield p, ((f"b.{b}", rng.randint(1, 6)),)
        for _ in range(2):
            parts = []
            for _ in range(rng.randint(1, 3)):
                u = tuple((rng.choice(p.generators), rng.choice((-1, 1)))
                          for _ in range(rng.randint(0, 2)))
                rel = power(rng.choice(p.relators), rng.choice((1, -1)))
                parts.append(concat(u, rel, inverse(u)))
            yield p, free_reduce(concat(*parts))


def _lazy_derive_trivial(monkeypatch, p, w, budget, expanded):
    """``derive_trivial``, appending each (state, insertions) it expands to
    ``expanded``.  They are read off the queue entries it pops, laid out as
    its comments say: an entry for plain children stands for the child at
    its position and relator entry, and an entry whose state was expanded
    before with no more insertions is dropped."""
    popped = []

    class Recording:
        heappush = staticmethod(heapq.heappush)

        @staticmethod
        def heappop(heap):
            popped.append(heapq.heappop(heap))
            return popped[-1]

    with monkeypatch.context() as m:
        m.setattr(oracle, "heapq", Recording)
        d = derive_trivial(p, w, budget)
    rels = encode_relators(p).relators
    fewest = {}
    for _, ins, _, pos, r, state, _, group, _ in popped:
        if group is not None:
            state = state[:pos] + rels[r][0] + state[pos:]
        if fewest.get(state, ins + 1) > ins:
            fewest[state] = ins
            expanded.append((state, ins))
    return d


@pytest.mark.parametrize("budget, every", [
    (Budget(6, 64, 1), 1), (Budget(6, 64, 2), 1), (Budget(4, 40, 20), 1),
    (Budget(2, 10, 3000), 1), (Budget(3, 12, 3000), 4),
], ids=lambda x: str(tuple(x)) if isinstance(x, Budget) else None)
def test_lazy_search_matches_the_eager_one(budget, every, monkeypatch):
    """Same derivation, steps and all, or None on both sides, on every
    ``every``-th case (the eager search costs seconds at 3000 expansions),
    after expanding the same states in the same order with the same
    insertions, which checks the order of the queue and the count of
    expansions directly.  ``2,10`` runs some searches dry and stops others
    at 3000 expansions."""
    found = cases = 0
    for n, (p, w) in enumerate(_differential_cases()):
        if n % every:
            continue
        eager, lazy = [], []
        d = _lazy_derive_trivial(monkeypatch, p, w, budget, lazy)
        assert d == _eager_derive_trivial(p, w, budget, eager), (p.graph, w)
        assert lazy == eager, (p.graph, w)
        found += d is not None
        cases += 1
    assert 0 < found < cases


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
