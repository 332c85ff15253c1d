import hashlib
import random
from pathlib import Path

import pytest
from test_acceptance import _random_valid_graph
from test_serre_solver import _disk_capped_chain

from stratisolve import oracle, order_engine
from stratisolve.errors import UndeterminedError
from stratisolve.graph_model import canonical_tree, parse_graph
from stratisolve.oracle import DEFAULT_BUDGET, Budget, Derivation, replay_derivation
from stratisolve.order_engine import (
    certify_orders,
    resolve_orders,
    validity_check,
)
from stratisolve.pipeline import compile
from stratisolve.presentation import natural_presentation


def test_disk_rule_z3(fixtures):
    oa = resolve_orders(fixtures["FX-Z3"])
    assert oa.status == "exact"
    assert oa.sigma == {"b1": 3}
    assert oa.ab_evidence == {"b1": 3}


def test_gcd_closure_two_disks(fixtures):
    # disks of degree 2 and 3 on the same circle: gcd certificate gives 1
    oa = resolve_orders(fixtures["FX-S2W"])
    assert oa.status == "exact"
    assert oa.sigma == {"b1": 1}


def test_infinite_order_is_exact(fixtures):
    oa = resolve_orders(fixtures["FX-BS"])
    assert oa.status == "exact"
    assert oa.sigma == {"b1": 0}
    assert "b1" not in oa.certificates


def test_validity_fixpoint_refines_order(fixtures):
    # genus-1 white of degree 1 plus disk of degree 2: the fixpoint's first
    # round certifies b^2 = 1 from the disk, and validity then confirms
    # sigma = 2 exactly
    oa = resolve_orders(fixtures["FX-ORB"])
    assert oa.status == "exact"
    assert oa.sigma == {"b1": 2}


def test_triangle_orders(fixtures):
    oa = resolve_orders(fixtures["FX-TRI(2,3,5)"])
    assert oa.status == "exact"
    assert sorted(oa.sigma.values()) == [2, 3, 5]


def test_certificates_replay(fixtures):
    for name in ("FX-Z3", "FX-S2W", "FX-ORB", "FX-TRI(2,3,5)"):
        g = fixtures[name]
        t = canonical_tree(g)
        pres = natural_presentation(g, t)
        oa = resolve_orders(g)
        assert oa.status == "exact"
        for black, deriv in oa.certificates.items():
            assert deriv.word == ((f"b.{black}", oa.sigma[black]),) or (
                sum(e for n, e in deriv.word) % oa.sigma[black] == 0
            )
            assert replay_derivation(pres, deriv), (name, black)


def test_budget_exhaustion_names_blacks(fixtures):
    oa = resolve_orders(fixtures["FX-ORB"], Budget.parse("1,8"))
    assert oa.status == "undetermined"
    assert oa.unresolved == ("b1",)
    with pytest.raises(UndeterminedError):
        oa.require_exact()


def test_default_budget_restores_exact(fixtures):
    # same graph, default budget: exact again (and memoization keyed on
    # budget must not leak the undetermined result)
    resolve_orders(fixtures["FX-ORB"], Budget.parse("1,8"))
    oa = resolve_orders(fixtures["FX-ORB"])
    assert oa.status == "exact"


def test_validity_check_flags_wrong_sigma():
    g = parse_graph("white w1 genus 0\nblack b1\nedge e1 w1 b1 3\n")
    assert validity_check(g, {"b1": 3}) == []
    bad = validity_check(g, {"b1": 6})
    assert bad and bad[0][0] == "b1"


def test_failed_search_does_not_override_a_converged_fixpoint(monkeypatch):
    # disks of labels 6 and 2: the search for b^6 fails, b^2 is certified,
    # and under sigma 2 no violation is left, so the answer is exact
    g = parse_graph(
        "white w genus 1\nwhite d1 genus 0\nwhite d2 genus 0\nblack b\n"
        "edge e1 w b 1\nedge e2 d1 b 6\nedge e3 d2 b 2\n"
    )
    original = order_engine.derive_if_h1_trivial

    def fail_on_b6(ab, word, budget, codes):
        return None if word == (("b.b", 6),) else original(ab, word, budget, codes)

    monkeypatch.setattr(order_engine, "derive_if_h1_trivial", fail_on_b6)
    pres = compile(g).pres
    oa = certify_orders(pres, DEFAULT_BUDGET)
    assert validity_check(pres.graph, oa.sigma) == []
    assert (oa.status, dict(oa.sigma), oa.unresolved) == ("exact", {"b": 2}, ())


def test_the_fixpoint_runs_as_many_rounds_as_the_chain_needs(monkeypatch):
    # a label-2 disk on b0, then genus-0 annuli w_i joining b_(i-1) to b_i:
    # each round certifies the next black, so n + 1 rounds are needed
    n = 64
    lines = ["white d genus 0", "edge k d b0 2"]
    for i in range(n + 1):
        lines += [f"black b{i}", f"white g{i} genus 1",
                  f"edge s{i} g{i} b{i} {2 if i == n else 1}"]
    for i in range(1, n + 1):
        lines += [f"white w{i} genus 0", f"edge l{i} w{i} b{i - 1} 1",
                  f"edge r{i} w{i} b{i} 1"]
    calls = []

    def certify(ab, word, budget, codes):
        calls.append(word)
        return Derivation(word, ())

    monkeypatch.setattr(order_engine, "derive_if_h1_trivial", certify)
    oa = certify_orders(compile(parse_graph("\n".join(lines))).pres, DEFAULT_BUDGET)
    assert (oa.status, len(calls)) == ("exact", n + 1)
    assert set(oa.sigma.values()) == {2}


def test_ab_evidence_divides_sigma(fixtures):
    for name, g in fixtures.items():
        oa = resolve_orders(g)
        if oa.status != "exact":
            continue
        for b, sig in oa.sigma.items():
            ab = oa.ab_evidence[b]
            if sig == 0:
                continue  # infinite order upstairs, any ab order divides
            # the abelianized order always divides the true order
            assert ab != 0 and sig % ab == 0, (
                f"{name}: {b} has sigma {sig}, which is not a nonzero "
                f"multiple of its H1 order {ab}"
            )


# -- H1 screen ------------------------------------------------------------------

@pytest.fixture
def searches(monkeypatch):
    """The words the order engine searches certificates for.  Its H1
    screen looks ``derive_trivial`` up by its name in ``oracle``, so the
    spy sees every search; it forwards the relator encoding that the order
    engine passes along."""
    words = []
    original = oracle.derive_trivial

    def spy(pres, word, budget, relator_codes=None):
        words.append(word)
        return original(pres, word, budget, relator_codes)

    monkeypatch.setattr(oracle, "derive_trivial", spy)
    return words


def test_disk_is_certified_by_the_fixpoints_first_round(searches):
    # with b1 infinite, the disk's boundary image is empty, so the first
    # validity round asks for b^4 = 1 and nothing else
    g = parse_graph("white w1 genus 0\nblack b1\nedge e1 w1 b1 4\n")
    c = compile(g)
    oa = certify_orders(c.pres, DEFAULT_BUDGET)
    assert oa.status == "exact" and oa.sigma == {"b1": 4}
    assert searches == [(("b.b1", 4),)]
    assert replay_derivation(c.pres, oa.certificates["b1"])


def test_fx_bs_resolves_without_any_search(fixtures, searches):
    # H1 gives b1 order 3, but the fixpoint passes at once with b1 infinite,
    # so not even b^3 is searched; certify_orders bypasses the memo, so the
    # spy sees the whole resolution
    oa = certify_orders(compile(fixtures["FX-BS"]).pres, DEFAULT_BUDGET)
    assert oa.ab_evidence == {"b1": 3}
    assert searches == []
    assert oa.status == "exact" and oa.sigma == {"b1": 0}


def test_genus_one_chain_resolves_without_any_search(searches):
    # w_i -1- b_i -2- w_{i+1} with genus-1 whites: no disk, so every circle
    # has infinite order and the first validity round already passes
    links = 4
    lines = [f"white w{i} genus 1" for i in range(1, links + 2)]
    lines += [f"black b{i}" for i in range(1, links + 1)]
    for i in range(1, links + 1):
        lines += [f"edge l{i} w{i} b{i} 1", f"edge r{i} w{i + 1} b{i} 2"]
    g = parse_graph("\n".join(lines) + "\n")
    oa = certify_orders(compile(g).pres, DEFAULT_BUDGET)
    assert oa.status == "exact"
    assert oa.sigma == {f"b{i}": 0 for i in range(1, links + 1)}
    assert searches == []


def test_h1_screen_skips_blacks_of_infinite_h1_order(searches):
    # labels 2 and -2 on one white cancel in H1, so b1 has infinite order
    # there and no disk; b2 is capped by a disk and is still searched
    g = parse_graph(
        "white w1 genus 0\nwhite w2 genus 0\nblack b1\nblack b2\n"
        "edge e1 w1 b1 2\nedge e2 w1 b1 -2\nedge e3 w1 b2 3\n"
        "edge e4 w2 b2 3\n"
    )
    oa = certify_orders(compile(g).pres, DEFAULT_BUDGET)
    assert oa.ab_evidence == {"b1": 0, "b2": 3}
    assert searches == [(("b.b2", 3),)]
    assert oa.status == "exact" and oa.sigma == {"b1": 0, "b2": 3}


def test_one_resolution_encodes_the_relators_once(searches, monkeypatch):
    # eight disks, eight searches, one encoding: the order engine hands its
    # encoding to every search, so derive_trivial never makes its own
    encodings = []
    original = oracle.encode_relators

    def spy(pres, *rest):
        encodings.append(pres)
        return original(pres, *rest)

    monkeypatch.setattr(oracle, "encode_relators", spy)
    monkeypatch.setattr(order_engine, "encode_relators", spy)
    c = compile(_disk_capped_chain(8))
    oa = certify_orders(c.pres, DEFAULT_BUDGET)
    assert oa.status == "exact" and set(oa.sigma.values()) == {2}
    assert len(searches) == 8
    assert encodings == [c.pres]


def test_a_failed_pair_is_searched_once(searches):
    # at this budget b1^3 fails in round 1, while b2's certificate makes
    # progress, so round 2 meets (b1, 3) again; it is not searched again
    g = parse_graph(
        "white w1 genus 0\nwhite w2 genus 0\nwhite w3 genus 0\n"
        "black b1\nblack b2\nedge e1 w1 b1 3\nedge e2 w1 b2 3\n"
        "edge e3 w2 b2 1\nedge e4 w3 b1 -3\nedge e5 w3 b2 2\n"
    )
    oa = certify_orders(compile(g).pres, Budget(4, 40, 20))
    assert searches == [(("b.b2", 1),), (("b.b1", 3),)]
    assert oa.unresolved == ("b1",) and oa.sigma == {"b1": 0, "b2": 1}

def test_certified_orders_are_multiples_of_the_h1_order():
    """The invariant the screen relies on, on seeded random graphs: every
    relation b^n = 1 known without the screen (a disk of label m gives
    n = |m|) and every certified sigma(b) > 0 is a multiple of b's H1
    order, which is finite.  Each disk's relation is also certified:
    sigma(b) is nonzero and divides m."""
    rng = random.Random(4)
    # criterion 7's budget with a cap of 20 expansions: on these graphs a
    # cap of 300 gives the same orders and takes fifteen times as long
    budget = Budget(insertions=4, max_length=40, max_expansions=20)
    checked = 0
    while checked < 100:
        g = _random_valid_graph(rng)
        if g is None:
            continue
        checked += 1
        c = compile(g, budget)
        oa, gn = c.orders, c.pres.graph
        for w in gn.white_names():
            edges = gn.edges_at_white(w)
            if gn.white(w).genus == 0 and len(edges) == 1:
                b, m = edges[0].black, abs(edges[0].label)
                h = oa.ab_evidence[b]
                assert h != 0 and m % h == 0, (g, b, m, h)
                sig = oa.sigma[b]
                assert sig != 0 and m % sig == 0, (g, b, m, sig)
        for b, sig in oa.sigma.items():
            if sig == 0:
                continue
            h = oa.ab_evidence[b]
            assert h != 0 and sig % h == 0, (g, b, sig, h)
            d = oa.certificates[b]
            assert d.word == ((f"b.{b}", sig),)
            assert replay_derivation(c.pres, d), (g, b)


# -- pinned resolution ------------------------------------------------------------

#: sha256 of what ``_pinned_outcomes`` yields for the fixtures and the first
#: 150 valid acceptance-generator graphs of seed 15 at ``PIN_BUDGET``: any
#: change in a status, an order or which certificate is kept shows here
PIN_DIGEST = "73324dff43e147ae5c8e36d660a46af69b0957fdfefcca8dfa54498ad25e06f6"
PIN_BUDGET = Budget(insertions=4, max_length=40, max_expansions=20)
PIN_GRAPHS = 150


def _pinned_outcomes(fixtures):
    rng = random.Random(15)
    graphs = list(fixtures.values())
    while len(graphs) < len(fixtures) + PIN_GRAPHS:
        g = _random_valid_graph(rng)
        if g is not None:
            graphs.append(g)
    for g in graphs:
        # certify_orders bypasses the memo, so every graph is resolved here
        oa = certify_orders(compile(g).pres, PIN_BUDGET)
        yield (
            oa.status, sorted(oa.sigma.items()), oa.unresolved,
            [(b, d.word, [tuple(s) for s in d.steps])
             for b, d in sorted(oa.certificates.items())],
            sorted(oa.ab_evidence.items()),
        )


def test_order_resolution_is_pinned(fixtures, monkeypatch):
    exponents = []
    original = order_engine.validity_check

    def spy(g, sigma):
        found = original(g, sigma)
        exponents.extend(e for _, e in found)
        return found

    monkeypatch.setattr(order_engine, "validity_check", spy)
    h = hashlib.sha256()
    for outcome in _pinned_outcomes(fixtures):
        h.update(repr(outcome).encode())
    # the docstring of order_engine argues every searched exponent is >= 1
    assert exponents and min(exponents) >= 1
    assert h.hexdigest() == PIN_DIGEST


# -- a large random tree -----------------------------------------------------------

def _random_tree_text(whites: int, seed: int) -> str:
    """A seeded random tree with ``whites`` whites besides its disks.  Each
    white after the first hangs on a fresh black, which joins it to an
    earlier white, with labels drawn from 1, 1, 2, 3; a black gets a
    genus-0 disk of label 2 or 3 when its two labels sum to less than 3,
    or with chance 0.3.  Genera are drawn from 0, 0, 1, -1, 2."""
    rng = random.Random(seed)
    lines = [f"white w0 genus {rng.choice((0, 0, 1, -1, 2))}"]
    blacks, edges = [], []
    for i in range(1, whites):
        lines.append(f"white w{i} genus {rng.choice((0, 0, 1, -1, 2))}")
        b = f"b{i}"
        blacks.append(f"black {b}")
        l1, l2 = rng.choice((1, 1, 2, 3)), rng.choice((1, 1, 2, 3))
        edges += [f"edge u{i} w{rng.randrange(i)} {b} {l1}",
                  f"edge v{i} w{i} {b} {l2}"]
        if l1 + l2 < 3 or rng.random() < 0.3:
            lines.append(f"white d{i} genus 0")
            edges.append(f"edge k{i} d{i} {b} {rng.choice((2, 3))}")
    return "\n".join(lines + blacks + edges) + "\n"


#: ``_random_tree_text(30, 2)``: 42 whites with its disks, 135 generators.
#: Its failed default-budget searches once took about a minute, when a
#: search built every child of each state it expanded; these are the
#: orders and the undetermined blacks it had then
TREE_PATH = Path(__file__).parent / "data" / "random-tree-30.graph"
TREE_SIGMA = {
    "b1": 0, "b2": 0, "b3": 3, "b4": 0, "b5": 0, "b6": 2, "b7": 3, "b8": 0,
    "b9": 3, "b10": 0, "b11": 0, "b12": 3, "b13": 3, "b14": 3, "b15": 2,
    "b16": 2, "b17": 0, "b18": 1, "b19": 2, "b20": 1, "b21": 2, "b22": 2,
    "b23": 1, "b24": 3, "b25": 0, "b26": 3, "b27": 3, "b28": 3, "b29": 0,
}
TREE_UNRESOLVED = ("b16", "b17", "b25", "b5")


def test_large_random_tree_resolves_as_pinned():
    text = TREE_PATH.read_text()
    assert text == _random_tree_text(30, 2)
    c = compile(parse_graph(text))
    oa = certify_orders(c.pres, DEFAULT_BUDGET)
    assert oa.sigma == TREE_SIGMA
    assert oa.unresolved == TREE_UNRESOLVED
    for b, d in oa.certificates.items():
        assert d.word == ((f"b.{b}", oa.sigma[b]),)
        assert replay_derivation(c.pres, d), b
