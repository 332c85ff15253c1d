"""Resolution of singular-circle orders.

The downstream graph-of-groups construction needs, for every black vertex
b, the order sigma(b) of its ``b.`` generator in the fundamental group
(0 = infinite).  One rule finds them, the validity fixpoint, and only
upper bounds certified by explicit relator derivations are ever used:

* validity fixpoint: start with every sigma infinite and compare each
  boundary-image order d, read off genus and curve orders under the
  candidate sigma with no handle built (``gog.boundary_mismatches``), with
  the required edge-group order k; a mismatch yields the true relation
  c^d = 1, hence b^{|m| d} = 1, which must itself be certified by
  derivation before it is folded in;
* H1 screen: every search goes through ``oracle.derive_if_h1_trivial``,
  which runs none for b^n when the order h of b in the abelianization H1
  is infinite or does not divide n — G -> H1 is a homomorphism, so b^n = 1
  in G forces n [b] = 0 in H1, i.e. h | n, and such a search could only
  fail;
* gcd closure: certificates for b^e1 and b^e2 compose (via the extended
  gcd) into a certificate for b^gcd(e1,e2) with no extra search.

A candidate that passes validity with every finite sigma certified is
exact: each vertex group then embeds into the fundamental group of the
graph of groups, which is the stratifold group because every attached cell
follows a certified relation — so sigma equals the true orders.  When a
needed certificate is out of budget, the result is undetermined and names
the unresolved black vertices; callers must refuse to answer rather than
guess.

No other rule is needed to find the orders:

* the disks (a terminal genus-0 white on b with edge label m, so
  b^|m| = 1) are the fixpoint's first round.  With every sigma 0, every
  curve has required order 0, and only a genus-0 white with one or two
  curves can mismatch: one curve has image order 1, while two have
  gcd(0, 0) = 0, as required.  So the first round's violations are
  exactly (b, |m|) for each disk, in white order; a disk whose |m| is a
  multiple of an exponent already certified needs no search;
* a search for small powers b^n of a black the fixpoint leaves at 0 would
  be wasted: when the fixpoint passes with every finite sigma certified,
  each vertex group embeds, so b has infinite order and no b^n = 1 holds.

Every exponent |m| d the fixpoint searches is at least 1: |m| >= 1 since
labels are nonzero, and d >= 1 in every mismatch: by
``gog.boundary_mismatches`` a disk has d = 1, and two curves of orders
k1 != k2, not both 0, have d = gcd(k1, k2) >= 1.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import UndeterminedError
from .gog import boundary_mismatches
from .graph_model import StratifoldGraph
from .oracle import (
    Budget,
    Derivation,
    derivation_gcd,
    derive_if_h1_trivial,
    encode_relators,
)
from .presentation import Presentation, abelianization


class OrderAssignment(NamedTuple):
    """Read-only: one assignment is shared by every caller of the memo.
    ``ab_evidence`` holds the order of each b in H1 (0 = infinite), a cheap
    divisor of the true order computed before any search to screen it."""

    sigma: Mapping[str, int]
    unresolved: tuple[str, ...]
    certificates: Mapping[str, Derivation]
    ab_evidence: Mapping[str, int]

    @property
    def status(self) -> str:
        return "undetermined" if self.unresolved else "exact"

    def require_exact(self) -> None:
        if self.unresolved:
            raise UndeterminedError(self.unresolved)


def validity_check(
    g: StratifoldGraph, sigma: dict[str, int]
) -> list[tuple[str, int]]:
    """Compare computed boundary-image orders with required edge-group
    orders under sigma.  Returns (black, exponent) pairs for each mismatch,
    the exponent being the newly implied power b^{|m| d} = 1."""
    return [
        (e.black, abs(e.label) * computed)
        for e, computed, _ in boundary_mismatches(g, sigma)
    ]


def resolve_orders(
    g: StratifoldGraph, budget: Budget | None = None
) -> OrderAssignment:
    """Orders of the singular circles of ``g``, memoized with its compiled
    pipeline."""
    from .pipeline import compile

    return compile(g, budget).orders


def certify_orders(pres: Presentation, budget: Budget) -> OrderAssignment:
    """Resolve the orders of a natural presentation over a normalized graph."""
    g = pres.graph
    ab = abelianization(pres)
    # order of each b in H1 (0 = infinite), which divides every certifiable
    # exponent
    h1 = {b: ab.order(((f"b.{b}", 1),)) for b in g.black_names()}
    # black -> (e, certificate of b^e = 1), e the gcd of all exponents found
    best: dict[str, tuple[int, Derivation]] = {}
    # (black, exponent) pairs whose search failed: the search is
    # deterministic, so a later round would only fail on them again
    failed: set[tuple[str, int]] = set()

    def sigma() -> dict[str, int]:
        return {b: best[b][0] if b in best else 0 for b in g.black_names()}

    violations = validity_check(g, sigma())
    # one encoding of the relators serves every search; with no violation
    # in the first round nothing is searched
    relator_codes = encode_relators(pres) if violations else None
    # fixpoint: a round without progress ends it, and each progress makes
    # some sigma finite or replaces it by a proper divisor, so it ends
    while violations:
        progress = False
        for black, exp in violations:
            cur = best.get(black)
            if cur and exp % cur[0] == 0:
                continue  # already certified
            if (black, exp) in failed:
                continue
            letter = f"b.{black}"
            d = derive_if_h1_trivial(ab, ((letter, exp),), budget, relator_codes)
            if d is None:
                failed.add((black, exp))
                continue
            best[black] = (exp, d) if cur is None else derivation_gcd(letter, cur[1], d)
            progress = True
        if not progress:
            break
        violations = validity_check(g, sigma())
    # a failed search matters only while its violation is left: a later
    # round may certify a divisor of its exponent
    return OrderAssignment(
        MappingProxyType(sigma()),
        tuple(sorted({b for b, _ in violations})),
        MappingProxyType({b: d for b, (_, d) in best.items()}),
        MappingProxyType(h1),
    )
