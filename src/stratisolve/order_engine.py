"""Resolution of singular-circle orders.

The downstream graph-of-groups construction needs, for every black vertex
b, the order sigma(b) of its ``b.`` generator in the fundamental group
(0 = infinite).  One rule finds them, the validity fixpoint, and only
upper bounds certified by explicit relator derivations are ever used:

* validity fixpoint: start with every sigma infinite, build all white
  handles under the candidate sigma and compare each computed
  boundary-image order d with the required edge-group order k; a mismatch
  yields the true relation c^d = 1, hence b^{|m| d} = 1, which must itself
  be certified by derivation before it is folded in;
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
  white with edges is a free product of infinite cyclics, where a boundary
  image is a nonempty reduced word of infinite order, as required —
  except at a terminal genus-0 white, whose image is empty and has order
  1.  So the first round's violations are exactly (b, |m|) for each disk,
  in white order; a disk whose |m| is a multiple of an exponent already
  certified needs no search;
* a search for small powers b^n of a black the fixpoint leaves at 0 would
  be wasted: when the fixpoint passes with every finite sigma certified,
  each vertex group embeds, so b has infinite order and no b^n = 1 holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from types import MappingProxyType
from typing import Mapping

from .errors import UndeterminedError
from .gog import boundary_mismatches, build_white_handle
from .graph_model import StratifoldGraph
from .oracle import Budget, Derivation, derivation_gcd, derive_if_h1_trivial
from .presentation import Presentation, abelianization


@dataclass(frozen=True)
class OrderAssignment:
    """Read-only: one assignment is shared by every caller of the memo."""

    sigma: Mapping[str, int]
    unresolved: tuple[str, ...]
    certificates: Mapping[str, Derivation]
    #: order of each b in the abelianized group (0 = infinite); a cheap
    #: divisor of the true order, computed before any search to screen it
    ab_evidence: Mapping[str, int]

    def __post_init__(self):
        for name in ("sigma", "certificates", "ab_evidence"):
            object.__setattr__(
                self, name, MappingProxyType(dict(getattr(self, name)))
            )

    @property
    def status(self) -> str:
        return "undetermined" if self.unresolved else "exact"

    def require_exact(self) -> None:
        if self.unresolved:
            raise UndeterminedError(self.unresolved)


class _Certificates:
    """Per-black gcd-closed certified exponents."""

    def __init__(self, pres: Presentation, budget: Budget):
        self.pres = pres
        self.budget = budget
        self.best: dict[str, tuple[int, Derivation]] = {}
        self.ab = abelianization(pres)
        #: order of each b in H1 (0 = infinite), which divides every
        #: certifiable exponent
        self.h1: dict[str, int] = {
            b: self.ab.order(((f"b.{b}", 1),))
            for b in pres.graph.black_names()
        }

    def current(self, black: str) -> int:
        return self.best.get(black, (0, None))[0]

    def add(self, black: str, deriv: Derivation) -> None:
        exp = sum(e for n, e in deriv.word if n == f"b.{black}")
        exp = abs(exp)
        if exp == 0:
            return
        if black not in self.best:
            self.best[black] = (exp, deriv)
            return
        cur_exp, cur_deriv = self.best[black]
        if exp % cur_exp == 0:
            return
        g, combined = derivation_gcd(f"b.{black}", cur_deriv, deriv)
        self.best[black] = (abs(g), combined)

    def try_derive(self, black: str, exp: int) -> bool:
        """Search for a certificate of b^exp; fold it in when found.  No
        search runs when H1 already refutes b^exp = 1."""
        d = derive_if_h1_trivial(self.ab, ((f"b.{black}", exp),), self.budget)
        if d is None:
            return False
        self.add(black, d)
        return True

    def sigma(self) -> dict[str, int]:
        return {
            b: self.current(b) for b in self.pres.graph.black_names()
        }


def validity_check(
    g: StratifoldGraph, sigma: dict[str, int]
) -> list[tuple[str, int]]:
    """Compare computed boundary-image orders with required edge-group
    orders under sigma.  Returns (black, exponent) pairs for each mismatch,
    the exponent being the newly implied power b^{|m| d} = 1; exponent 0
    (an image of infinite order where a finite one is required) implies
    no finite relation and marks the black unresolvable."""
    handles = {w: build_white_handle(g, w, sigma) for w in g.white_names()}
    return [
        (e.black, abs(e.label) * computed)
        for e, computed, _ in boundary_mismatches(g, handles, sigma)
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
    certs = _Certificates(pres, budget)
    unresolved: set[str] = set()
    # fixpoint: each accepted violation strictly shrinks some sigma by a
    # proper divisor, so iterations are bounded by sum(log2(sigma))
    violations = validity_check(g, certs.sigma())
    for _ in range(64):
        if not violations:
            break
        progress = False
        for black, exp in violations:
            if exp == 0:
                unresolved.add(black)
                continue
            cur = certs.current(black)
            if cur and gcd(cur, exp) == cur:
                continue  # already certified
            if certs.try_derive(black, exp):
                progress = True
            else:
                unresolved.add(black)
        if not progress:
            break
        violations = validity_check(g, certs.sigma())
    if not unresolved:
        # violations persist without certificates: not exact
        unresolved.update(b for b, _ in violations)
    return OrderAssignment(
        sigma=certs.sigma(),
        unresolved=tuple(sorted(unresolved)),
        certificates={b: d for b, (_, d) in certs.best.items()},
        ab_evidence=certs.h1,
    )
