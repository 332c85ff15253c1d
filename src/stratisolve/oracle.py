"""Independent ground-truth machinery.

Four tools, deliberately separate from the loop-word solver so they can
cross-check it:

* ``derive_trivial``: budgeted best-first search for an explicit rewrite of
  a word to the empty word using only defining relators.  Successful
  searches return a replayable :class:`Derivation`.  The order engine and
  the CLI reach it through ``derive_if_h1_trivial``, which runs no search
  that H1 refutes.
* ``todd_coxeter``: HLT-style coset enumeration over the trivial subgroup.
* ``cayley_wp``: evaluate a word on a completed coset table.
* ``finite_quotient_search``: backtracking enumeration of transitive
  permutation actions of degree <= N (equivalently subgroups of index <= N),
  yielding finite quotients that certify lower bounds on element orders.
"""

from __future__ import annotations

import heapq
from itertools import count
from math import gcd
from typing import NamedTuple

from .errors import IncompleteTableError
from .presentation import Abelianization, Presentation
from .words import (
    EMPTY,
    Word,
    concat,
    free_reduce,
    from_letters,
    inverse,
    letters,
    power,
)


class Budget(NamedTuple):
    """Search budget for consequence derivations."""

    insertions: int = 6
    max_length: int = 64
    max_expansions: int = 3000

    @classmethod
    def parse(cls, text: str) -> "Budget":
        """``INSERTIONS,MAXLEN``; ValueError names what is wrong."""
        fields = text.split(",")
        if len(fields) != 2:
            raise ValueError(
                f"budget needs two fields INSERTIONS,MAXLEN, not {text!r}")
        try:
            ins, maxlen = map(int, fields)
        except ValueError:
            raise ValueError(f"budget fields must be integers, not {text!r}") from None
        if ins < 1 or maxlen < 1:
            raise ValueError(f"budget fields must be at least 1, not {text!r}")
        return cls(ins, maxlen)


DEFAULT_BUDGET = Budget()


# -- derivations ----------------------------------------------------------

class DerivStep(NamedTuple):
    """Right-multiplication by conjugator^-1 * relator^sign * conjugator.

    Inserting relator^sign into w = a.b between a and b equals
    w * (b^-1 relator^sign b); the recorded conjugator is that suffix b.
    """

    conjugator: Word
    relator_index: int
    sign: int


class Derivation(NamedTuple):
    """Replayable certificate that ``word`` is a consequence of the
    relators: applying the steps in order rewrites it to the empty word."""

    word: Word
    steps: tuple[DerivStep, ...]


def apply_step(p: Presentation, w: Word, step: DerivStep) -> Word:
    rel = p.relators[step.relator_index]
    return concat(
        w, inverse(step.conjugator), power(rel, step.sign), step.conjugator
    )


def replay_derivation(p: Presentation, d: Derivation) -> bool:
    acc = free_reduce(d.word)
    for step in d.steps:
        acc = apply_step(p, acc, step)
    return acc == EMPTY


def derive_trivial(p: Presentation, w: Word, budget: Budget = DEFAULT_BUDGET):
    """Best-first search for a derivation of w to the empty word.

    States are freely reduced words; moves insert a relator (or its
    inverse) at any letter position.  Priority is (length, insertions) so
    short certificates are found first.  Returns a Derivation or None.

    A state is held as its tuple of letters, each letter a signed generator
    code, which is unique per freely reduced word.  The two parts of a
    state on either side of an insertion are already reduced, so a move
    cancels only across the two seams prefix|relator and relator|suffix.
    """
    start = free_reduce(w)
    if start == EMPTY:
        return Derivation(start, ())
    names: list[str] = [""]
    codes: dict[str, int] = {}

    def encode(word: Word) -> tuple[int, ...]:
        out: list[int] = []
        for name, exp in word:
            code = codes.get(name)
            if code is None:
                code = codes[name] = len(names)
                names.append(name)
            out.extend([code if exp > 0 else -code] * abs(exp))
        return tuple(out)

    def decode(ls: tuple[int, ...]) -> Word:
        return from_letters((names[abs(x)], 1 if x > 0 else -1) for x in ls)

    rels = [
        (idx, sign, encode(power(r, sign)))
        for idx, r in enumerate(p.relators)
        if r != EMPTY
        for sign in (1, -1)
    ]
    init = encode(start)
    tick = count()
    heap = [(len(init), 0, next(tick), init, ())]
    best: dict[tuple[int, ...], int] = {init: 0}
    expansions = 0
    while heap and expansions < budget.max_expansions:
        _, ins, _, cur, steps = heapq.heappop(heap)
        if best.get(cur, budget.insertions + 1) < ins:
            continue
        expansions += 1
        if ins >= budget.insertions:
            continue
        n = len(cur)
        for pos in range(n + 1):
            suffix = None  # the conjugator, built on first use
            for idx, sign, rel in rels:
                lr = len(rel)
                # prefix|relator: cur[pos-k:pos] cancels rel[:k]
                k = 0
                while k < pos and k < lr and cur[pos - 1 - k] == -rel[k]:
                    k += 1
                # relator|suffix: rel[lr-j:] cancels cur[pos:pos+j]; once
                # the relator is used up, cur[pos-k-i:pos-k] cancels
                # cur[pos+j:pos+j+i]
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
                if size and size > budget.max_length:
                    continue
                if suffix is None:
                    suffix = decode(cur[pos:])
                step = DerivStep(suffix, idx, sign)
                if not size:
                    return Derivation(start, steps + (step,))
                nxt = cur[:pos - k - i] + rel[k:lr - j] + cur[pos + j + i:]
                if best.get(nxt, ins + 2) <= ins + 1:
                    continue
                best[nxt] = ins + 1
                heapq.heappush(
                    heap, (size, ins + 1, next(tick), nxt, steps + (step,))
                )
    return None


def derive_if_h1_trivial(ab: Abelianization, w: Word, budget: Budget):
    """``derive_trivial`` behind the H1 screen: G -> H1 is a homomorphism,
    so a word whose image in H1 is nontrivial has no derivation, and None
    comes back without a search."""
    if ab.order(w) != 1:
        return None
    return derive_trivial(ab.presentation, w, budget)


# -- derivation algebra ----------------------------------------------------
#
# Right-multiplication steps are position-independent, so certificates
# compose without further search:
#   D(v) steps then D(u) steps derive u.v;  reversing steps with flipped
#   signs derives the inverse.

def derivation_concat(u_deriv: Derivation, v_deriv: Derivation) -> Derivation:
    word = concat(u_deriv.word, v_deriv.word)
    return Derivation(word, v_deriv.steps + u_deriv.steps)


def derivation_inverse(d: Derivation) -> Derivation:
    steps = tuple(
        DerivStep(s.conjugator, s.relator_index, -s.sign)
        for s in reversed(d.steps)
    )
    return Derivation(inverse(d.word), steps)


def derivation_repeat(d: Derivation, k: int) -> Derivation:
    if k < 0:
        return derivation_repeat(derivation_inverse(d), -k)
    out = Derivation(EMPTY, ())
    for _ in range(k):
        out = derivation_concat(out, d)
    return out


def derivation_gcd(name: str, d1: Derivation, d2: Derivation):
    """From certificates for ``name``^e1 and ``name``^e2, build one for
    ``name``^gcd(e1, e2) via the extended gcd (powers of a single letter
    commute, so the Bezout product collapses to the gcd power)."""
    e1 = sum(e for n, e in d1.word if n == name)
    e2 = sum(e for n, e in d2.word if n == name)
    g = gcd(e1, e2)
    x, y = _bezout(e1, e2)
    d = derivation_concat(derivation_repeat(d1, x), derivation_repeat(d2, y))
    return g, Derivation(((name, g),), d.steps)


def _bezout(a: int, b: int) -> tuple[int, int]:
    """x, y with a*x + b*y = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_x, old_y = -old_x, -old_y
    return old_x, old_y


# -- coset enumeration ------------------------------------------------------

class CosetTable(NamedTuple):
    generators: tuple[str, ...]
    status: str  # 'complete' | 'exhausted'
    order: int | None
    #: rows[coset][2*g] = coset.gen, rows[coset][2*g+1] = coset.gen^-1
    rows: list[list[int | None]]

    def column(self, name: str, exp_sign: int) -> int:
        g = self.generators.index(name)
        return 2 * g if exp_sign > 0 else 2 * g + 1


def todd_coxeter(p: Presentation, max_cosets: int = 100000) -> CosetTable:
    """HLT coset enumeration of the trivial subgroup."""
    gens = p.generators
    ncols = 2 * len(gens)
    col = {g: 2 * i for i, g in enumerate(gens)}
    rel_paths = [
        [
            (col[name] if e > 0 else col[name] + 1)
            for name, e in letters(r)
        ]
        for r in p.relators
        if r != EMPTY
    ]

    table: list[list[int | None]] = [[None] * ncols]
    alive = [True]
    rep = list(range(1))
    merge_queue: list[tuple[int, int]] = []

    def find(a: int) -> int:
        while rep[a] != a:
            rep[a] = rep[rep[a]]
            a = rep[a]
        return a

    def define(a: int, c: int) -> int | None:
        if len(table) >= max_cosets:
            return None
        table.append([None] * ncols)
        alive.append(True)
        rep.append(len(table) - 1)
        b = len(table) - 1
        set_entry(a, c, b)
        return b

    def set_entry(a: int, c: int, b: int) -> None:
        inv = c ^ 1
        for x, cc, y in ((a, c, b), (b, inv, a)):
            cur = table[x][cc]
            if cur is None:
                table[x][cc] = y
            elif find(cur) != find(y):
                merge_queue.append((cur, y))

    def process_merges() -> None:
        while merge_queue:
            a, b = merge_queue.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            rep[b] = a
            alive[b] = False
            for c in range(ncols):
                y = table[b][c]
                if y is not None:
                    set_entry(a, c, find(y))

    def scan(a: int, path: list[int]) -> bool:
        """Scan relator path at coset a, defining cosets as needed.
        Returns False when the coset limit is hit."""
        # forward as far as possible
        f, i = a, 0
        while i < len(path):
            f = find(f)
            nxt = table[f][path[i]]
            if nxt is None:
                break
            f, i = nxt, i + 1
        if i == len(path):
            f, a_ = find(f), find(a)
            if f != a_:
                merge_queue.append((f, a_))
                process_merges()
            return True
        # backward
        b, j = find(a), len(path)
        while j > i:
            b = find(b)
            prv = table[b][path[j - 1] ^ 1]
            if prv is None:
                break
            b, j = prv, j - 1
        if j == i + 1:
            set_entry(find(f), path[i], find(b))
            process_merges()
            return True
        if j == i:
            f, b = find(f), find(b)
            if f != b:
                merge_queue.append((f, b))
                process_merges()
            return True
        nxt = define(find(f), path[i])
        if nxt is None:
            return False
        process_merges()
        return scan(find(a), path)

    a = 0
    while a < len(table):
        if not alive[find(a)] or find(a) != a:
            a += 1
            continue
        for path in rel_paths:
            if not alive[a] or find(a) != a:
                break
            if not scan(a, path):
                return CosetTable(gens, "exhausted", None, table)
        if alive[a] and find(a) == a:
            for c in range(ncols):
                if not alive[a] or find(a) != a:
                    break
                if table[a][c] is None:
                    if define(a, c) is None:
                        return CosetTable(gens, "exhausted", None, table)
                    process_merges()
        a += 1

    # compact to live cosets
    live = sorted({find(i) for i in range(len(table)) if alive[find(i)]})
    index = {old: new for new, old in enumerate(live)}
    rows = [
        [index[find(table[old][c])] for c in range(ncols)] for old in live
    ]
    return CosetTable(gens, "complete", len(live), rows)


def cayley_wp(t: CosetTable, w: Word) -> bool:
    """True iff w fixes the basepoint coset of a complete table."""
    if t.status != "complete":
        raise IncompleteTableError("coset table did not close")
    c = 0
    for name, e in letters(w):
        c = t.rows[c][t.column(name, e)]
    return c == 0


# -- finite quotients --------------------------------------------------------

class QuotientHom(NamedTuple):
    """Homomorphism onto a transitive permutation group of degree n,
    given by one permutation (tuple of images of 0..n-1) per generator."""

    generators: tuple[str, ...]
    degree: int
    images: tuple[tuple[int, ...], ...]

    def permutation(self, w: Word) -> tuple[int, ...]:
        perm = tuple(range(self.degree))
        lookup = {}
        for g, img in zip(self.generators, self.images):
            lookup[(g, 1)] = img
            lookup[(g, -1)] = _perm_inverse(img)
        out = list(perm)
        for name, e in letters(w):
            img = lookup[(name, e)]
            out = [img[x] for x in out]
        return tuple(out)

    def element_order(self, w: Word) -> int:
        perm = self.permutation(w)
        return _perm_order(perm)

    def image_order(self, cap: int = 100000) -> int | None:
        """Order of the generated permutation group by closure; None when
        the cap is exceeded."""
        ident = tuple(range(self.degree))
        gens = [img for img in self.images if img != ident]
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for a in frontier:
                for gimg in gens:
                    b = tuple(gimg[x] for x in a)
                    if b not in seen:
                        if len(seen) >= cap:
                            return None
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        return len(seen)


def _perm_inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _perm_order(p: tuple[int, ...]) -> int:
    from math import lcm

    seen = [False] * len(p)
    order = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        order = lcm(order, length)
    return order


def finite_quotient_search(
    p: Presentation, max_degree: int, max_results: int = 20
) -> list[QuotientHom]:
    """Transitive permutation actions of degree <= max_degree satisfying all
    relators, via backtracking coset-table completion (subgroups of small
    index).  Results are deterministic and lexicographically ordered."""
    out: list[QuotientHom] = []
    for n in range(1, max_degree + 1):
        out.extend(_transitive_actions(p, n, max_results - len(out)))
        if len(out) >= max_results:
            break
    return out


def _transitive_actions(p: Presentation, n: int, limit: int):
    if limit <= 0:
        return []
    gens = p.generators
    ncols = 2 * len(gens)
    col = {g: 2 * i for i, g in enumerate(gens)}
    rel_paths = [
        [(col[name] if e > 0 else col[name] + 1) for name, e in letters(r)]
        for r in p.relators
        if r != EMPTY
    ]
    table = [[-1] * ncols for _ in range(n)]
    results: list[QuotientHom] = []

    def set_slot(a: int, c: int, b: int, trail: list) -> bool:
        """Define a.c = b (and b.c^-1 = a); False on conflict."""
        if table[a][c] != -1:
            return table[a][c] == b
        if table[b][c ^ 1] != -1:
            return table[b][c ^ 1] == a
        table[a][c] = b
        table[b][c ^ 1] = a
        trail.append((a, c, b))
        return True

    def scan_once(start: int, path: list[int]):
        """Trace one relator cycle: 'conflict', a forced (a, c, b), or None."""
        f, i = start, 0
        while i < len(path) and table[f][path[i]] != -1:
            f = table[f][path[i]]
            i += 1
        if i == len(path):
            return "conflict" if f != start else None
        b, j = start, len(path)
        while j > i and table[b][path[j - 1] ^ 1] != -1:
            b = table[b][path[j - 1] ^ 1]
            j -= 1
        if j == i + 1:
            return (f, path[i], b)
        if j == i:
            return "conflict" if f != b else None
        return None

    def propagate(trail: list) -> bool:
        """Force deductions from relator cycles until a fixpoint."""
        changed = True
        while changed:
            changed = False
            for path in rel_paths:
                for start in range(n):
                    res = scan_once(start, path)
                    if res == "conflict":
                        return False
                    if res is not None:
                        a, c, b = res
                        if not set_slot(a, c, b, trail):
                            return False
                        changed = True
        return True

    def undo(trail: list, mark: int) -> None:
        while len(trail) > mark:
            a, c, b = trail.pop()
            table[a][c] = -1
            table[b][c ^ 1] = -1

    def first_hole():
        for a in range(n):
            for c in range(ncols):
                if table[a][c] == -1:
                    return a, c
        return None

    def used_max() -> int:
        # the basepoint 0 always counts as used, even in an empty table
        return max(
            (table[a][c] for a in range(n) for c in range(ncols) if table[a][c] >= 0),
            default=0,
        )

    trail: list = []

    def backtrack():
        if len(results) >= limit:
            return
        hole = first_hole()
        if hole is None:
            if _is_transitive(table, n, ncols):
                images = tuple(
                    tuple(table[a][col[g]] for a in range(n)) for g in gens
                )
                results.append(QuotientHom(tuple(gens), n, images))
            return
        a, c = hole
        # canonical growth: a new point may only be the smallest unused one
        cap = min(n - 1, used_max() + 1) if n > 1 else 0
        for b in range(cap + 1):
            mark = len(trail)
            if set_slot(a, c, b, trail) and propagate(trail):
                backtrack()
            undo(trail, mark)
            if len(results) >= limit:
                return

    if propagate(trail):
        backtrack()
    return results


def _is_transitive(table, n: int, ncols: int) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        a = stack.pop()
        for c in range(ncols):
            b = table[a][c]
            if b >= 0 and b not in seen:
                seen.add(b)
                stack.append(b)
    return len(seen) == n
