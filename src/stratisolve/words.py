"""Free words over named generators.

A word is a tuple of (generator_name, exponent) pairs with nonzero integer
exponents.  All operations return freely reduced words: adjacent pairs carry
distinct generator names and no exponent is zero.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

Pair = Tuple[str, int]
Word = Tuple[Pair, ...]

EMPTY: Word = ()


def free_reduce(pairs: Iterable[Pair]) -> Word:
    """Merge adjacent equal-generator pairs and drop zero exponents."""
    out: list[Pair] = []
    for name, exp in pairs:
        if exp == 0:
            continue
        if out and out[-1][0] == name:
            merged = out[-1][1] + exp
            if merged == 0:
                out.pop()
            else:
                out[-1] = (name, merged)
        else:
            out.append((name, exp))
    return tuple(out)


def inverse(w: Iterable[Pair]) -> Word:
    return tuple((name, -exp) for name, exp in reversed(list(w)))


def concat(*ws: Iterable[Pair]) -> Word:
    pairs: list[Pair] = []
    for w in ws:
        pairs.extend(w)
    return free_reduce(pairs)


def power(w: Iterable[Pair], n: int) -> Word:
    w = tuple(w)
    if n == 0:
        return EMPTY
    if n < 0:
        w, n = inverse(w), -n
    return free_reduce(w * n)


def genus_word(names: Sequence[str], genus: int) -> Word:
    """The surface word q over the given surface generators: commutators
    [y1,y2]...[y_{2g-1},y_{2g}] for genus g > 0, squares y1^2...y_|g|^2 for
    genus g < 0, and the empty word for genus 0."""
    if genus < 0:
        return tuple((y, 2) for y in names[:-genus])
    return concat(*(
        ((a, 1), (b, 1), (a, -1), (b, -1))
        for a, b in zip(names[0:2 * genus:2], names[1:2 * genus:2])
    ))


def letters(w: Iterable[Pair]) -> Tuple[Pair, ...]:
    """Flatten to single-letter pairs (name, +-1)."""
    out: list[Pair] = []
    for name, exp in w:
        step = 1 if exp > 0 else -1
        out.extend((name, step) for _ in range(abs(exp)))
    return tuple(out)
