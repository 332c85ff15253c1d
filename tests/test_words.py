from hypothesis import given, strategies as st

from stratisolve.words import (
    EMPTY,
    concat,
    free_reduce,
    inverse,
    letters,
    power,
)

pairs = st.lists(
    st.tuples(st.sampled_from("abc"), st.integers(-3, 3)), max_size=12
).map(tuple)


def test_free_reduce_merges_and_cancels():
    assert free_reduce([("a", 1), ("a", 2)]) == (("a", 3),)
    assert free_reduce([("a", 1), ("a", -1)]) == EMPTY
    assert free_reduce([("a", 1), ("b", 0), ("a", 2)]) == (("a", 3),)
    assert free_reduce([("a", 1), ("b", 1), ("b", -1), ("a", -1)]) == EMPTY


@given(pairs)
def test_free_reduce_idempotent(w):
    r = free_reduce(w)
    assert free_reduce(r) == r


@given(pairs)
def test_inverse_cancels(w):
    assert concat(w, inverse(w)) == EMPTY
    assert concat(inverse(w), w) == EMPTY


@given(pairs, st.integers(-4, 4))
def test_power_matches_repetition(w, n):
    expected = EMPTY
    step = free_reduce(w) if n >= 0 else inverse(w)
    for _ in range(abs(n)):
        expected = concat(expected, step)
    assert power(w, n) == expected


@given(pairs)
def test_letters_roundtrip(w):
    assert free_reduce(letters(w)) == free_reduce(w)
    assert sum(abs(e) for _, e in free_reduce(w)) == len(letters(free_reduce(w)))
