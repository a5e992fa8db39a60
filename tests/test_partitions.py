from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from dvschur.partitions import (
    CanonicalQPartition,
    canonicalize,
    dual,
    format_weight,
    parse_weight,
    reflect,
    shifted_dual,
    weyl_dim,
)


def dominant_weights(length, lo=-6, hi=10):
    return (
        st.lists(st.integers(lo, hi), min_size=length, max_size=length)
        .map(lambda xs: tuple(sorted(xs, reverse=True)))
    )


def test_canonicalize_examples():
    assert canonicalize((3, 2, 1, 1)) == CanonicalQPartition(2, 1, 0, -1)
    assert canonicalize((1, 1, 1, 0)) == CanonicalQPartition(1, 0, 0, -1)
    assert canonicalize((5, 3, 2, 0)) == CanonicalQPartition(5, 3, 2, 0)


def test_canonicalize_tie_keeps_input():
    # m == t + s is self-dual up to twist: return the input, never the dual
    assert canonicalize((3, 2, 1, 0)) == CanonicalQPartition(3, 2, 1, 0)
    assert canonicalize((2, 1, 1, 0)) == CanonicalQPartition(2, 1, 1, 0)


def test_canonicalize_rejects_non_monotone():
    with pytest.raises(ValueError):
        canonicalize((1, 2, 0, 0))


def test_dual_examples():
    assert shifted_dual((3, 2, 1, 0)) == (3, 2, 1, 0)
    assert shifted_dual((4, 1, 0, 0)) == (4, 4, 3, 0)
    assert dual((3, 2, 1, 0)) == (0, -1, -2, -3)
    for m, t, s in [(4, 2, 1, ), (5, 3, 2), (2, 1, 1)]:
        assert shifted_dual((m, t, s, 0)) == (m, m - s, m - t, 0)


def test_weyl_dim_examples():
    assert weyl_dim(4, (1, 0, 0, 0)) == 4
    assert weyl_dim(10, (2, 1) + (0,) * 8) == 330
    assert weyl_dim(10, (3,) + (0,) * 9) == 220
    assert weyl_dim(10, (2,) * 8 + (1, 0)) == 330
    m, t, s = 5, 3, 2
    closed = (m + 3) * (t + 2) * (s + 1) * (m - t + 1) * (m - s + 2) * (t - s + 1) // 12
    assert weyl_dim(4, (m, t, s, 0)) == closed


def test_weyl_dim_closed_form_grid():
    for m in range(9):
        for t in range(m + 1):
            for s in range(t + 1):
                if t + s > m:
                    continue
                closed = (
                    (m + 3) * (t + 2) * (s + 1)
                    * (m - t + 1) * (m - s + 2) * (t - s + 1)
                )
                assert closed % 12 == 0
                assert weyl_dim(4, (m, t, s, 0)) == closed // 12


@given(dominant_weights(4), st.integers(-5, 5))
def test_weyl_dim_shift_invariant(w, d):
    assert weyl_dim(4, w) == weyl_dim(4, tuple(x + d for x in w))


@given(dominant_weights(6))
def test_weyl_dim_dual_invariant(w):
    assert weyl_dim(6, w) == weyl_dim(6, dual(w))


@given(dominant_weights(4, lo=0))
def test_canonicalize_idempotent_and_dim_preserving(w):
    c = canonicalize(w)
    again = canonicalize(c.weight)
    assert (again.m, again.t, again.s) == (c.m, c.t, c.s)
    assert again.twist == 0
    assert weyl_dim(4, c.weight) == weyl_dim(4, w)


def test_parse_and_format():
    assert parse_weight("3,2,1,0") == (3, 2, 1, 0)
    assert format_weight((3, 2, 1, 0)) == "3,2,1,0"
    with pytest.raises(ValueError):
        parse_weight("3,x")
    with pytest.raises(ValueError):
        parse_weight("1,2,3,4")
    with pytest.raises(ValueError):
        parse_weight("3,2,1", length=4)


def brute_reflect(w):
    """The dot action by search: the permutation that sorts w + staircase
    decreasingly, its sign counted by pairwise comparisons."""
    n = len(w)
    v = [x + n - 1 - i for i, x in enumerate(w)]
    if len(set(v)) < n:
        return None
    for perm in permutations(range(n)):
        image = [v[i] for i in perm]
        if all(image[i] > image[i + 1] for i in range(n - 1)):
            sign = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            return sign, image


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=6))
def test_reflect_matches_brute_force(w):
    assert reflect(tuple(w)) == brute_reflect(w)


def test_reflect_examples():
    assert reflect((2, 1, 0)) == (0, [4, 2, 0])
    # (0,2) + (1,0) = (1,2): one transposition, dominant weight (1,1)
    assert reflect((0, 2)) == (1, [2, 1])
    assert reflect((0, 1)) is None  # (1,1) lies on a wall
    assert reflect((1, 2, 3, 4)) is None  # (4,4,4,4)
    assert reflect((-3, -1, 1, 3)) == (6, [3, 2, 1, 0])  # the longest element
    assert reflect((-1, 0, 0, 0)) is None
