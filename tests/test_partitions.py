import re
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from dvschur.bwb import BottCohomology
from dvschur.ext import ExtReport, ext_groups
from dvschur.koszul import ChaseResult, Cohomology, Conflict, E1Page, RankOverride
from dvschur.koszul import chase_summand
from dvschur.partitions import (
    CanonicalQPartition,
    canonicalize,
    check_dominant,
    dual,
    format_weight,
    parse_weight,
    reflect,
    shifted_dual,
    weyl_dim,
)
from dvschur.reference import DiffCell
from dvschur.ring import AtomicityReport, ExtendedMukaiVector, RingElement
from dvschur.schur import EndSummand


def dominant_weights(length, lo=-6, hi=10):
    return (
        st.lists(st.integers(lo, hi), min_size=length, max_size=length)
        .map(lambda xs: tuple(sorted(xs, reverse=True)))
    )


def test_canonicalize_examples():
    assert canonicalize((3, 2, 1, 1)) == CanonicalQPartition(2, 1, 0, 1)
    # Lambda^3 Q = Q^* tensor O(1)
    assert canonicalize((1, 1, 1, 0)) == CanonicalQPartition(1, 0, 0, 1)
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
    assert weyl_dim((1, 0, 0, 0)) == 4
    assert weyl_dim((2, 1) + (0,) * 8) == 330
    assert weyl_dim((3,) + (0,) * 9) == 220
    assert weyl_dim((2,) * 8 + (1, 0)) == 330
    m, t, s = 5, 3, 2
    closed = (m + 3) * (t + 2) * (s + 1) * (m - t + 1) * (m - s + 2) * (t - s + 1) // 12
    assert weyl_dim((m, t, s, 0)) == closed


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
                assert weyl_dim((m, t, s, 0)) == closed // 12


@given(dominant_weights(4), st.integers(-5, 5))
def test_weyl_dim_shift_invariant(w, d):
    assert weyl_dim(w) == weyl_dim(tuple(x + d for x in w))


@given(dominant_weights(6))
def test_weyl_dim_dual_invariant(w):
    assert weyl_dim(w) == weyl_dim(dual(w))


@given(dominant_weights(4, lo=0))
def test_canonicalize_idempotent_and_dim_preserving(w):
    c = canonicalize(w)
    again = canonicalize(c.weight)
    assert (again.m, again.t, again.s) == (c.m, c.t, c.s)
    assert again.twist == 0
    assert weyl_dim(c.weight) == weyl_dim(w)


@given(dominant_weights(4, lo=-3, hi=6))
def test_canonicalize_twist_is_the_power_of_o1(lam):
    # lam is the canonical weight, or its dual when canonicalising dualised,
    # raised by the twist
    c = canonicalize(lam)
    w = tuple(x - lam[3] for x in lam)
    base = dual(c.weight) if w[0] < w[1] + w[2] else c.weight
    assert tuple(x + c.twist for x in base) == lam


def test_parse_and_format():
    assert parse_weight("3,2,1,0") == (3, 2, 1, 0)
    assert format_weight((3, 2, 1, 0)) == "3,2,1,0"
    with pytest.raises(ValueError):
        parse_weight("3,x")
    with pytest.raises(ValueError):
        parse_weight("1,2,3,4")
    with pytest.raises(ValueError):
        parse_weight("3,2,1", length=4)


@pytest.mark.parametrize("entry", [2.7, 2.0, "2", True])
def test_check_dominant_refuses_non_integer_entries(entry):
    # refused, not truncated: (2.7,1,0,0) is not a name of (2,1,0,0)
    message = f"^weight entry {re.escape(repr(entry))} is not an integer$"
    with pytest.raises(ValueError, match=message):
        check_dominant((entry, 1, 0, 0), 4)
    with pytest.raises(ValueError, match=message):
        ext_groups((entry, 1, 0, 0))


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


def bubble_reflect(w):
    """The dot action by bubble sort: each swap of neighbours out of
    decreasing order is one inversion; equal neighbours at the end are a wall."""
    v = [x + len(w) - 1 - i for i, x in enumerate(w)]
    swaps = 0
    for end in range(len(v) - 1, 0, -1):
        for i in range(end):
            if v[i] < v[i + 1]:
                v[i], v[i + 1] = v[i + 1], v[i]
                swaps += 1
    if any(a == b for a, b in zip(v, v[1:])):
        return None
    return swaps, v


# random entries mostly land on a wall; a permuted staircase never does
@given(st.lists(st.integers(-6, 6), min_size=10, max_size=10)
       | st.permutations(range(10)).map(lambda v: [x - 9 + i for i, x in enumerate(v)]))
def test_reflect_at_the_page_length(w):
    # koszul.e1_page reflects GL(10) weights, past the brute force's reach
    assert reflect(tuple(w)) == bubble_reflect(w)


def test_reflect_examples():
    assert reflect((2, 1, 0)) == (0, [4, 2, 0])
    # (0,2) + (1,0) = (1,2): one transposition, dominant weight (1,1)
    assert reflect((0, 2)) == (1, [2, 1])
    assert reflect((0, 1)) is None  # (1,1) lies on a wall
    assert reflect((1, 2, 3, 4)) is None  # (4,4,4,4)
    assert reflect((-3, -1, 1, 3)) == (6, [3, 2, 1, 0])  # the longest element
    assert reflect((-1, 0, 0, 0)) is None


# ---------------------------------------------------------------------------
# named-tuple value types: every value type of the package, built twice from
# equal fields


EXACT = ((1, 1),) * 5
RECORDS = [
    (CanonicalQPartition, (2, 1, 0, 3)),
    (BottCohomology, (1, (2, 1, 0, 0, 0, 0, 0, 0, 0, -1), 44)),
    (EndSummand, ((2, 1, 1, 0), -1, 1)),
    (RankOverride, ((5, 5, 2, 0), -3, (11, 12), (9, 11), 220, "injective")),
    (E1Page, ((1, 0, 0, 0), 0, (((0, 0), 4),))),
    (Conflict, ((1, 2), (0, 2), 1, 3)),
    (Cohomology, (EXACT,)),
    (ChaseResult, (EXACT, (Conflict((1, 2), (0, 2), 1, 3),), 1)),
    (RingElement, tuple(Fraction(k, 2) for k in range(6))),
    (ExtendedMukaiVector, (Fraction(4), RingElement(h=Fraction(1)), Fraction(1, 2))),
    (AtomicityReport, ((1, 0, 0, 0), CanonicalQPartition(1, 0, 0), 4, 3,
                       Fraction(1, 16), True, True, True)),
    (ExtReport, (EXACT, (1, 0, 0, 0), CanonicalQPartition(1, 0, 0), (), 3)),
    (DiffCell, ((1, 0, 0, 0), "hom", 1, 1, "match")),
]
NAMES = {cls.__name__: cls for cls, _ in RECORDS} | {"Fraction": Fraction}


@pytest.mark.parametrize("cls, args", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_is_an_immutable_value(cls, args):
    a, b = cls(*args), cls(*args)
    assert a is not b and a == b and hash(a) == hash(b)
    assert not a != b
    changed = cls(*args[:-1], None)
    assert changed != a and a != changed
    # the repr is Name(field=value, ...) and rebuilds an equal value
    text = repr(a)
    assert text.startswith(f"{cls.__name__}(") and eval(text, NAMES) == a
    field = text[len(cls.__name__) + 1:].split("=")[0]
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b and not hasattr(a, "extra")


def test_record_equality_needs_the_same_class():
    base, chased = Cohomology(EXACT), ChaseResult(EXACT, (), 5)
    assert base.values == chased.values
    assert base != chased and chased != base
    assert base != EXACT and EXACT != base


def test_record_repr_defaults_and_post_init():
    assert repr(Conflict((1, 2), (0, 2), 1, 3)) == (
        "Conflict(source=(1, 2), target=(0, 2), page=1, cap=3)"
    )
    assert repr(ChaseResult(EXACT, (), 5)) == (
        f"ChaseResult(values={EXACT!r}, conflicts=(), euler=5)"
    )
    zero = Fraction(0)
    assert RingElement() == RingElement(zero, zero, zero, zero, zero, zero)
    assert RingElement(h=Fraction(1)) == RingElement(zero, Fraction(1))
    assert CanonicalQPartition(2, 1, 0).twist == 0
    assert RankOverride((5, 5, 2, 0), -3, (11, 12), (9, 11), 1).note == ""
    with pytest.raises(ValueError, match="not a canonical triple"):
        CanonicalQPartition(2, 2, 1)
    # __new__ stores an override under its normalised name
    other_name = RankOverride((6, 6, 3, 1), -4, (11, 12), (9, 11), 220, "injective")
    assert (other_name.q_weight, other_name.twist) == ((5, 5, 2, 0), -3)
    assert other_name == RankOverride(*RECORDS[3][1])


def test_equal_override_tuples_share_a_chase():
    # the chase cache is keyed by the override tuple, so equal overrides built
    # apart, under either name of the bundle, must hit it
    args = ((11, 12), (9, 11), 220, "injective")
    first = (RankOverride((5, 5, 2, 0), -3, *args),)
    again = (RankOverride((6, 6, 3, 1), -4, *args),)
    assert first == again and hash(first) == hash(again)
    res = chase_summand((5, 5, 2, 0), -3, first)
    hits = chase_summand.cache_info().hits
    assert chase_summand((5, 5, 2, 0), -3, again) is res
    assert chase_summand.cache_info().hits == hits + 1
