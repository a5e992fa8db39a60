import random

import pytest
from hypothesis import given, strategies as st

from dvschur.bwb import DIM_GR, bott
from dvschur.partitions import dual, weyl_dim
from dvschur.plethysm import koszul_factor_table

# tautological-side patterns (relative to the uniform twist) that can carry
# cohomology when the quotient side is (2m, m, m, 0); everything else in the
# resolution columns q = 0..10 is acyclic for every m
SYM_POWER_SURVIVORS = {
    0: [(0, 0, 0, 0, 0, 0)],
    1: [(1, 1, 1, 0, 0, 0)],
    2: [(1, 1, 1, 1, 1, 1)],
    6: [(5, 5, 3, 3, 1, 1), (5, 5, 2, 2, 2, 2)],
    7: [(6, 5, 3, 3, 2, 2), (5, 5, 3, 3, 3, 2)],
    8: [(6, 6, 3, 3, 3, 3)],
    9: [(7, 6, 6, 3, 3, 2), (6, 6, 6, 4, 4, 1)],
    10: [(8, 6, 6, 4, 4, 2), (8, 6, 6, 4, 3, 3), (7, 7, 7, 3, 3, 3), (7, 7, 6, 4, 4, 2)],
}


def test_published_examples():
    res = bott((2, 2, 0, 0), (4, 4, 2, 2, 2, 1))
    assert (res.degree, res.dim) == (4, 10)
    assert res.gl10_weight == (2,) * 9 + (1,)

    res = bott((0, 0, 0, 0), (7, 7, 7, 3, 3, 3))
    assert (res.degree, res.dim) == (12, 1)

    assert bott((0, 0, 0, 0), (1, 1, 1, 0, 0, 0)) is None

    res = bott((1, 0, 0, 0), (0,) * 6)
    assert (res.degree, res.dim) == (0, 10)
    assert res.gl10_weight == (1,) + (0,) * 9

    res = bott((0, 0, 0, 0), (10,) * 6)
    assert (res.degree, res.dim) == (24, 1)


def test_rejects_non_dominant():
    with pytest.raises(ValueError):
        bott((0, 1, 0, 0), (0,) * 6)
    with pytest.raises(ValueError):
        bott((1, 0, 0, 0), (1, 2, 0, 0, 0, 0))


def test_degree_zero_iff_concatenation_dominant():
    cases = [((3, 2, 1, 0), (0, 0, 0, 0, 0, 0)), ((5, 5, 2, 2), (2, 1, 1, 0, 0, 0))]
    for lam, mu in cases:
        res = bott(lam, mu)
        assert res.degree == 0
        assert res.gl10_weight == lam + mu


def sample_dominant(rng, length, lo, hi):
    return tuple(sorted((rng.randint(lo, hi) for _ in range(length)), reverse=True))


def test_serre_duality_sample():
    rng = random.Random(2024)
    checked = 0
    for _ in range(500):
        lam = sample_dominant(rng, 4, -4, 8)
        mu = sample_dominant(rng, 6, -4, 8)
        res = bott(lam, mu)
        partner = bott(dual(lam), tuple(x + 10 for x in dual(mu)))
        if res is None:
            assert partner is None
            continue
        checked += 1
        assert partner is not None
        assert partner.degree == DIM_GR - res.degree
        assert partner.dim == res.dim
        assert partner.gl10_weight == tuple(x + 6 for x in dual(res.gl10_weight))
    assert checked > 50


@given(st.integers(0, 20), st.integers(0, 3))
def test_acyclic_or_single_degree(seed, m):
    rng = random.Random(seed)
    lam = sample_dominant(rng, 4, 0, 6)
    mu = sample_dominant(rng, 6, 0, 10)
    res = bott(lam, mu)
    if res is not None:
        assert 0 <= res.degree <= DIM_GR
        assert res.dim == weyl_dim(res.gl10_weight) > 0


def test_sym_power_survivor_table():
    """The not-always-acyclic factors in columns 0..10 for quotient side
    (2m,m,m,0) are exactly the published eight-row pattern."""
    table = koszul_factor_table()
    seen = {q: set() for q in range(11)}
    for m in range(7):
        lam = (2 * m, m, m, 0)
        for q in range(11):
            for mu in table[q]:
                res = bott(lam, tuple(x + m for x in mu))
                if res is not None:
                    seen[q].add(mu)
                    assert mu in SYM_POWER_SURVIVORS.get(q, []), (m, q, mu)
    # the published pattern is tight: every listed factor fires for some m <= 12
    for m in range(7, 13):
        lam = (2 * m, m, m, 0)
        for q in range(11):
            for mu in table[q]:
                if bott(lam, tuple(x + m for x in mu)) is not None:
                    assert mu in SYM_POWER_SURVIVORS.get(q, []), (m, q, mu)
                    seen[q].add(mu)
    for q, expected in SYM_POWER_SURVIVORS.items():
        assert seen[q] == set(expected), q
