import functools
import itertools
import random

import pytest

from conftest import random_points, schur_value
from dvschur.partitions import canonicalize, shifted_dual, weyl_dim
from dvschur.schur import (
    MAX_DIM,
    end_decomposition,
    lr_coefficients,
    pieri,
    weight_system,
)


def small_partitions(max_size, max_parts):
    out = [()]
    def grow(prefix, left, cap):
        for v in range(min(left, cap), 0, -1):
            out.append(prefix + (v,))
            grow(prefix + (v,), left - v, v)
    grow((), max_size, max_size)
    return [p for p in out if len(p) <= max_parts]


def test_lr_examples():
    assert lr_coefficients((2, 1, 0), (2, 2, 0), 3) == {
        (4, 3, 0): 1, (4, 2, 1): 1, (3, 3, 1): 1, (3, 2, 2): 1
    }
    assert lr_coefficients((3, 1, 0, 0), (0, 0, 0, 0), 4) == {(3, 1, 0, 0): 1}
    assert lr_coefficients((1, 0, 0, 0), (1, 0, 0, 0), 4) == {
        (2, 0, 0, 0): 1, (1, 1, 0, 0): 1
    }


def test_lr_negative_entries_shift():
    # End(Q) through the dual weight directly
    assert lr_coefficients((1, 0, 0, 0), (0, 0, 0, -1), 4) == {
        (1, 0, 0, -1): 1, (0, 0, 0, 0): 1
    }


def test_pieri_examples():
    assert set(pieri((2, 1, 0), 3, 3)) == {(5, 1, 0), (4, 2, 0), (4, 1, 1), (3, 2, 1)}
    assert all(v == 1 for v in pieri((2, 1, 0), 3, 3).values())
    # one box per column: (2,2,0,0) is NOT reachable from (1,1,0,0) with two boxes
    assert pieri((1, 1, 0, 0), 2, 4) == {(3, 1, 0, 0): 1, (2, 1, 1, 0): 1}
    assert pieri((3, 2, 1, 0), 0, 4) == {(3, 2, 1, 0): 1}


def pieri_strips(lam, m, rank):
    """Reference Pieri rule: add m boxes to lam, at most one per column
    (horizontal strips), every resulting shape with multiplicity 1."""
    lam = tuple(lam) + (0,) * (rank - len(lam))
    out = {}

    def grow(i, prev, left, shape):
        if i == rank:
            if left == 0:
                out[shape] = 1
            return
        for v in range(lam[i], min(prev, lam[i] + left) + 1):
            grow(i + 1, lam[i], left - (v - lam[i]), shape + (v,))

    grow(0, lam[0] + m, m, ())
    return out


def test_pieri_matches_strips():
    checked = 0
    for rank in (1, 2, 3, 4):
        for lam in itertools.product(range(3, -3, -1), repeat=rank):
            if list(lam) != sorted(lam, reverse=True):
                continue
            for m in range(6):
                assert pieri(lam, m, rank) == pieri_strips(lam, m, rank), (lam, m)
                checked += 1
    assert checked > 1000


def strip_kostka(lam, mu):
    """Reference Kostka number by removing horizontal strips: the number of
    semistandard tableaux of shape lam and content mu (a partition shape;
    the content in any order)."""
    lam = tuple(x for x in lam if x)
    mu = tuple(x for x in sorted(mu, reverse=True) if x)
    if sum(lam) != sum(mu):
        return 0
    return _strip_kostka(lam, mu)


@functools.cache
def _strip_kostka(lam, mu):
    if not mu:
        return 1 if not lam else 0
    if len(lam) > len(mu):
        return 0
    return sum(_strip_kostka(nu, mu[:-1]) for nu in _strips_below(lam, mu[-1]))


def _strips_below(lam, size):
    """Partitions nu with lam/nu a horizontal strip of the given size."""
    out = []

    def go(i, left, shape):
        if i == len(lam):
            if left == 0:
                out.append(tuple(x for x in shape if x))
            return
        floor = lam[i + 1] if i + 1 < len(lam) else 0
        for v in range(lam[i], max(floor, lam[i] - left) - 1, -1):
            go(i + 1, left - (lam[i] - v), shape + (v,))

    go(0, size, ())
    return out


def composition_weight_system(lam):
    """Reference weight system: every vector with entries in [0, lam_1] and
    sum |lam| (after shifting the last entry to 0) with a nonzero Kostka
    number, in descending order, shifted back."""
    shift = lam[-1]
    base = tuple(x - shift for x in lam)
    out = []
    for w in itertools.product(range(base[0], -1, -1), repeat=len(lam)):
        if sum(w) == sum(base):
            k = strip_kostka(base, w)
            if k:
                out.append((tuple(x + shift for x in w), k))
    return tuple(out)


def multiplicity(lam, w):
    return dict(weight_system(lam)).get(w, 0)


def test_weight_multiplicity_examples():
    assert multiplicity((3, 2, 1), (3, 2, 1)) == 1
    assert multiplicity((2, 1, 0), (1, 1, 1)) == 2
    assert multiplicity((1, 1, 1), (2, 1, 0)) == 0
    assert multiplicity((2, 2, 0, 0), (1, 1, 1, 1)) == 2
    assert multiplicity((4, 2, 0), (2, 2, 2)) == 3
    # content order is immaterial
    assert multiplicity((3, 1, 0), (1, 2, 1)) == multiplicity((3, 1, 0), (2, 1, 1))


def ssyt_count(shape, content):
    """Semistandard tableaux of the shape and content, enumerated directly."""
    letters = []
    for i, c in enumerate(content):
        letters += [i + 1] * c
    cells = [(r, col) for r, width in enumerate(shape) for col in range(width)]
    seen = 0
    def place(idx, grid, remaining):
        nonlocal seen
        if idx == len(cells):
            seen += 1
            return
        r, col = cells[idx]
        used = set()
        for i, v in enumerate(remaining):
            if v in used:
                continue
            used.add(v)
            if col and grid.get((r, col - 1), 0) > v:
                continue
            if r and grid.get((r - 1, col), v) >= v:
                continue
            grid[(r, col)] = v
            place(idx + 1, grid, remaining[:i] + remaining[i + 1:])
            del grid[(r, col)]
    place(0, {}, letters)
    return seen


def test_weight_multiplicity_brute_force_small():
    for shape, content in [
        ((3, 2), (2, 2, 1)),
        ((2, 2, 1), (1, 1, 1, 1, 1)),
        ((4, 2, 1), (2, 2, 2, 1)),
    ]:
        want = ssyt_count(shape, content)
        lam = shape + (0,) * (len(content) - len(shape))
        assert multiplicity(lam, content) == want, (shape, content)
        assert strip_kostka(shape, content) == want, (shape, content)


def test_weight_system_matches_compositions():
    grid = [
        lam
        for n, lo, hi in [(2, -3, 3), (3, -2, 2), (4, -2, 2), (5, -1, 1), (6, -1, 1)]
        for lam in itertools.product(range(hi, lo - 1, -1), repeat=n)
        if list(lam) == sorted(lam, reverse=True)
    ]
    grid += [(3, 2, 1, 0, -1), (3, 1, 0, 0, 0, -1), (2, 2, 1, 0, 0, 0)]
    for lam in grid:
        assert weight_system(lam) == composition_weight_system(lam), lam
    assert {len(lam) for lam in grid} == {2, 3, 4, 5, 6}
    assert sum(lam[-1] < 0 for lam in grid) > 50


def test_lr_against_schur_products():
    rng = random.Random(23)
    pairs = [
        ((3, 1, 0, 0), (3, 3, 2, 0)),
        ((2, 2, 0, 0), (2, 2, 0, 0)),
        ((4, 1, 1, 0), (4, 3, 3, 0)),
        ((3, 2, 1, 0), (3, 2, 1, 0)),
    ]
    for lam, mu in pairs:
        dec = lr_coefficients(lam, mu, 4)
        for xs in random_points(rng, 4, 2):
            lhs = schur_value(lam, xs) * schur_value(mu, xs)
            rhs = sum(n * schur_value(nu, xs) for nu, n in dec.items())
            assert lhs == rhs, (lam, mu, xs)


def test_end_decomposition_wedge2():
    dec = end_decomposition(canonicalize((1, 1, 0, 0)))
    as_map = {(s.q_weight, s.twist): s.multiplicity for s in dec}
    assert as_map == {
        ((2, 2, 0, 0), -1): 1,
        ((2, 1, 1, 0), -1): 1,
        ((1, 1, 1, 1), -1): 1,
    }
    normalized = {s.normalized() for s in dec}
    assert ((0, 0, 0, 0), 0) in normalized  # the trivial summand


def test_end_decomposition_standard():
    dec = end_decomposition(canonicalize((1, 0, 0, 0)))
    assert {(s.q_weight, s.multiplicity) for s in dec} == {
        ((2, 1, 1, 0), 1), ((1, 1, 1, 1), 1)
    }


def test_end_decomposition_published_16_terms():
    dec = end_decomposition(canonicalize((3, 2, 1, 0)))
    mine = {s.q_weight: s.multiplicity for s in dec}
    assert mine == {
        (6, 4, 2, 0): 1, (6, 4, 1, 1): 1, (6, 3, 3, 0): 1, (6, 3, 2, 1): 2,
        (6, 2, 2, 2): 1, (5, 5, 2, 0): 1, (5, 5, 1, 1): 1, (5, 4, 3, 0): 2,
        (5, 4, 2, 1): 4, (5, 3, 3, 1): 3, (5, 3, 2, 2): 3, (4, 4, 4, 0): 1,
        (4, 4, 3, 1): 3, (4, 4, 2, 2): 2, (4, 3, 3, 2): 3, (3, 3, 3, 3): 1,
    }
    assert all(s.twist == -3 for s in dec)


def test_end_trivial_summand_multiplicity_one():
    for lam in [(2, 1, 0, 0), (3, 3, 0, 0), (4, 2, 1, 0), (5, 3, 2, 0)]:
        c = canonicalize(lam)
        dec = {s.q_weight: s.multiplicity for s in end_decomposition(c)}
        assert dec[(c.m,) * 4] == 1


def test_monotone_factor_growth():
    # every factor of the endomorphism product persists, raised by one box
    # per row, when the partition grows along any of the three edges
    for m in range(9):
        for t in range(m + 1):
            for s in range(t + 1):
                if t + s > m:
                    continue
                base = set(
                    lr_coefficients((m, t, s, 0), shifted_dual((m, t, s, 0)), 4)
                )
                for up in [
                    (m + 1, t, s, 0),
                    (m + 1, t + 1, s, 0),
                    (m + 1, t + 1, s + 1, 0),
                ]:
                    grown = set(lr_coefficients(up, shifted_dual(up), 4))
                    for nu in base:
                        assert tuple(x + 1 for x in nu) in grown, (m, t, s, up, nu)


def test_lr_rank_cutoff():
    # partitions needing more rows than the rank are discarded
    assert lr_coefficients((1, 1, 0), (1, 1, 0), 3) == {(2, 2, 0): 1, (2, 1, 1): 1}
    assert lr_coefficients((1, 1), (1, 1), 2) == {(2, 2): 1}


def lr_tableaux(lam, mu, rank):
    """Reference Littlewood-Richardson rule: lattice-word fillings of nu/lam
    with content mu (rows weakly increase, columns strictly increase, the
    reverse reading word is a lattice word).  Negative entries are shifted
    away and back; shapes with more than ``rank`` rows never arise."""
    lam = tuple(lam) + (0,) * (rank - len(lam))
    mu = tuple(mu) + (0,) * (rank - len(mu))
    a, b = max(0, -lam[-1]), max(0, -mu[-1])
    raw = _lattice_fillings(
        tuple(x + a for x in lam), tuple(x + b for x in mu), rank
    )
    return {tuple(x - a - b for x in nu): n for nu, n in raw.items()}


def _lattice_fillings(lam, mu, rank):
    total = sum(mu)
    nletters = len(mu)
    result = {}
    counts = [0] * (nletters + 1)

    def fill_row(i, prev_vals, placed, shape):
        if i == rank:
            if placed == total:
                result[shape] = result.get(shape, 0) + 1
            return
        prev_len = len(prev_vals) if i else lam[0] + (mu[0] if mu else 0)
        base = lam[i]
        if base > prev_len:
            return
        row = [0] * prev_len

        def place(col, length, last, placed):
            if col < base:
                fill_row(i + 1, tuple(row[:length]), placed, shape + (length,))
                return
            above = prev_vals[col] if i else 0
            # letters in 0-indexed row i never exceed i+1 in a lattice filling
            for v in range(min(last, i + 1), above, -1):
                if counts[v] >= mu[v - 1]:
                    continue
                if v > 1 and counts[v] >= counts[v - 1]:
                    continue
                counts[v] += 1
                row[col] = v
                place(col - 1, length, v, placed + 1)
                row[col] = 0
                counts[v] -= 1

        for length in range(prev_len, base - 1, -1):
            if total - placed > (length - base) + (rank - 1 - i) * length:
                break  # not enough room left even filling everything below
            place(length - 1, length, nletters, placed)

    fill_row(0, (), 0, ())
    return result


def test_lr_matches_tableaux_on_small_partitions():
    checked = 0
    for rank in (2, 3, 4, 5):
        parts = small_partitions(6, rank)
        for lam in parts:
            for mu in parts:
                assert lr_coefficients(lam, mu, rank) == lr_tableaux(lam, mu, rank), (
                    lam, mu, rank
                )
                checked += 1
    assert checked > 2000


def test_lr_matches_tableaux_with_negative_entries():
    rng = random.Random(31)
    for _ in range(200):
        rank = rng.randint(2, 5)
        lam, mu = (
            tuple(sorted((rng.randint(-4, 4) for _ in range(rank)), reverse=True))
            for _ in range(2)
        )
        assert lr_coefficients(lam, mu, rank) == lr_tableaux(lam, mu, rank), (lam, mu)


def test_lr_matches_tableaux_at_high_rank():
    for lam, mu, rank in [
        ((3, 2, 1), (2, 1), 8),
        ((2, 2, 1, 1), (3, 1, 1), 9),
        ((1, 1, 1, 1, 1, 1, 1, 1, 1), (2, 1, 1), 12),
    ]:
        got = lr_coefficients(lam, mu, rank)
        assert got == lr_tableaux(lam, mu, rank), (lam, mu, rank)
        assert all(len(nu) == rank for nu in got)


def test_end_decomposition_matches_tableaux():
    for lam in [(8, 4, 2, 0), (10, 5, 2, 0)]:
        c = canonicalize(lam)
        want = lr_tableaux(c.weight, shifted_dual(c.weight), 4)
        got = {s.q_weight: s.multiplicity for s in end_decomposition(c)}
        assert got == want, lam
        assert all(s.twist == -c.m for s in end_decomposition(c))


def test_weight_system_other_lengths():
    for lam in [(2, 1, 0), (3, 1, 1, 0, -1), (2, 2, 1, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0)]:
        ws = weight_system(lam)
        assert sum(k for _, k in ws) == weyl_dim(lam), lam
        assert len({w for w, _ in ws}) == len(ws)
        assert all(len(w) == len(lam) and sum(w) == sum(lam) for w, _ in ws)
    assert dict(weight_system((2, 1, 0))) == {
        w: (2 if w == (1, 1, 1) else 1)
        for w in [(2, 1, 0), (2, 0, 1), (1, 2, 0), (0, 2, 1), (1, 0, 2), (0, 1, 2), (1, 1, 1)]
    }


def test_weight_system_bound_is_inclusive():
    # dimensions 1,999,404 and 2,000,376 straddle the bound; both are quick
    below, above = (12, 7, 6, 6, 5, 0), (17, 6, 5, 2, 0)
    assert weyl_dim(below) <= MAX_DIM < weyl_dim(above)
    assert sum(k for _, k in weight_system(below)) == weyl_dim(below)
    with pytest.raises(ValueError, match=f"^weight \\(17,6,5,2,0\\) has dimension 2000376, "
                                         f"above the bound {MAX_DIM} "):
        weight_system(above)
