import os
import subprocess
import sys
from functools import cache
from itertools import combinations, permutations
from math import comb, factorial
from pathlib import Path

import pytest

from dvschur import plethysm
from dvschur.partitions import Weight, is_dominant, weyl_dim
from dvschur.plethysm import WEDGE_RANK, koszul_factor_table
from dvschur.reference import koszul_mismatches, koszul_reference
from dvschur.schur import Decomposition, klimyk_sum, weight_system
from test_schur import strip_kostka


# The derivation of the shipped factor table.  The third wedge V of C^6 has
# the indicator vectors e_T of the 3-element subsets T of {1..6} as weights.
# Its exterior powers follow from Newton's identity (Macdonald, Symmetric
# Functions and Hall Polynomials, I.2),
#
#     p * Lambda^p V = sum_{k=1..p} (-1)^(k-1) psi^k(V) * Lambda^(p-k) V,
#
# where the Adams power psi^k(V) is the virtual character with the 20 weights
# k * e_T, each of multiplicity 1.  Each product is Klimyk's formula
# (``schur.klimyk_sum``, the sum Littlewood-Richardson products use): the 20
# weights of psi^k(V) added to every highest weight of the lower power.


def wedge3_weights() -> list[Weight]:
    """The 20 weights of the third wedge of C^6, in lexicographic subset order
    (the descending order of ``weight_system``)."""
    return [w for w, _ in weight_system((1, 1, 1, 0, 0, 0))]


@cache
def decompose_wedge_power(p: int) -> Decomposition:
    """Exact irreducible GL(6) decomposition of the p-th exterior power.

    Newton's identity over the lower powers, each product one Klimyk sum;
    the signed total must divide exactly by p.  The weights are returned in
    descending order.
    """
    if not 0 <= p <= WEDGE_RANK:
        raise ValueError(f"exterior power degree out of range: {p}")
    if p == 0:
        return {(0,) * 6: 1}
    weights = wedge3_weights()
    terms = []
    for k in range(1, p + 1):
        sign = 1 if k % 2 else -1
        adams = [tuple(k * x for x in w) for w in weights]
        for lam, n in decompose_wedge_power(p - k).items():
            n *= sign
            for w in adams:
                terms.append(([a + b for a, b in zip(lam, w)], n))
    out = {}
    for nu, n in sorted(klimyk_sum(terms).items(), reverse=True):
        out[nu], rem = divmod(n, p)
        if rem:
            raise ArithmeticError(f"Newton sum not divisible by {p} at {nu}")
    if any(n < 0 for n in out.values()):
        raise ArithmeticError(f"negative multiplicity in wedge power {p}")
    dim = sum(n * weyl_dim(w) for w, n in out.items())
    if dim != comb(WEDGE_RANK, p):
        raise ArithmeticError(f"dimension mismatch in wedge power {p}: {dim}")
    return out


# The weight-multiplicity oracle: a knapsack over the 20 weights, which
# Brauer's formula turns into the decompositions that the Newton recursion in
# decompose_wedge_power must reproduce.
TOP_WEIGHT = int.from_bytes(bytes([10] * 6), "little")  # (10,...,10), packed


@cache
def _layers() -> tuple[dict[int, int], ...]:
    """Weight multiplicities of the exterior powers p = 0..10, packed.

    Knapsack over ``wedge3_weights()``, each packed into six bytes: adding
    weight w with p descending moves every count of layer p at sum s to
    layer p+1 at sum s+w.  A coordinate of a sum of at most ten weights is at
    most 10 (each index lies in ten of the triples), so no byte overflows.
    """
    half = WEDGE_RANK // 2
    layers: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(half)]
    for k, w in enumerate(wedge3_weights()):
        packed = int.from_bytes(bytes(w), "little")
        for p in range(min(k, half - 1), -1, -1):
            up = layers[p + 1]
            get = up.get
            for s, n in layers[p].items():
                s += packed
                up[s] = get(s, 0) + n
    return tuple(layers)


def weight_multiplicities(p: int) -> dict[Weight, int]:
    """Multiplicity of every weight of the p-th exterior power.

    For p <= 10 this is layer p of the knapsack.  For p > 10 a p-subset is
    the complement of a (20-p)-subset, whose sum is TOP_WEIGHT minus its own;
    no byte of a layer exceeds 10, so the packed subtraction never borrows.
    """
    layers = _layers()
    if p < len(layers):
        layer = layers[p]
    else:
        layer = {TOP_WEIGHT - s: n for s, n in layers[WEDGE_RANK - p].items()}
    return {tuple(s.to_bytes(6, "little")): n for s, n in layer.items()}


def test_wedge3_weights():
    ws = wedge3_weights()
    # the indicator vectors of the 3-subsets of {0..5}, in lexicographic order
    assert ws == [tuple(int(i in t) for i in range(6)) for t in combinations(range(6), 3)]
    assert len(ws) == 20
    assert ws[0] == (1, 1, 1, 0, 0, 0)
    assert tuple(sum(col) for col in zip(*ws)) == (10,) * 6
    assert all(sum(w) == 3 for w in ws)


def test_small_powers():
    assert decompose_wedge_power(0) == {(0, 0, 0, 0, 0, 0): 1}
    assert decompose_wedge_power(1) == {(1, 1, 1, 0, 0, 0): 1}
    assert decompose_wedge_power(2) == {(2, 2, 1, 1, 0, 0): 1, (1, 1, 1, 1, 1, 1): 1}
    assert decompose_wedge_power(20) == {(10,) * 6: 1}
    assert weyl_dim((2, 2, 1, 1, 0, 0)) + 1 == comb(20, 2)


def test_dimension_sums():
    table = koszul_factor_table()
    for p, col in enumerate(table):
        total = sum(n * weyl_dim(w) for w, n in col.items())
        assert total == comb(20, p), p


def test_weight_mass():
    # total weight multiset mass is the binomial coefficient, also when
    # counted as dominant weights times their orbit sizes
    for p in (3, 7, 10, 13, 17):
        counts = weight_multiplicities(p)
        assert sum(counts.values()) == comb(20, p)
        mass = 0
        for w, n in counts.items():
            if not is_dominant(w):
                continue
            orbit = factorial(6)
            for v in set(w):
                orbit //= factorial(sum(1 for x in w if x == v))
            mass += n * orbit
        assert mass == comb(20, p)


def subset_enumeration(p):
    """Weight multiplicities of the p-th exterior power, counted over all
    p-subsets of the 20 weights (each weight packed into six 4-bit fields;
    no coordinate of a subset sum exceeds 10)."""
    packed = [sum(x << (4 * i) for i, x in enumerate(w)) for w in wedge3_weights()]
    counts = {}
    for subset in combinations(packed, p):
        s = sum(subset)
        w = tuple((s >> (4 * i)) & 15 for i in range(6))
        counts[w] = counts.get(w, 0) + 1
    return counts


def test_dp_matches_subset_enumeration():
    # p >= 15 checks the complement rule used above p = 10
    for p in (0, 1, 2, 3, 4, 5, 10, 15, 16, 17, 18, 19, 20):
        assert weight_multiplicities(p) == subset_enumeration(p), p


def test_weyl_symmetry_brute_force():
    # multiplicities are constant on permutation orbits (checked at p = 3)
    ws = wedge3_weights()
    full = {}
    for subset in combinations(range(20), 3):
        s = tuple(sum(ws[i][k] for i in subset) for k in range(6))
        full[s] = full.get(s, 0) + 1
    counts = weight_multiplicities(3)
    assert counts == full
    for w, n in counts.items():
        for perm in set(permutations(w)):
            assert counts.get(perm, 0) == n


def test_published_columns():
    table = koszul_factor_table()
    for p, published in enumerate(koszul_reference()):
        assert frozenset(table[p]) == published, f"column {p}"
        assert all(mult == 1 for mult in table[p].values()), f"column {p}"
    assert koszul_mismatches(table) == []


def test_koszul_mismatches_flags_doctored_columns():
    table = list(koszul_factor_table())
    doubled = dict(table[2])
    doubled[(1, 1, 1, 1, 1, 1)] = 2  # right weight set, wrong multiplicity
    missing = dict(table[5])
    missing.popitem()
    table[2], table[5] = doubled, missing
    assert koszul_mismatches(table) == [2, 5]


def test_duality():
    table = koszul_factor_table()
    for p in range(21):
        mirrored = {
            tuple(10 - x for x in reversed(w)): n for w, n in table[20 - p].items()
        }
        assert mirrored == table[p]


def test_columns_in_descending_weight_order():
    # koszul.constituents lists an entry's pieces in column order, so the
    # order of the cohomology JSON's constituents relies on it
    table = koszul_factor_table()
    for p, col in enumerate(table):
        weights = list(col)
        assert weights == sorted(weights, reverse=True), f"column {p}"
        assert len(set(weights)) == len(weights), f"column {p}"
    assert sum(len(col) for col in table) == 156


def greedy_split(p):
    """Reference decomposition by greedy character subtraction: take the
    largest dominant weight left (dominance-maximal, hence a highest weight)
    and subtract its Kostka row, until nothing is left."""
    residual = {w: n for w, n in weight_multiplicities(p).items() if is_dominant(w)}
    out = {}
    while residual:
        lam = max(residual)
        mult = out[lam] = residual[lam]
        for mu in list(residual):
            left = residual[mu] - mult * strip_kostka(lam, mu)
            assert left >= 0, (p, lam, mu)
            if left:
                residual[mu] = left
            else:
                del residual[mu]
    return out


def test_newton_matches_brauer():
    # Brauer's formula over the knapsack's weight multiplicities, sorted the
    # way decompose_wedge_power returns its weights
    for p in range(21):
        brauer = klimyk_sum(weight_multiplicities(p).items())
        want = dict(sorted(brauer.items(), reverse=True))
        got = decompose_wedge_power(p)
        assert list(got.items()) == list(want.items()), p


def clear_wedge_caches():
    decompose_wedge_power.cache_clear()


def replaced(i, j):
    def edit(ws):
        ws[i] = ws[j]
        return ws
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda ws: ws[1:], "dimension mismatch in wedge power 1"),
    (lambda ws: ws + ws[:1], "dimension mismatch in wedge power 1"),
    # (1,1,0,1,0,0) replaced by (1,0,1,0,1,0), then (1,0,0,1,1,0) by it
    (replaced(1, 5), "Newton sum not divisible by 2 at"),
    (replaced(7, 5), "negative multiplicity in wedge power 2"),
], ids=["dropped", "repeated", "replaced-indivisible", "replaced-negative"])
def test_doctored_weights_raise(monkeypatch, edit, message):
    # a weight list that is not the 20 weights of the third wedge must trip
    # a guard of the Newton recursion rather than return a column
    doctored = edit(wedge3_weights())
    clear_wedge_caches()
    monkeypatch.setitem(globals(), "wedge3_weights", lambda: list(doctored))
    try:
        with pytest.raises(ArithmeticError, match=message):
            for p in range(WEDGE_RANK // 2 + 1):
                decompose_wedge_power(p)
    finally:
        monkeypatch.undo()
        clear_wedge_caches()
    assert decompose_wedge_power(1) == {(1, 1, 1, 0, 0, 0): 1}


def test_shipped_table_is_newton():
    # the data file holds exactly what the Newton recursion derives, in the
    # same order, and the shift identity rebuilds the columns above 10
    table = koszul_factor_table()
    assert len(table) == WEDGE_RANK + 1
    for p in range(WEDGE_RANK + 1):
        want = decompose_wedge_power(p)
        assert list(table[p].items()) == list(want.items()), p


def test_doctored_shipped_column_raises(monkeypatch):
    # a shipped column that lost a weight must fail the dimension guard
    # rather than enter the table
    columns = plethysm.shipped_columns()
    del columns[5][-1]
    plethysm.koszul_factor_table.cache_clear()
    monkeypatch.setattr(plethysm, "shipped_columns", lambda: columns)
    try:
        with pytest.raises(ArithmeticError, match="dimension mismatch in wedge power 5:"):
            koszul_factor_table()
    finally:
        monkeypatch.undo()
        plethysm.koszul_factor_table.cache_clear()
    assert len(koszul_factor_table()[5]) == 6


def test_cold_table_does_no_klimyk_sum():
    # the table is read, not derived: a cold process builds it with Klimyk's
    # formula refused (patched before plethysm is imported, so it holds for
    # either import style); in-process the wedge caches could hide a sum
    code = (
        "from dvschur import schur\n"
        "def refuse(terms):\n"
        "    raise AssertionError('klimyk_sum called for the factor table')\n"
        "schur.klimyk_sum = refuse\n"
        "from dvschur.plethysm import koszul_factor_table\n"
        "assert sum(len(col) for col in koszul_factor_table()) == 156\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(plethysm.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr


def test_brauer_matches_greedy_split():
    for p in range(21):
        want = greedy_split(p)
        got = decompose_wedge_power(p)
        assert list(got.items()) == list(want.items()), p


def test_lead_factor_p10():
    col = decompose_wedge_power(10)
    assert len(col) == 20
    assert max(col) == (10, 4, 4, 4, 4, 4)


def test_character_at_random_points():
    """Independent oracle: the character of the p-th exterior power at a
    diagonal matrix is the p-th elementary symmetric polynomial of the 20
    triple products; it must equal the sum of Schur polynomial values."""
    import random

    from conftest import random_points, schur_value

    rng = random.Random(97)
    for xs in random_points(rng, 6, 2):
        triples = [xs[i] * xs[j] * xs[k] for i, j, k in combinations(range(6), 3)]
        elementary = [1] + [0] * 20
        for v in triples:
            for d in range(20, 0, -1):
                elementary[d] += v * elementary[d - 1]
        for p in (2, 5, 9, 13, 20):
            val = sum(
                n * schur_value(w, xs)
                for w, n in decompose_wedge_power(p).items()
            )
            assert val == elementary[p], (p, xs)
