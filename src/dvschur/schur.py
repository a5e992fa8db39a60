"""Tensor-product combinatorics: Littlewood-Richardson, Pieri, Kostka numbers.

Decompositions are plain dicts mapping a dominant weight to its multiplicity.
All functions are pure; their memo caches are shared across calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .partitions import CanonicalQPartition, Weight, check_dominant, shifted_dual

Decomposition = dict[Weight, int]


@dataclass(frozen=True)
class EndSummand:
    """One irreducible piece of End(Sigma_lambda Q), as Sigma_nu Q tensor O(twist)."""

    q_weight: Weight
    twist: int
    multiplicity: int

    def normalized(self) -> tuple[Weight, int]:
        """Pull the determinant part of q_weight into the twist (last entry 0)."""
        base = self.q_weight[-1]
        return tuple(x - base for x in self.q_weight), self.twist + base


def _pad(w: Weight, rank: int) -> Weight:
    if len(w) > rank:
        raise ValueError(f"weight {w} longer than rank {rank}")
    return tuple(w) + (0,) * (rank - len(w))


def lr_coefficients(lam: Weight, mu: Weight, rank: int) -> Decomposition:
    """Littlewood-Richardson multiplicities of Sigma_lam x Sigma_mu for GL(rank).

    Counts lattice-word fillings of nu/lam with content mu: rows weakly
    increase, columns strictly increase, and the reverse reading word is a
    lattice word.  Negative entries are handled by shifting both factors to
    nonnegative partitions and shifting the resulting weights back; partitions
    with more than ``rank`` rows are discarded by construction.
    """
    lam = check_dominant(_pad(tuple(lam), rank))
    mu = check_dominant(_pad(tuple(mu), rank))
    a = max(0, -lam[-1])
    b = max(0, -mu[-1])
    raw = _lr_nonneg(tuple(x + a for x in lam), tuple(x + b for x in mu), rank)
    if a == 0 and b == 0:
        return dict(raw)
    return {tuple(x - a - b for x in nu): n for nu, n in raw.items()}


@cache
def _lr_nonneg(lam: Weight, mu: Weight, rank: int) -> Decomposition:
    total = sum(mu)
    nletters = len(mu)
    result: Decomposition = {}
    counts = [0] * (nletters + 1)

    def fill_row(i: int, prev_vals: tuple[int, ...], placed: int, shape: Weight):
        if i == rank:
            if placed == total:
                result[shape] = result.get(shape, 0) + 1
            return
        prev_len = len(prev_vals) if i else lam[0] + (mu[0] if mu else 0)
        base = lam[i]
        if base > prev_len:
            return
        row = [0] * prev_len

        def place(col: int, length: int, last: int, placed: int):
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


def pieri(lam: Weight, m: int, rank: int) -> Decomposition:
    """Add m boxes to lam, at most one per column (horizontal strips)."""
    lam = check_dominant(_pad(tuple(lam), rank))
    if m < 0:
        raise ValueError("box count must be nonnegative")
    out: Decomposition = {}

    def grow(i: int, prev: int, left: int, shape: Weight):
        if i == rank:
            if left == 0:
                out[shape] = 1
            return
        for v in range(lam[i], min(prev, lam[i] + left) + 1):
            grow(i + 1, lam[i], left - (v - lam[i]), shape + (v,))

    grow(0, lam[0] + m, m, ())
    return out


def kostka(lam: Weight, mu) -> int:
    """Number of semistandard tableaux of shape lam and content mu.

    The content may be any nonnegative integer vector; the count only depends
    on it up to reordering.  Returns 0 when the sizes differ.
    """
    lam = tuple(x for x in check_dominant(lam) if x)
    if any(x < 0 for x in lam):
        raise ValueError(f"shape must be nonnegative: {lam}")
    mu = tuple(sorted((int(x) for x in mu), reverse=True))
    mu = tuple(x for x in mu if x)
    if any(x < 0 for x in mu) or sum(lam) != sum(mu):
        return 0
    return _kostka(lam, mu)


def _dominates(lam: Weight, mu: Weight) -> bool:
    """Partial sums of lam dominate those of mu (partitions of equal size)."""
    acc = 0
    for i, part in enumerate(mu):
        acc += (lam[i] if i < len(lam) else 0) - part
        if acc < 0:
            return False
    return True


@cache
def _kostka(lam: Weight, mu: Weight) -> int:
    if not mu:
        return 1 if not lam else 0
    if len(lam) > len(mu) or not _dominates(lam, mu):
        return 0
    if len(mu) == 1:
        return 1
    total = 0
    for nu in _strips_below(lam, mu[-1]):
        total += _kostka(nu, mu[:-1])
    return total


@cache
def _strips_below(lam: Weight, size: int) -> tuple[Weight, ...]:
    """Partitions nu with lam/nu a horizontal strip of the given size."""
    out: list[Weight] = []

    def go(i: int, left: int, shape: Weight):
        if i == len(lam):
            if left == 0:
                out.append(tuple(x for x in shape if x))
            return
        floor = lam[i + 1] if i + 1 < len(lam) else 0
        for v in range(lam[i], max(floor, lam[i] - left) - 1, -1):
            go(i + 1, left - (lam[i] - v), shape + (v,))

    go(0, size, ())
    return tuple(out)


def end_decomposition(c: CanonicalQPartition) -> list[EndSummand]:
    """Irreducible pieces of End(Sigma_(m,t,s,0) Q).

    The product of the canonical weight with its shifted dual, uniformly
    twisted by O(-m); the trivial summand shows up as q_weight (m,m,m,m)
    with multiplicity 1.
    """
    lam = c.weight
    terms = lr_coefficients(lam, shifted_dual(lam), 4)
    return [
        EndSummand(nu, -c.m, mult)
        for nu, mult in sorted(terms.items(), reverse=True)
    ]
