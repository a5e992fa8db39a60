"""Tensor-product combinatorics: Littlewood-Richardson, Pieri, Kostka numbers.

Littlewood-Richardson products use the Racah-Speiser/Klimyk formula (Klimyk
1968; Fulton-Harris, Representation Theory, section 25): each weight of one
factor, with its Kostka multiplicity, is added to the other's highest weight
and moved to the dominant chamber with a sign by ``partitions.reflect``, the
rule Borel-Weil-Bott (``bwb.bott_dominant``) applies for GL(10).

Decompositions are plain dicts mapping a dominant weight to its multiplicity.
All functions are pure; their memo caches are shared across calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .partitions import (
    CanonicalQPartition,
    Weight,
    check_dominant,
    reflect,
    shifted_dual,
    weyl_dim,
)

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

    Klimyk's formula: the sum over the weights w of the factor of smaller
    dimension, with multiplicity k, of (-1)^inv * k * Sigma_nu, where
    ``partitions.reflect(lam + w)`` gives inv and nu plus the staircase, or
    None (no term).  Entries may be negative.  Zero coefficients are dropped.
    """
    lam = check_dominant(_pad(tuple(lam), rank))
    mu = check_dominant(_pad(tuple(mu), rank))
    if weyl_dim(rank, mu) > weyl_dim(rank, lam):
        lam, mu = mu, lam
    out: Decomposition = {}
    for w, k in weight_system(mu):
        r = reflect([a + b for a, b in zip(lam, w)])
        if r is None:
            continue
        inversions, v = r
        nu = tuple(x - rank + 1 + i for i, x in enumerate(v))
        out[nu] = out.get(nu, 0) + (-k if inversions % 2 else k)
    return {nu: n for nu, n in out.items() if n}


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


@cache
def weight_system(lam: Weight) -> tuple[tuple[Weight, int], ...]:
    """All weights of the GL(n) irreducible with highest weight lam (n = len(lam)).

    The multiplicity of a weight is the Kostka number of lam against it as a
    content, so the weights are the vectors with entries in [0, lam_1] and
    sum |lam| whose Kostka number is nonzero.  Entries may be negative: the
    enumeration shifts to a partition and shifts back.
    """
    lam = check_dominant(lam)
    n = len(lam)
    shift = lam[-1]
    base = tuple(x - shift for x in lam)
    mults: dict[Weight, int] = {}  # Kostka number per sorted content
    out = []
    for w in _compositions(sum(base), n, base[0]):
        content = tuple(sorted(w, reverse=True))
        k = mults.get(content)
        if k is None:
            k = mults[content] = kostka(base, content)
        if k:
            out.append((tuple(x + shift for x in w), k))
    if sum(k for _, k in out) != weyl_dim(n, lam):
        raise ArithmeticError(f"weight system of {lam} has the wrong size")
    return tuple(out)


def _compositions(total: int, parts: int, cap: int):
    """Vectors of ``parts`` integers in [0, cap] summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(min(total, cap), max(0, total - cap * (parts - 1)) - 1, -1):
        for rest in _compositions(total - first, parts - 1, cap):
            yield (first,) + rest


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
