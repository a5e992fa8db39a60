"""Dominant GL(n) weights: parsing, duality, canonical forms, Weyl dimensions.

A weight is a weakly decreasing tuple of integers (negative entries allowed).
Length 4 indexes Schur functors of the rank-4 quotient bundle, length 6 the
rank-6 tautological bundle, length 10 the GL(10) representations produced by
Borel-Weil-Bott.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

Weight = tuple[int, ...]


def is_dominant(w: Weight) -> bool:
    return all(w[i] >= w[i + 1] for i in range(len(w) - 1))


def check_dominant(w, length: int | None = None) -> Weight:
    """Validate and normalise a weight argument; raises ValueError otherwise."""
    w = tuple(int(x) for x in w)
    if length is not None and len(w) != length:
        raise ValueError(f"expected a weight of length {length}, got {w}")
    if not w:
        raise ValueError("empty weight")
    if not is_dominant(w):
        raise ValueError(f"weight entries must be weakly decreasing: {w}")
    return w


def parse_weight(text: str, length: int | None = None) -> Weight:
    """Parse a comma-separated weight string such as "3,2,1,0"."""
    try:
        entries = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"malformed weight string: {text!r}") from None
    return check_dominant(entries, length)


def format_weight(w: Weight) -> str:
    return ",".join(str(x) for x in w)


def dual(w: Weight) -> Weight:
    """Highest weight of the dual representation: negate and reverse."""
    return tuple(-x for x in reversed(w))


def shifted_dual(w: Weight) -> Weight:
    """Dual weight shifted so the top entry matches the input's top entry.

    For (m,t,s,0) this is (m, m-s, m-t, 0); the two index the same bundle up
    to a determinant twist.
    """
    top = w[0]
    return tuple(top - x for x in reversed(w))


@dataclass(frozen=True)
class CanonicalQPartition:
    """Normal form (m,t,s,0) with m >= t+s for a length-4 weight.

    ``twist`` records minus the power of O(1) factored out while normalising,
    so that the endomorphism bundle of the original Schur functor is that of
    the canonical one.
    """

    m: int
    t: int
    s: int
    twist: int = 0

    def __post_init__(self):
        if not (self.m >= self.t >= self.s >= 0 and self.m >= self.t + self.s):
            raise ValueError(f"not a canonical triple: {(self.m, self.t, self.s)}")

    @property
    def weight(self) -> Weight:
        return (self.m, self.t, self.s, 0)


def canonicalize(lam: Weight) -> CanonicalQPartition:
    """Reduce a length-4 weight to (m,t,s,0) with m >= t+s.

    First subtracts the last entry (a determinant twist), then replaces the
    result by its shifted dual when the top entry is smaller than the sum of
    the middle two.  Ties (m == t+s) keep the input.
    """
    lam = check_dominant(lam, 4)
    base = lam[3]
    w = tuple(x - base for x in lam)
    extracted = base
    if w[0] < w[1] + w[2]:
        w = shifted_dual(w)
        extracted += w[0]
    return CanonicalQPartition(w[0], w[1], w[2], -extracted)


@cache
def _staircase_product(n: int) -> int:
    """The Weyl product of the staircase (n-1,...,0), i.e. of the zero weight."""
    out = 1
    for i in range(n):
        for j in range(i + 1, n):
            out *= j - i
    return out


def weyl_product(v) -> int:
    """Dimension of the GL(n) irreducible whose highest weight plus the
    staircase (n-1,...,0) is the strictly decreasing sequence v (n = len(v)).

    The product of v_i - v_j over the pairs i < j, divided by the same product
    for the staircase.  No validation: callers pass a strictly decreasing v.
    """
    n = len(v)
    num = 1
    for i in range(n):
        vi = v[i]
        for j in range(i + 1, n):
            num *= vi - v[j]
    dim, rem = divmod(num, _staircase_product(n))
    if rem:
        raise ArithmeticError(f"Weyl product not integral for shifted weight {tuple(v)}")
    return dim


def reflect(w) -> tuple[int, list[int]] | None:
    """The dot action of the Weyl group of GL(n) on w (n = len(w)).

    Adds the staircase (n-1,...,0) to w.  A repeated entry puts the shifted
    vector on a wall: returns None.  Otherwise returns the number of
    inversions of the shifted vector (the length of the sorting permutation)
    and the shifted vector sorted decreasingly; subtracting the staircase
    from it gives the dominant weight of the orbit.
    """
    n = len(w)
    v = [x + n - 1 - i for i, x in enumerate(w)]
    if len(set(v)) < n:
        return None
    inversions = sum(v[i] < v[j] for i in range(n) for j in range(i + 1, n))
    v.sort(reverse=True)
    return inversions, v


@cache
def weyl_dim(n: int, w: Weight) -> int:
    """Dimension of the irreducible GL(n) representation of highest weight w.

    Exact product formula; invariant under w -> w + d and under dualisation.
    """
    w = check_dominant(w, n)
    return weyl_product([x + n - 1 - i for i, x in enumerate(w)])
