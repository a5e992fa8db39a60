"""Dominant GL(n) weights: parsing, duality, canonical forms, Weyl dimensions;
also the package's data reader ``open_data``, which keeps
``importlib.resources`` out.

A weight is a weakly decreasing tuple of integers (negative entries allowed).
Length 4 indexes Schur functors of the rank-4 quotient bundle, length 6 the
rank-6 tautological bundle, length 10 the GL(10) representations produced by
Borel-Weil-Bott.
"""

from __future__ import annotations

import os
from collections import namedtuple
from functools import cache
from itertools import combinations, starmap
from operator import add, lt

Weight = tuple[int, ...]


def open_data(name: str):
    """The package's data file ``data/<name>``, opened as UTF-8 text."""
    return open(os.path.join(os.path.dirname(__file__), "data", name), encoding="utf-8")


def is_dominant(w: Weight) -> bool:
    return all(w[i] >= w[i + 1] for i in range(len(w) - 1))


def check_dominant(w, length: int | None = None) -> Weight:
    """Validate a weight argument and return it as a tuple; raises ValueError
    unless every entry is an ``int`` (``bool`` is not), the length is
    ``length`` when given, and the entries weakly decrease."""
    w = tuple(w)
    for x in w:
        if type(x) is not int:
            raise ValueError(f"weight entry {x!r} is not an integer")
    if length is not None and len(w) != length:
        raise ValueError(f"expected a weight of length {length}, got ({format_weight(w)})")
    if not w:
        raise ValueError("empty weight")
    if not is_dominant(w):
        raise ValueError(f"weight entries must be weakly decreasing: ({format_weight(w)})")
    return w


def parse_weight(text: str, length: int | None = None) -> Weight:
    """Parse a comma-separated weight string such as "3,2,1,0"."""
    try:
        entries = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"malformed weight string: {text!r}") from None
    return check_dominant(entries, length)


def format_weight(w: Weight) -> str:
    """``a,b,c,d``; every message prints a weight as ``(a,b,c,d)``."""
    return ",".join(str(x) for x in w)


def dual(w: Weight) -> Weight:
    """Highest weight of the dual representation: negate and reverse."""
    return tuple(-x for x in reversed(w))


def normalize(q_weight: Weight, twist: int) -> tuple[Weight, int]:
    """Sigma_q_weight Q tensor O(twist), named with last weight entry 0.

    det Q = O(1), so the last entry moves into the twist; the package folds
    the determinant here alone."""
    base = q_weight[-1]
    return tuple(x - base for x in q_weight), twist + base


def shifted_dual(w: Weight) -> Weight:
    """Dual weight shifted so the top entry matches the input's top entry.

    For (m,t,s,0) this is (m, m-s, m-t, 0); the two index the same bundle up
    to a determinant twist.
    """
    top = w[0]
    return tuple(top - x for x in reversed(w))


class CanonicalQPartition(namedtuple("CanonicalQPartition", "m t s twist")):
    """Normal form (m,t,s,0) with m >= t+s for a length-4 weight.

    ``twist`` is the power of O(1) factored out while normalising: the input
    is Sigma of ``weight``, or of its dual when canonicalising dualised it,
    tensor O(twist); either way its endomorphism bundle is the canonical one's.
    """

    __slots__ = ()

    def __new__(cls, m: int, t: int, s: int, twist: int = 0):
        if not (m >= t >= s >= 0 and m >= t + s):
            raise ValueError(f"not a canonical triple: {(m, t, s)}")
        return super().__new__(cls, m, t, s, twist)

    @property
    def weight(self) -> Weight:
        return (self.m, self.t, self.s, 0)


def canonicalize(lam: Weight) -> CanonicalQPartition:
    """Reduce a length-4 weight to (m,t,s,0) with m >= t+s.

    First ``normalize``s, then replaces the result by its shifted dual when
    the top entry is smaller than the sum of the middle two, which moves the
    top entry into the twist.  Ties (m == t+s) keep the input.
    """
    w, twist = normalize(check_dominant(lam, 4), 0)
    if w[0] < w[1] + w[2]:
        w = shifted_dual(w)
        twist += w[0]
    return CanonicalQPartition(w[0], w[1], w[2], twist)


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
    from it gives the dominant weight of the orbit.  Pairs are compared in C
    (``starmap`` over ``combinations``), with the double loop's result.
    """
    n = len(w)
    v = list(map(add, w, range(n - 1, -1, -1)))
    if len(set(v)) < n:
        return None
    inversions = sum(starmap(lt, combinations(v, 2)))
    v.sort(reverse=True)
    return inversions, v


@cache
def weyl_dim(w: Weight) -> int:
    """Dimension of the irreducible GL(n) representation of highest weight w
    (n = len(w)): the Weyl product of ``reflect(w)``, for dominant w just w
    plus the staircase.  Invariant under w -> w + d and under dualisation.
    """
    return weyl_product(reflect(check_dominant(w))[1])
