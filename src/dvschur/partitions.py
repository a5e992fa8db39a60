"""Dominant GL(n) weights: parsing, duality, canonical forms, Weyl dimensions;
also the package's value-type decorator ``record`` and data reader
``open_data``, which keep ``dataclasses`` and ``importlib.resources`` out.

A weight is a weakly decreasing tuple of integers (negative entries allowed).
Length 4 indexes Schur functors of the rank-4 quotient bundle, length 6 the
rank-6 tautological bundle, length 10 the GL(10) representations produced by
Borel-Weil-Bott.
"""

from __future__ import annotations

import os
from functools import cache

Weight = tuple[int, ...]


def open_data(name: str):
    """The package's data file ``data/<name>``, opened as UTF-8 text."""
    return open(os.path.join(os.path.dirname(__file__), "data", name), encoding="utf-8")


def record(cls):
    """A frozen dataclass without importing ``dataclasses``: a record base's
    fields come first, a class attribute is its field's default,
    ``__post_init__`` ends ``__init__``, instances of one class with equal
    fields are equal and hash alike, and the repr is ``Name(f=v, ...)``."""
    fields = getattr(cls, "_fields", ()) + tuple(cls.__dict__.get("__annotations__", ()))
    args = ", ".join(f"{f}=cls.{f}" if hasattr(cls, f) else f for f in fields)
    sets = "".join(f"\n    _set(self, {f!r}, {f})" for f in fields)
    post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    own, other = (", ".join(f"{x}.{f}" for f in fields) for x in ("self", "other"))
    shown = ", ".join(f"{f}={{self.{f}!r}}" for f in fields)
    methods = {"_fields": fields}
    exec(f"""def __init__(self, {args}):{sets}{post}
def __eq__(self, other):
    return ({own},) == ({other},) if other.__class__ is self.__class__ else NotImplemented
def __hash__(self): return hash(({own},))
def __repr__(self): return f'{{self.__class__.__qualname__}}({shown})'
def __setattr__(self, name, *value): raise AttributeError(f'cannot assign to field {{name!r}}')
__delattr__ = __setattr__""", {"cls": cls, "_set": object.__setattr__}, methods)
    for name, value in methods.items():
        setattr(cls, name, value)
    return cls


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


@record
class CanonicalQPartition:
    """Normal form (m,t,s,0) with m >= t+s for a length-4 weight.

    ``twist`` is the power of O(1) factored out while normalising: the input
    is Sigma of ``weight``, or of its dual when canonicalising dualised it,
    tensor O(twist); either way its endomorphism bundle is the canonical one's.
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
def weyl_dim(w: Weight) -> int:
    """Dimension of the irreducible GL(n) representation of highest weight w
    (n = len(w)): the Weyl product of ``reflect(w)``, for dominant w just w
    plus the staircase.  Invariant under w -> w + d and under dualisation.
    """
    return weyl_product(reflect(check_dominant(w))[1])
