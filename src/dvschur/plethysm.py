"""Exterior powers of the third wedge of a 6-space, as GL(6) decompositions.

The third wedge of C^6 has dimension 20 and weights the indicator vectors of
3-element subsets of {1..6}.  The weight multiplicities of the p-th exterior
power count the p-subsets of the 20 weights by their sum, and Brauer's
formula (Fulton-Harris, Representation Theory, section 25) turns them into
irreducible pieces through ``partitions.reflect``, the rule Littlewood-
Richardson and Borel-Weil-Bott use.

The counts come from one knapsack pass over the 20 weights (layer p maps a
weight sum to the number of p-subsets with that sum), kept for p <= 10 only.
A p-subset is the complement of a (20-p)-subset, so the layers p > 10 are
the complemented layers 20-p.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb

from .partitions import Weight, reflect, weyl_dim
from .schur import Decomposition

WEDGE_RANK = 20
TOP_WEIGHT = int.from_bytes(bytes([10] * 6), "little")  # (10,...,10), packed


def wedge3_weights() -> list[Weight]:
    """The 20 weights of the third wedge of C^6, in lexicographic subset order."""
    out = []
    for triple in combinations(range(6), 3):
        w = [0] * 6
        for i in triple:
            w[i] = 1
        out.append(tuple(w))
    return out


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


@cache
def decompose_wedge_power(p: int) -> Decomposition:
    """Exact irreducible GL(6) decomposition of the p-th exterior power.

    Brauer's formula (Klimyk's with a trivial factor): each weight w of
    multiplicity n adds (-1)^inv * n at the dominant weight that
    ``partitions.reflect(w)`` gives, and nothing when it returns None (a wall).
    The weights are returned in descending order.
    """
    if not 0 <= p <= WEDGE_RANK:
        raise ValueError(f"exterior power degree out of range: {p}")
    out: Decomposition = {}
    for w, n in weight_multiplicities(p).items():
        r = reflect(w)
        if r is None:
            continue
        inversions, v = r
        lam = tuple(x - 5 + i for i, x in enumerate(v))
        out[lam] = out.get(lam, 0) + (-n if inversions % 2 else n)
    if any(n < 0 for n in out.values()):
        raise ArithmeticError(f"negative multiplicity in wedge power {p}")
    out = {lam: out[lam] for lam in sorted(out, reverse=True) if out[lam]}
    dim = sum(n * weyl_dim(6, w) for w, n in out.items())
    if dim != comb(WEDGE_RANK, p):
        raise ArithmeticError(f"dimension mismatch in wedge power {p}: {dim}")
    return out


@cache
def koszul_factor_table() -> tuple[Decomposition, ...]:
    """Columns p = 0..20 of the Koszul factor table.

    Columns up to 10 are computed directly; column 10+k is column 10-k with
    every weight raised by k (the top wedge is the tenth determinant power).
    Every column lists its weights in descending order, as
    ``decompose_wedge_power`` returns them, and a uniform shift keeps it.
    """
    columns = [decompose_wedge_power(p) for p in range(11)]
    for k in range(1, 11):
        columns.append(
            {tuple(x + k for x in w): n for w, n in columns[10 - k].items()}
        )
    return tuple(columns)
