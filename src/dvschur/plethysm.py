"""Exterior powers of the third wedge of a 6-space, as GL(6) decompositions.

The third wedge of C^6 has dimension 20 and weights the indicator vectors of
3-element subsets of {1..6}.  Exterior powers are decomposed exactly: the
dominant weight multiplicities of the p-th power count the p-subsets of the
20 weights by their sum, and irreducible pieces are split off greedily with
Kostka numbers.

The counts come from one knapsack pass over the 20 weights (layer p maps a
weight sum to the number of p-subsets with that sum), kept for p <= 10 only.
A p-subset is the complement of a (20-p)-subset, so the layers p > 10 are
the mirrored layers 20-p.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb

from .partitions import Weight, weyl_dim
from .schur import Decomposition, kostka

WEDGE_RANK = 20
TOP_WEIGHT = (10, 10, 10, 10, 10, 10)


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
def _dominant_layers() -> tuple[dict[Weight, int], ...]:
    """Dominant weight multiplicities of the exterior powers p = 0..10.

    Knapsack over the 20 weights, each packed into six 4-bit fields: adding
    weight w with p descending moves every count of layer p at sum s to
    layer p+1 at sum s+w.  A coordinate of a sum of at most ten weights is at
    most 10 (each index lies in ten of the triples), so no field overflows.
    Only the weakly decreasing sums of each full layer are kept.
    """
    half = WEDGE_RANK // 2
    layers: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(half)]
    for k, triple in enumerate(combinations(range(6), 3)):
        packed = sum(1 << (4 * i) for i in triple)
        for p in range(min(k, half - 1), -1, -1):
            up = layers[p + 1]
            get = up.get
            for s, n in layers[p].items():
                s += packed
                up[s] = get(s, 0) + n
    out = []
    for layer in layers:
        counts: dict[Weight, int] = {}
        for s, n in layer.items():
            w = (
                s & 15,
                (s >> 4) & 15,
                (s >> 8) & 15,
                (s >> 12) & 15,
                (s >> 16) & 15,
                (s >> 20) & 15,
            )
            if w[0] >= w[1] >= w[2] >= w[3] >= w[4] >= w[5]:
                counts[w] = n
        out.append(counts)
    return tuple(out)


def _dominant_multiplicities(p: int) -> dict[Weight, int]:
    """Multiplicity of each dominant weight in the p-th exterior power.

    For p <= 10 this is layer p of the knapsack.  For p > 10 a p-subset is
    the complement of a (20-p)-subset, whose sum is TOP_WEIGHT minus its own,
    so m_p(w) = m_{20-p}(TOP_WEIGHT - w), and reversing the coordinates keeps
    the mirrored weight dominant.
    """
    layers = _dominant_layers()
    if p < len(layers):
        return layers[p]
    return {
        tuple(10 - x for x in reversed(w)): n
        for w, n in layers[WEDGE_RANK - p].items()
    }


@cache
def decompose_wedge_power(p: int) -> Decomposition:
    """Exact irreducible GL(6) decomposition of the p-th exterior power.

    Greedy character subtraction: repeatedly take the lexicographically
    largest dominant weight with nonzero residual multiplicity (which is
    dominance-maximal, hence a highest weight) and subtract its Kostka row.
    """
    if not 0 <= p <= WEDGE_RANK:
        raise ValueError(f"exterior power degree out of range: {p}")
    residual = dict(_dominant_multiplicities(p))
    out: Decomposition = {}
    while residual:
        lam = max(residual)
        mult = residual[lam]
        out[lam] = mult
        for mu in list(residual):
            k = kostka(lam, mu)
            if not k:
                continue
            left = residual[mu] - mult * k
            if left < 0:
                raise ArithmeticError(f"negative residual at {mu} while splitting {lam}")
            if left:
                residual[mu] = left
            else:
                del residual[mu]
    dim = sum(n * weyl_dim(6, w) for w, n in out.items())
    if dim != comb(WEDGE_RANK, p):
        raise ArithmeticError(f"dimension mismatch in wedge power {p}: {dim}")
    return out


@cache
def koszul_factor_table() -> tuple[Decomposition, ...]:
    """Columns p = 0..20 of the Koszul factor table.

    Columns up to 10 are computed directly; column 10+k is column 10-k with
    every weight raised by k (the top wedge is the tenth determinant power).
    Every column lists its weights in descending order: the split takes the
    largest residual weight first, and a uniform shift keeps the order.
    """
    columns = [decompose_wedge_power(p) for p in range(11)]
    for k in range(1, 11):
        columns.append(
            {tuple(x + k for x in w): n for w, n in columns[10 - k].items()}
        )
    return tuple(columns)
