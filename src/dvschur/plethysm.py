"""Exterior powers of the third wedge of a 6-space, as GL(6) decompositions.

The third wedge V of C^6 has dimension 20 and weights the indicator vectors
e_T of the 3-element subsets T of {1..6}.  Its exterior powers follow from
Newton's identity (Macdonald, Symmetric Functions and Hall Polynomials,
I.2),

    p * Lambda^p V = sum_{k=1..p} (-1)^(k-1) psi^k(V) * Lambda^(p-k) V,

where the Adams power psi^k(V) is the virtual character with the 20 weights
k * e_T, each of multiplicity 1.  Each product is Klimyk's formula
(``schur.klimyk_sum``, the sum Littlewood-Richardson products use): the 20
weights of psi^k(V) added to every highest weight of the lower power.
"""

from __future__ import annotations

from functools import cache
from math import comb

from .partitions import Weight, weyl_dim
from .schur import Decomposition, klimyk_sum, weight_system

WEDGE_RANK = 20


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
