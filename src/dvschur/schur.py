"""Tensor-product combinatorics: Littlewood-Richardson, Pieri, weight systems.

Littlewood-Richardson products use the Racah-Speiser/Klimyk formula (Klimyk
1968; Fulton-Harris, Representation Theory, section 25): each weight of one
factor, with its multiplicity, is added to the other's highest weight and
moved to the dominant chamber with a sign by ``partitions.reflect``, the rule
Borel-Weil-Bott (``bwb.bott``) applies for GL(10).  Pieri products
are the Littlewood-Richardson products with a one-row factor.  Weight systems
come from Gelfand-Tsetlin branching GL(n) to GL(n-1) (Fulton-Harris, section
8.3 and exercise 15.20); no Kostka numbers are computed.

Decompositions are plain dicts mapping a dominant weight to its multiplicity.
All functions are pure; their memo caches are shared across calls.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from operator import add, sub

from .partitions import (
    CanonicalQPartition,
    Weight,
    check_dominant,
    format_weight,
    normalize,
    record,
    reflect,
    shifted_dual,
    weyl_dim,
)

Decomposition = dict[Weight, int]

# The largest Weyl dimension whose weight system is built.  Measured with
# CPython 3.11 on a 2-vCPU host: ext of (30,15,7,0), dimension 1,346,400,
# takes 7 s, and of Sym^225 (1,949,476) 22 s and 660 MB, while that of
# (60,30,15,0) (62,662,656) ran past 60 s.
MAX_DIM = 2_000_000


@record
class EndSummand:
    """One irreducible piece of End(Sigma_lambda Q), as Sigma_nu Q tensor O(twist)."""

    q_weight: Weight
    twist: int
    multiplicity: int

    def normalized(self) -> tuple[Weight, int]:
        return normalize(self.q_weight, self.twist)


def _pad(w: Weight, rank: int) -> Weight:
    if len(w) > rank:
        raise ValueError(f"weight ({format_weight(w)}) longer than rank {rank}")
    return tuple(w) + (0,) * (rank - len(w))


# The largest rank of a product.  Measured cold through the CLI (CPython 3.11,
# 2 vCPUs): (2,1) x (2,1) takes 2.6 s at rank 64 and 26 s at rank 100.
MAX_RANK = 64


def lr_coefficients(lam: Weight, mu: Weight, rank: int) -> Decomposition:
    """Littlewood-Richardson multiplicities of Sigma_lam x Sigma_mu for GL(rank).

    Klimyk's formula (``klimyk_sum``) over the weights w of the factor of
    smaller dimension, each added to the other's highest weight.  On a tie
    the first factor's weights are walked: ``end_decomposition(c)`` then
    reads the memoised ``weight_system(c.weight)`` that the HRR check
    ``ring.ch_oracle(c.weight)`` reads too, not the shifted dual's, so one
    enumeration serves both.  The coefficients are symmetric in the two
    factors, so the choice moves no value.
    """
    if rank < 1:
        raise ValueError(f"rank must be at least 1, got {rank}")
    if rank > MAX_RANK:
        raise ValueError(f"rank must be at most {MAX_RANK}, got {rank}")
    lam = check_dominant(_pad(tuple(lam), rank))
    mu = check_dominant(_pad(tuple(mu), rank))
    if weyl_dim(mu) >= weyl_dim(lam):
        lam, mu = mu, lam
    return klimyk_sum(
        (list(map(add, lam, w)), k) for w, k in weight_system(mu)
    )


def klimyk_sum(terms) -> Decomposition:
    """The signed sum of Klimyk's formula over ``(weight, count)`` pairs.

    Each pair adds (-1)^inv * count at nu, where ``partitions.reflect(weight)``
    gives inv and nu plus the staircase, or None (no term).  A product
    Sigma_lam x Sigma_mu passes lam + w for the weights w of mu, and the
    same holds for any Weyl-invariant weight multiset in place of mu, such
    as an Adams power; Brauer's formula for a character is the case lam = 0.
    Entries may be negative.  Zero coefficients are dropped.
    """
    out: Decomposition = {}
    for w, k in terms:
        r = reflect(w)
        if r is None:
            continue
        inversions, v = r
        nu = tuple(map(sub, v, range(len(v) - 1, -1, -1)))  # minus the staircase
        out[nu] = out.get(nu, 0) + (-k if inversions % 2 else k)
    return {nu: n for nu, n in out.items() if n}


def pieri(lam: Weight, m: int, rank: int) -> Decomposition:
    """Tensor Sigma_lam by the m-th symmetric power: Sigma_lam x Sigma_(m)."""
    if m < 0:
        raise ValueError("box count must be nonnegative")
    return lr_coefficients(lam, (m,), rank)


@cache
def weight_system(lam: Weight) -> tuple[tuple[Weight, int], ...]:
    """All weights of the GL(n) irreducible with highest weight lam (n = len(lam)).

    Gelfand-Tsetlin branching to GL(n-1) x GL(1): the restriction is the sum
    of Sigma_nu over the nu interlacing lam (lam_i >= nu_i >= lam_{i+1}),
    with GL(1) acting by |lam| - |nu|.  Entries may be negative.  The weights
    are in descending order.  A weight of dimension above ``MAX_DIM`` is
    refused with ValueError before any work.
    """
    lam = check_dominant(lam)
    n = len(lam)
    if n == 1:
        return ((lam, 1),)
    dim = weyl_dim(lam)
    if dim > MAX_DIM:
        raise ValueError(f"weight ({format_weight(lam)}) has dimension {dim}, above "
                         f"the bound {MAX_DIM} on a weight system's dimension")
    size = sum(lam)
    mults: dict[Weight, int] = {}
    for nu in product(*(range(lam[i + 1], lam[i] + 1) for i in range(n - 1))):
        last = (size - sum(nu),)
        for w, k in weight_system(nu):
            w += last
            mults[w] = mults.get(w, 0) + k
    out = tuple(sorted(mults.items(), reverse=True))
    if sum(mults.values()) != dim:
        raise ArithmeticError(f"weight system of {lam} has the wrong size")
    return out


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
