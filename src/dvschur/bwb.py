"""Borel-Weil-Bott on Gr(6,10): cohomology of irreducible homogeneous bundles.

A bundle is indexed by a dominant length-4 weight (quotient side) and a
dominant length-6 weight (tautological side); entries are listed quotient
side first.  Twists O(-d) are pushed into the tautological side as mu + d
before calling, since the determinant of the tautological bundle is O(-1).

Two entry points apply the rule.  ``bott`` is the public one: it validates
both weights (ValueError on a non-dominant or wrong-length weight) and
memoises its answers.  ``bott_dominant`` is the rule itself: uncached, and it
trusts its caller to pass a dominant 4-tuple and a dominant 6-tuple of ints.
``koszul.e1_page`` calls it with the weight ``build_complex`` validated and
the factor-table weights, which are dominant by construction.

The rule is the dot action of the Weyl group, ``partitions.reflect``, which
``schur.lr_coefficients`` applies the same way for GL(rank) in Klimyk's
formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .partitions import Weight, check_dominant, reflect, weyl_product

RHO = (9, 8, 7, 6, 5, 4, 3, 2, 1, 0)
DIM_GR = 24


@dataclass(frozen=True)
class BottCohomology:
    degree: int
    gl10_weight: Weight
    dim: int


@cache
def bott(lam: Weight, mu: Weight) -> BottCohomology | None:
    """The single nonzero cohomology of the bundle (lam | mu), or None.

    Validates both weights, then applies ``bott_dominant``.
    """
    return bott_dominant(check_dominant(lam, 4), check_dominant(mu, 6))


def bott_dominant(lam: Weight, mu: Weight) -> BottCohomology | None:
    """``bott`` for weights already known to be dominant, without validation.

    ``partitions.reflect`` of the concatenated weight: a repeated entry after
    adding the staircase (9,...,0) means the bundle is acyclic.  Otherwise the
    degree is the inversion count and the cohomology is the GL(10)
    representation of highest weight sort(shifted) - staircase.
    """
    r = reflect(lam + mu)
    if r is None:
        return None
    inversions, s = r
    weight = tuple(x - RHO[i] for i, x in enumerate(s))
    return BottCohomology(inversions, weight, weyl_product(s))
