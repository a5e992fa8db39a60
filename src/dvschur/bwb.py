"""Borel-Weil-Bott on Gr(6,10): cohomology of irreducible homogeneous bundles.

A bundle is indexed by a dominant length-4 weight (quotient side) and a
dominant length-6 weight (tautological side); entries are listed quotient
side first.  A twist O(t) is pushed into the tautological side as mu - t
before calling, since the determinant of the tautological bundle is O(-1).

``bott`` is the one entry point: it validates both weights (ValueError on a
non-dominant or wrong-length weight), applies the rule and memoises its
answers.  The rule is the dot action of the Weyl group,
``partitions.reflect``, which ``schur.lr_coefficients`` applies the same way
for GL(rank) in Klimyk's formula; ``koszul.e1_page`` applies it directly to
the factor table, since the first page needs only degrees and dimensions.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from operator import sub

from .partitions import Weight, check_dominant, reflect, weyl_product

RHO = (9, 8, 7, 6, 5, 4, 3, 2, 1, 0)
DIM_GR = 24


BottCohomology = namedtuple("BottCohomology", "degree gl10_weight dim")


@cache
def bott(lam: Weight, mu: Weight) -> BottCohomology | None:
    """The single nonzero cohomology of the bundle (lam | mu), or None.

    ``partitions.reflect`` of the concatenated weight: a repeated entry after
    adding the staircase (9,...,0) means the bundle is acyclic.  Otherwise the
    degree is the inversion count and the cohomology is the GL(10)
    representation of highest weight sort(shifted) - staircase.
    """
    r = reflect(check_dominant(lam, 4) + check_dominant(mu, 6))
    if r is None:
        return None
    inversions, s = r
    weight = tuple(map(sub, s, RHO))
    return BottCohomology(inversions, weight, weyl_product(s))
