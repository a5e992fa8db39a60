"""Ext groups of Schur functors of the restricted quotient bundle.

End(Sigma_lambda Q) splits into irreducible summands; each summand's
cohomology comes from its own twisted Koszul chase and the pieces are summed
with multiplicity.  A single indeterminate summand makes the affected total
degrees interval-valued.
"""

from __future__ import annotations

from collections import namedtuple

from .koszul import Cohomology, chase_summand, serre_partner
from .partitions import Weight, canonicalize, check_dominant
from .ring import chi_endo
from .schur import end_decomposition

# The published rows: every canonical weight (m,t,s,0), m >= t >= s >= 0 and
# m >= t+s, with 1 <= m <= 4, in lexicographic order.
TABLE1_ROWS: tuple[Weight, ...] = tuple(
    (m, t, s, 0)
    for m in range(1, 5) for t in range(m + 1) for s in range(t + 1) if t + s <= m
)


class ExtReport(namedtuple("ExtReport", "values lam canonical summands chi_check"),
                Cohomology):
    """Ext dimensions in degrees 0..4: the summands' values with multiplicity.
    ``canonical`` is the ``CanonicalQPartition`` of ``lam``, ``summands`` the
    (``EndSummand``, ``ChaseResult``) pairs, ``chi_check`` chi(End) by HRR."""

    __slots__ = ()

    def conflicts(self):
        return [(s.normalized(), c) for s, res in self.summands for c in res.conflicts]


def ext_groups(lam: Weight, overrides=()) -> ExtReport:
    """Ext dimensions of Sigma_lam Q against itself (canonicalised first).

    Symmetric powers included: the chase cache makes a run over m incremental.
    End is self-dual, so it holds each summand's ``serre_partner``: of a pair
    with no side named by an override, only the smaller (weight, twist) is
    chased and the other is its ``ChaseResult.serre_dual``.
    """
    lam = check_dominant(lam, 4)
    c = canonicalize(lam)
    own = {}  # (q_weight, twist) -> the overrides naming it, in input order
    for ov in overrides:
        own[ov.q_weight, ov.twist] = own.get((ov.q_weight, ov.twist), ()) + (ov,)
    pairs = []
    for summand in end_decomposition(c):
        key = summand.normalized()
        partner = serre_partner(*key)
        if partner < key and key not in own and partner not in own:
            res = chase_summand(*partner, ()).serre_dual()
        else:
            res = chase_summand(*key, own.get(key, ()))
        pairs.append((summand, res))
    values = tuple(
        tuple(sum(s.multiplicity * r.values[n][end] for s, r in pairs) for end in (0, 1))
        for n in range(5)
    )
    return ExtReport(values, lam, c, tuple(pairs), chi_endo(lam))


def reproduce_table1(overrides=()) -> list[ExtReport]:
    """Reports for the 21 published rows, in published order."""
    return [ext_groups(row, overrides) for row in TABLE1_ROWS]
