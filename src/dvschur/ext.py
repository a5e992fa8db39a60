"""Ext groups of Schur functors of the restricted quotient bundle.

End(Sigma_lambda Q) splits into irreducible summands; each summand's
cohomology comes from its own twisted Koszul chase and the pieces are summed
with multiplicity.  A single indeterminate summand makes the affected total
degrees interval-valued.
"""

from __future__ import annotations

from dataclasses import dataclass

from .koszul import ChaseResult, chase_summand
from .partitions import CanonicalQPartition, Weight, canonicalize, check_dominant
from .ring import chi_endo
from .schur import EndSummand, end_decomposition

TABLE1_ROWS: tuple[Weight, ...] = (
    (1, 0, 0, 0),
    (1, 1, 0, 0),
    (2, 0, 0, 0),
    (2, 1, 0, 0),
    (2, 1, 1, 0),
    (2, 2, 0, 0),
    (3, 0, 0, 0),
    (3, 1, 0, 0),
    (3, 1, 1, 0),
    (3, 2, 0, 0),
    (3, 2, 1, 0),
    (3, 3, 0, 0),
    (4, 0, 0, 0),
    (4, 1, 0, 0),
    (4, 1, 1, 0),
    (4, 2, 0, 0),
    (4, 2, 1, 0),
    (4, 2, 2, 0),
    (4, 3, 0, 0),
    (4, 3, 1, 0),
    (4, 4, 0, 0),
)


@dataclass(frozen=True)
class ExtReport:
    """Ext dimensions in degrees 0..4, exact where lo == hi."""

    lam: Weight
    canonical: CanonicalQPartition
    ext: tuple[tuple[int, int], ...]
    summands: tuple[tuple[EndSummand, ChaseResult], ...]
    chi_check: int

    @property
    def exact(self) -> bool:
        return all(lo == hi for lo, hi in self.ext)

    def dims(self) -> tuple[int, ...]:
        if not self.exact:
            raise ValueError(f"Ext groups of {self.lam} are indeterminate")
        return tuple(lo for lo, _ in self.ext)

    def bounded_degrees(self) -> tuple[int, ...]:
        return tuple(n for n, (lo, hi) in enumerate(self.ext) if lo != hi)

    def value(self, n: int):
        lo, hi = self.ext[n]
        return lo if lo == hi else (lo, hi)

    def conflicts(self):
        out = []
        for summand, res in self.summands:
            for c in res.conflicts:
                out.append((summand.normalized(), c))
        return out


def ext_groups(lam: Weight, overrides=()) -> ExtReport:
    """Ext dimensions of Sigma_lam Q against itself (canonicalised first).

    Symmetric powers included: the chase cache makes a run over m incremental.
    """
    lam = check_dominant(lam, 4)
    c = canonicalize(lam)
    overrides = tuple(overrides)
    ext = [[0, 0] for _ in range(5)]
    pairs = []
    for summand in end_decomposition(c):
        res = chase_summand(*summand.normalized(), overrides)
        pairs.append((summand, res))
        for n in range(5):
            lo, hi = res.values[n]
            ext[n][0] += summand.multiplicity * lo
            ext[n][1] += summand.multiplicity * hi
    return ExtReport(
        lam, c, tuple((lo, hi) for lo, hi in ext), tuple(pairs), chi_endo(lam)
    )


def reproduce_table1(overrides=()) -> list[ExtReport]:
    """Reports for the 21 published rows, in published order."""
    return [ext_groups(row, overrides) for row in TABLE1_ROWS]
