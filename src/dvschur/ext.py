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


def _aggregate(lam, c, summands, overrides) -> ExtReport:
    keys = [s.normalized() for s in summands]
    overrides = tuple(overrides)
    results = {key: chase_summand(key[0], key[1], overrides) for key in sorted(set(keys))}
    ext = [[0, 0] for _ in range(5)]
    pairs = []
    for summand, key in zip(summands, keys):
        res = results[key]
        pairs.append((summand, res))
        for n in range(5):
            lo, hi = res.values[n]
            ext[n][0] += summand.multiplicity * lo
            ext[n][1] += summand.multiplicity * hi
    return ExtReport(
        lam, c, tuple((lo, hi) for lo, hi in ext), tuple(pairs), chi_endo(lam)
    )


def ext_groups(lam: Weight, overrides=()) -> ExtReport:
    """Ext dimensions of Sigma_lam Q against itself (canonicalised first)."""
    lam = check_dominant(lam, 4)
    c = canonicalize(lam)
    return _aggregate(lam, c, end_decomposition(c), overrides)


def sym_ext(m: int, overrides=()) -> ExtReport:
    """Ext dimensions of the m-th symmetric power.

    End(Sym^m Q) nests: it is End(Sym^(m-1) Q) plus the single new summand
    with canonical form (2m, m, m, 0) twisted by O(-m), so the shared chase
    cache makes the sequence incremental in m.
    """
    if m < 0:
        raise ValueError("symmetric power degree must be nonnegative")
    lam = (m, 0, 0, 0)
    summands = tuple(
        EndSummand((2 * m - i, m, m, i), -m, 1) for i in range(m, -1, -1)
    )
    return _aggregate(lam, canonicalize(lam), summands, overrides)


def reproduce_table1(overrides=()) -> list[ExtReport]:
    """Reports for the 21 published rows, in published order."""
    return [ext_groups(row, overrides) for row in TABLE1_ROWS]
