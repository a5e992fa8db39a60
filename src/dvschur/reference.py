"""Published reference values and comparison logic.

The golden numbers live in a version-controlled data file; the engine never
assumes them, it diffs against them.  A known discrepancy (a printed value
failing the Euler-characteristic cross-check) records the value that chi
forces; a computed value equal to that forced value is reported as annotated
rather than as a mismatch, and any other value in that cell is a mismatch.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import cache

from .ext import ExtReport
from .partitions import Weight, open_data

COLUMNS = ("hom", "ext1", "ext2")


@cache
def _tables() -> dict:
    with open_data("reference_tables.json") as fh:
        return json.load(fh)


def table1_reference() -> dict[Weight, dict[str, int | None]]:
    """Published (hom, ext1, ext2) per row; None where nothing is claimed."""
    return {
        tuple(row["lambda"]): {col: row[col] for col in COLUMNS}
        for row in _tables()["ext_table"]
    }


def known_discrepancies() -> dict[tuple[Weight, str], dict]:
    """Printed cells that fail the chi cross-check, keyed by (lambda, column).

    Each entry holds the ``printed`` value, the ``forced`` value that
    chi(End) and the other printed cells of the row force, and a ``note``.
    """
    return {
        (tuple(item["lambda"]), item["column"]): item
        for item in _tables()["known_discrepancies"]
    }


def koszul_reference() -> tuple[frozenset[Weight], ...]:
    """Published factor sets of the resolution columns p = 0..10."""
    return tuple(
        frozenset(tuple(w) for w in column) for column in _tables()["koszul_columns"]
    )


# status is one of match, mismatch, annotated, no-claim
DiffCell = namedtuple("DiffCell", "lam column computed printed status")


def diff_against_paper(reports: list[ExtReport]) -> list[DiffCell]:
    """Per-cell comparison of computed reports with the published table."""
    reference = table1_reference()
    annotated = known_discrepancies()
    cells = []
    for report in reports:
        printed_row = reference[report.lam]
        for n, column in enumerate(COLUMNS):
            ours = report.value(n)
            printed = printed_row[column]
            if printed is None:
                # nothing claimed: indeterminate rows should stay indeterminate
                # in the two nontrivial columns, while hom is often still exact
                exempt = column == "hom" or isinstance(ours, tuple)
                status = "no-claim" if exempt else "mismatch"
            elif (report.lam, column) in annotated:
                forced = annotated[(report.lam, column)]["forced"]
                status = "annotated" if ours == forced else "mismatch"
            else:  # an interval never equals a printed integer
                status = "match" if ours == printed else "mismatch"
            cells.append(DiffCell(report.lam, column, ours, printed, status))
    return cells


def unannotated_mismatches(cells: list[DiffCell]) -> list[DiffCell]:
    return [c for c in cells if c.status == "mismatch"]


def koszul_mismatches(columns) -> list[int]:
    """Columns p = 0..10 whose factors differ from the published set, or
    that hold a factor at multiplicity other than 1."""
    return [
        p
        for p, published in enumerate(koszul_reference())
        if frozenset(columns[p]) != published
        or any(m != 1 for m in columns[p].values())
    ]
