#!/usr/bin/env python3
"""Reproduce the published tables and write markdown reports.

Usage: python scripts/reproduce_tables.py [outdir]

Writes ext_table.md (all 21 rows with the diff annotations) and
koszul_table.md (the factor grid for columns 0..10), and prints a one-line
summary per table.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from dvschur.cli import ext_markdown, koszul_markdown  # noqa: E402
from dvschur.ext import reproduce_table1  # noqa: E402
from dvschur.koszul import get_preset  # noqa: E402
from dvschur.plethysm import koszul_factor_table  # noqa: E402
from dvschur.reference import (  # noqa: E402
    diff_against_paper,
    koszul_mismatches,
    unannotated_mismatches,
)


def main() -> int:
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "reports")
    outdir.mkdir(parents=True, exist_ok=True)

    columns = koszul_factor_table()
    bad = koszul_mismatches(columns)
    (outdir / "koszul_table.md").write_text(koszul_markdown(columns) + "\n")
    print(f"koszul table: {len(bad)} mismatched columns -> {outdir/'koszul_table.md'}")

    reports = reproduce_table1(get_preset("paper-4.2"))
    cells = diff_against_paper(reports)
    (outdir / "ext_table.md").write_text(ext_markdown(reports, cells) + "\n")
    n_annotated = sum(c.status == "annotated" for c in cells)
    n_bad = len(unannotated_mismatches(cells))
    print(
        f"ext table: {n_bad} unannotated mismatches, {n_annotated} annotated "
        f"discrepancies -> {outdir/'ext_table.md'}"
    )
    return 0 if not bad and not n_bad else 1


if __name__ == "__main__":
    sys.exit(main())
