"""The Koszul factor table: the GL(6) split of Lambda^p(Lambda^3 C^6).

The table is a constant.  ``data/koszul_factor_table.json`` holds columns
p = 0..10; column 10+k is column 10-k with every weight raised by k.  The
tests derive the shipped columns by Newton's identity through Klimyk's
formula and check them against Brauer's formula (``tests/test_plethysm.py``);
at run time each column is checked only for its dimension.
"""

from __future__ import annotations

import json
from functools import cache
from importlib import resources
from math import comb

from .partitions import weyl_dim
from .schur import Decomposition

WEDGE_RANK = 20


def shipped_columns() -> list:
    """Columns 0..10 as the data file lists them: [weight, mult] pairs."""
    path = resources.files("dvschur.data").joinpath("koszul_factor_table.json")
    with path.open() as fh:
        return json.load(fh)["columns"]


@cache
def koszul_factor_table() -> tuple[Decomposition, ...]:
    """Columns p = 0..20 of the Koszul factor table, weights in descending
    order.  A shipped column whose dimension is not C(20, p) raises
    ArithmeticError; column 10+k is column 10-k raised by k (the top wedge is
    the tenth determinant power), and a uniform shift keeps the order.
    """
    shipped = shipped_columns()
    columns = []
    for p in range(WEDGE_RANK // 2 + 1):
        column = {tuple(w): n for w, n in shipped[p]}
        dim = sum(n * weyl_dim(w) for w, n in column.items())
        if dim != comb(WEDGE_RANK, p):
            raise ArithmeticError(f"dimension mismatch in wedge power {p}: {dim}")
        columns.append(column)
    for k in range(1, 11):
        columns.append(
            {tuple(x + k for x in w): n for w, n in columns[10 - k].items()}
        )
    return tuple(columns)
