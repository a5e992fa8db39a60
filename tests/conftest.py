"""Shared fixtures and the independent Schur-product oracle used to
cross-check Littlewood-Richardson output."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from dvschur.koszul import load_overrides


@pytest.fixture(scope="session")
def preset():
    return load_overrides("paper-4.2")


def schur_value(lam, xs) -> Fraction:
    """Exact Schur polynomial value via the bialternant determinant ratio."""
    n = len(xs)
    lam = tuple(lam) + (0,) * (n - len(lam))

    def det(mat):
        m = [row[:] for row in mat]
        sign = Fraction(1)
        out = Fraction(1)
        for c in range(n):
            piv = next((r for r in range(c, n) if m[r][c]), None)
            if piv is None:
                return Fraction(0)
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                sign = -sign
            out *= m[c][c]
            inv = Fraction(1) / m[c][c]
            for r in range(c + 1, n):
                f = m[r][c] * inv
                if f:
                    m[r] = [a - f * b for a, b in zip(m[r], m[c])]
        return sign * out

    num = [[Fraction(x) ** (lam[j] + n - 1 - j) for j in range(n)] for x in xs]
    den = [[Fraction(x) ** (n - 1 - j) for j in range(n)] for x in xs]
    return det(num) / det(den)


def random_points(rng: random.Random, n: int, count: int):
    pts = []
    while len(pts) < count:
        xs = [rng.randint(2, 13) for _ in range(n)]
        if len(set(xs)) == n:
            pts.append(xs)
    return pts
