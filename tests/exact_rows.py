"""Exact test points as a PointGrid, the one exact row format the package
takes: a list of exact points becomes a PointGrid over the largest rational
dividing every coordinate. record_row_dtypes shows which integer dtype the
lattice quantisers take such rows in, and record_exact_rows which float
rows they leave to the exact path."""

import math
from fractions import Fraction

import numpy as np

from latsec import ConstructionALattice, PointGrid


def grid(points) -> PointGrid:
    rows = [[Fraction(v) for v in row] for row in points]
    values = [v for row in rows for v in row]
    unit = Fraction(
        math.gcd(*(v.numerator for v in values)) or 1,
        math.lcm(1, *(v.denominator for v in values)),
    )
    coords = [[int(v / unit) for v in row] for row in rows]
    return PointGrid(unit, np.array(coords, dtype=np.int64).reshape(len(rows), -1))


def record_row_dtypes(monkeypatch) -> list:
    """Spy on ConstructionALattice._unit_rows: the list it returns collects
    the numerator dtype of every call, in call order."""
    seen = []
    unit_rows = ConstructionALattice._unit_rows

    def spy(self, x):
        num, den = unit_rows(self, x)
        assert den.dtype == num.dtype
        seen.append(num.dtype)
        return num, den

    monkeypatch.setattr(ConstructionALattice, "_unit_rows", spy)
    return seen


def record_exact_rows(monkeypatch) -> list:
    """Spy on ConstructionALattice._unit_rows: the list it returns collects,
    for every call with float rows (those the float filters could not
    certify), the numerator dtype and the rows as lists, in call order."""
    seen = []
    unit_rows = ConstructionALattice._unit_rows

    def spy(self, x):
        num, den = unit_rows(self, x)
        if not isinstance(x, PointGrid):
            seen.append((num.dtype, x.tolist()))
        return num, den

    monkeypatch.setattr(ConstructionALattice, "_unit_rows", spy)
    return seen
