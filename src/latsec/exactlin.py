"""Exact integer determinants, used to check that a transform is unimodular.

Fraction-free (Bareiss) elimination on Python ints; no floating point.
"""

from __future__ import annotations


def det_int(rows) -> int:
    """Determinant of a square integer matrix via Bareiss elimination."""
    n = len(rows)
    m = [[int(v) for v in row] for row in rows]
    sign = 1
    prev = 1
    for t in range(n - 1):
        if m[t][t] == 0:
            pivot = next((i for i in range(t + 1, n) if m[i][t] != 0), None)
            if pivot is None:
                return 0
            m[t], m[pivot] = m[pivot], m[t]
            sign = -sign
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                m[i][j] = (m[i][j] * m[t][t] - m[i][t] * m[t][j]) // prev
            m[i][t] = 0
        prev = m[t][t]
    return sign * m[n - 1][n - 1]
