"""Dense linear algebra over the prime field GF(p).

Matrices are lists of row lists holding Python ints. Everything runs on
exact integer arithmetic; sizes here are tiny (n <= 10 or so), so plain
Gaussian elimination is enough.
"""

from __future__ import annotations


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def rref_modp(rows, p):
    """Reduced row echelon form over GF(p).

    Args:
        rows: matrix as a sequence of row sequences of ints.
        p: prime modulus.

    Returns:
        (R, pivot_cols): R is a list of row lists with entries in [0, p),
        pivot_cols the list of pivot column indices (its length is the rank).
    """
    mat = [[v % p for v in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c] % p != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [(v * inv) % p for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivot_cols


def rank_modp(rows, p) -> int:
    _, pivots = rref_modp(rows, p)
    return len(pivots)

