"""Primality, and the rank of a matrix over the prime field GF(p).

Matrices are sequences of row sequences holding Python ints. Everything
runs on exact integer arithmetic; sizes here are tiny (n <= 10 or so), so
plain Gaussian elimination is enough. Only the rank is needed, which
forward elimination gives without a reduced row echelon form.
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


def rank_modp(rows, p) -> int:
    """Rank over GF(p) of a matrix given as a sequence of row sequences of
    ints, by forward elimination: each pivot row clears its column in the
    rows below it, and the rank is the number of pivots."""
    mat = [[v % p for v in row] for row in rows]
    ncols = len(mat[0]) if mat else 0
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        inv = pow(top[c], -1, p)
        for i in range(rank + 1, len(mat)):
            f = mat[i][c] * inv % p
            if f:
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], top)]
        rank += 1
        if rank == len(mat):
            break
    return rank
