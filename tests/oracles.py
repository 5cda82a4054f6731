"""Independent reference implementations used to cross-check the package.

Everything here is deliberately brute force and written from the problem
statement alone: exhaustive closest-point search over an explicit
coefficient box, dictionary-based distribution arithmetic on exact
rationals, and closed forms for hand-checkable configurations. Slowness is
the point; none of these share code with the package internals.

One reference is a former rule rather than brute force: float_fine_gap_rule
keeps the fine quantiser's float certificate as it stood before the marks
rule took its place, so a test can pin that both certify the same rows.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def solve_mod_p(rows, vec, p):
    """A coefficient list z with A z = vec (mod p), A given as n x k rows,
    found by trying every z in GF(p)^k in lexicographic order; None when
    vec is not in the column space."""
    k = len(rows[0])
    for z in itertools.product(range(p), repeat=k):
        if all((sum(a * b for a, b in zip(row, z)) - v) % p == 0 for row, v in zip(rows, vec)):
            return list(z)
    return None


def rank_brute(rows, p):
    """Rank over GF(p) of the n x k matrix G given as rows: log_p of the
    number of distinct vectors G z mod p over every z in GF(p)^k, the size
    of G's column space. A matrix with no rows or no columns has rank 0."""
    k = len(rows[0]) if rows else 0
    span = {
        tuple(sum(a * b for a, b in zip(row, z)) % p for row in rows)
        for z in itertools.product(range(p), repeat=k)
    }
    rank = 0
    while p**rank < len(span):
        rank += 1
    assert p**rank == len(span)
    return rank


def _frac_vec(x):
    return tuple(Fraction(v) for v in x)


def exhaustive_nearest(target, basis_cols, box):
    """All nearest lattice points by exhaustive coefficient search.

    basis_cols: list of basis vectors (columns). The search covers every
    integer coefficient vector in [-box, box]^dim and asserts the winners
    sit strictly inside the box, so a too-small box fails loudly instead
    of silently returning a truncated answer. Returns (points, dist2) with
    points the full set of minimizers.
    """
    cols = [_frac_vec(c) for c in basis_cols]
    target = _frac_vec(target)
    n = len(target)
    best = None
    winners = []
    winner_reach = 0
    for coeffs in itertools.product(range(-box, box + 1), repeat=len(cols)):
        pt = tuple(
            sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(n)
        )
        d2 = sum((t - v) ** 2 for t, v in zip(target, pt))
        if best is None or d2 < best:
            best = d2
            winners = [pt]
            winner_reach = max(abs(c) for c in coeffs)
        elif d2 == best:
            winners.append(pt)
            winner_reach = max(winner_reach, max(abs(c) for c in coeffs))
    assert winner_reach < box, "search box too small for a trustworthy answer"
    return winners, best


def tie_break_residual(target, winners):
    """The residual the half-open-cell rule must pick: among all nearest
    points, the one whose residual target - point is lexicographically
    smallest."""
    target = _frac_vec(target)
    residuals = [tuple(t - v for t, v in zip(target, pt)) for pt in winners]
    return min(residuals)


def fold_brute(target, basis_cols, box):
    """target mod lattice via exhaustive search plus the lexicographic rule."""
    winners, _ = exhaustive_nearest(target, basis_cols, box)
    return tie_break_residual(target, winners)


def coset_reps_brute(p, code_matrix, transform, scale, box=6):
    """Codebook point set computed from scratch: every message's code vector,
    scaled and transformed, folded by exhaustive closest-point search."""
    scale = Fraction(scale)
    n = len(code_matrix)
    k = len(code_matrix[0])
    basis = [
        tuple(scale * transform[i][j] for i in range(n)) for j in range(n)
    ]
    reps = set()
    for digits in itertools.product(range(p), repeat=k):
        code_vec = [
            sum(code_matrix[i][j] * digits[j] for j in range(k)) % p
            for i in range(n)
        ]
        raw = [
            scale * sum(transform[i][j] * Fraction(code_vec[j], p) for j in range(n))
            for i in range(n)
        ]
        reps.add(fold_brute(raw, basis, box))
    return reps


def float_fine_gap_rule(rows, p, words, step, roundoff=2.0**-53, reach=2.0**50):
    """The fine quantiser's float certificate by the rule of the two least
    distances, on all rows at once. rows is a float (rows, n) array, words
    the codewords as (codewords, n) residues mod p, and step float(p / scale).

    In units of the fine step, t = fl(x step); each residue r's coset point
    is c_r = r + p floor((t - r) / p + 1/2) and its residual rho_r = t - c_r.
    A row is certified when |t| < reach and every |rho_r| lies more than
    e = 3 roundoff (|t| + p) inside p / 2, when exactly one codeword takes
    the least computed distance d_1 = sum_i rho_i^2, summed left to right,
    and when the least distance d_2 of the others has fl(d_2 - d_1) >
    2 beta, with beta = p sum_i e_i + n^2 roundoff p^2 / 2. Returns the
    certified rows' coset points as int64 (0 on every other row) and the
    mask.
    """
    rows, words = np.asarray(rows, dtype=np.float64), np.asarray(words)
    count, n = rows.shape
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.multiply(rows.T, step, order="C")
        r = np.arange(p, dtype=np.float64).reshape(p, 1, 1)
        near = r + p * np.floor((t - r) / p + 0.5)
        resid = t - near
        size = np.abs(t)
        e = 3 * roundoff * (size + p)
        certain = ((size < reach) & (p / 2 - np.abs(resid).max(axis=0) > e)).all(axis=0)
        beta = p * e.sum(axis=0) + n * n * roundoff * p * p / 2
        sq = resid * resid
        dist = sq[words[:, 0], 0]
        for i in range(1, n):
            dist = dist + sq[words[:, i], i]
        least = dist.min(axis=0)
        at_least = dist == least
        second = np.where(at_least, np.inf, dist).min(axis=0)
        certain &= (at_least.sum(axis=0) == 1) & (second - least > 2 * beta)
    index = at_least.argmax(axis=0)
    point = near[words[index].T, np.arange(n)[:, None], np.arange(count)]
    return np.where(certain, point, 0).T.astype(np.int64), certain


def pair_sum_histogram(points_a, points_b):
    """Exact histogram of x + y over the two point sets, as a dict."""
    hist = {}
    for x in points_a:
        for y in points_b:
            s = tuple(Fraction(u) + Fraction(v) for u, v in zip(x, y))
            hist[s] = hist.get(s, 0) + 1
    return hist


def entropy_oracle(counts):
    """Shannon entropy in bits of a count vector, direct definition."""
    total = sum(counts)
    h = 0.0
    for c in counts:
        if c:
            q = c / total
            h -= q * math.log2(q)
    return h


def mutual_info_sum_oracle(points_a, points_b):
    """I(X1; X1 + X2) for X1 uniform on points_a, X2 uniform on points_b:
    equals H(X1 + X2) - H(X1 + x2) = H(sum) - log2 |B| by the uniform shift."""
    hist = pair_sum_histogram(points_a, points_b)
    return entropy_oracle(list(hist.values())) - math.log2(len(points_b))


def bins_of(binned):
    """Each bin's codeword indices in increasing order, rebuilt from
    binned.bin_index by a plain scan."""
    members = [[] for _ in range(binned.num_bins)]
    for idx, w in enumerate(binned.bin_index.tolist()):
        members[w].append(idx)
    return tuple(tuple(m) for m in members)


def joint_counts_oracle(bins, points_a, points_b):
    """How many pairs (x in bin w, y) give each (w, x + y), as a dict, by
    direct joint enumeration.

    bins: sequence of index tuples partitioning points_a.
    """
    counts = {}
    for w, members in enumerate(bins):
        for idx in members:
            x = points_a[idx]
            for y in points_b:
                key = (w, tuple(Fraction(u) + Fraction(v) for u, v in zip(x, y)))
                counts[key] = counts.get(key, 0) + 1
    return counts


def joint_leakage_oracle(bins, points_a, points_b):
    """I(W; X1 + X2) with W the bin of X1, by direct joint enumeration.

    bins: sequence of index tuples partitioning points_a. All probability
    masses are exact rationals; only the final logarithms are floats.
    """
    na, nb = len(points_a), len(points_b)
    joint = {
        key: Fraction(c, na * nb)
        for key, c in joint_counts_oracle(bins, points_a, points_b).items()
    }
    def entropy(dist):
        return -sum(float(q) * math.log2(float(q)) for q in dist.values() if q)
    w_marg = {}
    s_marg = {}
    for (w, s), q in joint.items():
        w_marg[w] = w_marg.get(w, Fraction(0)) + q
        s_marg[s] = s_marg.get(s, Fraction(0)) + q
    return entropy(w_marg) + entropy(s_marg) - entropy(joint)


def triangle_mi(p):
    """Closed-form I(X1; X1+X2) for the one-dimensional p-point line codebook
    {scale * i / p folded}: the sum histogram is the discrete triangle
    1, 2, ..., p, ..., 2, 1 over 2p - 1 values."""
    counts = list(range(1, p + 1)) + list(range(p - 1, 0, -1))
    clogc = sum(c * math.log2(c) for c in counts)
    return math.log2(p) - clogc / (p * p)


def chi_square_uniform(samples, num_bins, lo, hi):
    """Chi-square statistic of samples against uniform on [lo, hi)."""
    counts = [0] * num_bins
    width = (hi - lo) / num_bins
    for s in samples:
        idx = int((s - lo) / width)
        if idx == num_bins:
            idx -= 1
        assert 0 <= idx < num_bins, f"sample {s} outside [{lo}, {hi})"
        counts[idx] += 1
    expected = len(samples) / num_bins
    return sum((c - expected) ** 2 / expected for c in counts)


# Upper critical value of the chi-square distribution with 15 degrees of
# freedom at tail probability 1e-3, for 16-bin uniformity checks.
CHI2_CRIT_DF15_P001 = 37.69729821835383


def convolve_oracle(dist_a, dist_b):
    """Convolution of two scalar-keyed probability dicts, exact."""
    out = {}
    for x, px in dist_a.items():
        for y, py in dist_b.items():
            out[x + y] = out.get(x + y, Fraction(0)) + px * py
    return out
