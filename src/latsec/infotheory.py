"""Exact discrete information theory for lattice point distributions.

Probabilities are Fractions end to end; entropy evaluation is the only
floating-point step. Sum sets are counted on int64 coordinates: on_grid
puts both point sets over one rational unit (a codebook already is one:
scale / p times coordinates in [-p/2, p/2)), and the sums keep that unit.
Plain exact point lists are accepted too; a set whose coordinates reach
GRID_LIMIT = 2^62 on the common grid raises BudgetExceeded. Exact sum
points are built only when a caller asks for them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, EmptyCodebook, SupportMismatch
from .lattices import PointGrid, on_grid


def points_of(obj):
    """Accept a codebook-like object (with .points) or a plain point sequence."""
    pts = getattr(obj, "points", obj)
    return tuple(tuple(Fraction(c) for c in pt) for pt in pts)


class SumStructure(PointGrid):
    """Pairwise-sum bookkeeping for two point sets.

    The distinct sums are unit * coords[s], rows in lexicographic order,
    and ids[i, j] is the row of a_i + b_j. As a PointGrid the structure is
    the sum set itself, so sums of sums chain without leaving int64.
    Building it once lets callers derive counts for many binnings cheaply.
    """

    def __init__(self, unit, coords, ids):
        super().__init__(unit, coords)
        self.ids = np.asarray(ids, dtype=np.int64)
        self.num_sums = len(self.coords)

    @property
    def sum_points(self) -> tuple:
        return self.points

    def counts(self) -> np.ndarray:
        return np.bincount(self.ids.ravel(), minlength=self.num_sums).astype(np.int64)

    def weighted_counts(self, counts_a, counts_b) -> np.ndarray:
        """Multiplicity of each sum when a_i carries counts_a[i] and b_j counts_b[j]."""
        ca = np.asarray(counts_a, dtype=np.int64)
        cb = np.asarray(counts_b, dtype=np.int64)
        acc = np.zeros(self.num_sums, dtype=np.int64)
        np.add.at(acc, self.ids, ca[:, None] * cb[None, :])
        return acc

    @property
    def total(self) -> int:
        return self.ids.size


def sum_structure(a, b, budget=10**6) -> SumStructure:
    unit, (ga, gb) = on_grid(a, b)
    if not len(ga) or not len(gb):
        raise EmptyCodebook("point sets must be non-empty")
    if ga.shape[1] != gb.shape[1]:
        raise DimensionMismatch(f"dimensions {ga.shape[1]} and {gb.shape[1]} differ")
    if len(ga) * len(gb) > budget:
        raise BudgetExceeded(f"{len(ga)}*{len(gb)} pair sums exceed budget {budget}")
    sums = (ga[:, None, :] + gb[None, :, :]).reshape(-1, ga.shape[1])
    uniq, inverse = np.unique(sums, axis=0, return_inverse=True)
    return SumStructure(unit, uniq, np.asarray(inverse).reshape(len(ga), len(gb)))


def pair_sum_counts(a, b, budget=10**6):
    """Distinct values of x + y over the product of two point sets, with counts.

    Returns (sum_points, counts) where sum_points is a tuple of exact points
    in lexicographic order and counts[i] is the number of index pairs whose
    sum equals sum_points[i]. Exact: counts over a common total |A|*|B|.
    """
    s = sum_structure(a, b, budget)
    return s.sum_points, s.counts()


def weighted_sum_counts(points_a, counts_a, points_b, counts_b, budget=10**6):
    """Sum support and multiplicities when the inputs are themselves weighted.

    Realizes the distribution of U + V where U has integer mass counts_a on
    points_a and V has counts_b on points_b; output masses are exact integers
    over the product total.
    """
    s = sum_structure(points_a, points_b, budget)
    return s.sum_points, s.weighted_counts(counts_a, counts_b)


def entropy_from_counts(counts, total=None) -> float:
    """Entropy in bits of the distribution counts / sum(counts)."""
    c = np.asarray(counts, dtype=np.float64)
    if total is None:
        total = int(np.asarray(counts, dtype=np.int64).sum())
    if total <= 0:
        raise ValueError("empty count vector")
    c = c[c > 1.0]
    s = float((c * np.log2(c)).sum()) if c.size else 0.0
    return math.log2(total) - s / total


class PointMassDist:
    """Finite distribution over exact points with Fraction probabilities."""

    def __init__(self, mapping):
        items = []
        total = Fraction(0)
        for pt, pr in mapping.items():
            pr = Fraction(pr)
            if pr < 0:
                raise ValueError("negative probability")
            if pr > 0:
                items.append((tuple(Fraction(c) for c in pt), pr))
                total += pr
        if not items:
            raise EmptyCodebook("distribution has empty support")
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        dims = {len(pt) for pt, _ in items}
        if len(dims) != 1:
            raise DimensionMismatch("support points have mixed dimensions")
        items.sort(key=lambda kv: kv[0])
        self._map = dict(items)
        self.dim = dims.pop()

    @classmethod
    def from_counts(cls, points, counts):
        total = int(sum(int(c) for c in counts))
        return cls({pt: Fraction(int(c), total) for pt, c in zip(points, counts)})

    @property
    def support(self):
        return tuple(self._map.keys())

    def prob(self, point) -> Fraction:
        return self._map.get(tuple(Fraction(c) for c in point), Fraction(0))

    def items(self):
        return self._map.items()

    def __len__(self):
        return len(self._map)

    def __eq__(self, other):
        return isinstance(other, PointMassDist) and self._map == other._map


def uniform_dist(points) -> PointMassDist:
    """Uniform distribution over a codebook or point collection."""
    pts = points_of(points)
    if not pts:
        raise EmptyCodebook("cannot build a uniform distribution on nothing")
    if len(set(pts)) != len(pts):
        raise ValueError("points must be distinct")
    p = Fraction(1, len(pts))
    return PointMassDist({pt: p for pt in pts})


def convolve(d1: PointMassDist, d2: PointMassDist) -> PointMassDist:
    """Distribution of X + Y for independent X ~ d1, Y ~ d2. Exact."""
    if d1.dim != d2.dim:
        raise DimensionMismatch(f"dimensions {d1.dim} and {d2.dim} differ")
    acc = {}
    for pt1, p1 in d1.items():
        for pt2, p2 in d2.items():
            s = tuple(a + b for a, b in zip(pt1, pt2))
            acc[s] = acc.get(s, Fraction(0)) + p1 * p2
    return PointMassDist(acc)


def entropy_bits(dist: PointMassDist) -> float:
    """Shannon entropy in bits. The only floating-point step in the chain."""
    h = 0.0
    for _, pr in dist.items():
        if pr != 1:
            h -= float(pr) * (math.log2(pr.numerator) - math.log2(pr.denominator))
    return h


def mutual_info_sum(c1, c2, budget=10**6) -> float:
    """I(X1; X1 + X2) in bits for X1, X2 independent and uniform on c1, c2."""
    s = sum_structure(c1, c2, budget)
    return entropy_from_counts(s.counts()) - math.log2(s.ids.shape[1])


def tv_to_uniform(dist: PointMassDist, support) -> float:
    """Total variation distance to the uniform distribution on `support`."""
    pts = points_of(support)
    if not pts:
        raise EmptyCodebook("reference support is empty")
    ref = set(pts)
    for pt in dist.support:
        if pt not in ref:
            raise SupportMismatch("distribution support leaves the reference set")
    u = Fraction(1, len(pts))
    tv = sum(abs(dist.prob(pt) - u) for pt in pts) / 2
    return float(tv)


class JointBinSumDist:
    """Joint law of (bin index W, sum point S), stored as exact pair counts;
    column s counts sum s of the SumStructure the counts came from.

    Probabilities are counts / total with a common integer total, so the
    representation stays rational; entropies are evaluated in floats at the
    very end.
    """

    def __init__(self, counts):
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 2:
            raise ValueError("counts must be (num_bins, num_sums)")
        row = counts.sum(axis=1)
        if not (row == row[0]).all():
            raise ValueError("bins must carry equal mass")
        self.counts = counts
        self.total = int(counts.sum())
        self.num_bins = counts.shape[0]

    def prob(self, w: int, sum_index: int) -> Fraction:
        return Fraction(int(self.counts[w, sum_index]), self.total)

    def bin_marginal(self):
        return tuple(Fraction(int(v), self.total) for v in self.counts.sum(axis=1))

    def sum_marginal_counts(self):
        return self.counts.sum(axis=0)

    def bin_entropy_bits(self) -> float:
        # uniform over bins by construction
        return math.log2(self.num_bins)

    def sum_entropy_bits(self) -> float:
        return entropy_from_counts(self.sum_marginal_counts(), self.total)

    def joint_entropy_bits(self) -> float:
        return entropy_from_counts(self.counts.ravel(), self.total)

    def mutual_info_bits(self) -> float:
        return self.bin_entropy_bits() + self.sum_entropy_bits() - self.joint_entropy_bits()


def joint_bin_sum(binned, other, budget=10**6, structure=None) -> JointBinSumDist:
    """Exact joint distribution of (bin of X1, X1 + X2).

    X1 is uniform on the binned codebook (bin uniform, codeword uniform in
    the bin), X2 independent and uniform on `other`. A precomputed
    SumStructure for (binned.codebook, other) may be passed to amortize the
    pair enumeration across several binnings.
    """
    if structure is None:
        structure = sum_structure(binned.codebook, other, budget)
    counts = np.zeros((len(binned.bins), structure.num_sums), dtype=np.int64)
    for w, members in enumerate(binned.bins):
        counts[w] = np.bincount(
            structure.ids[list(members)].ravel(), minlength=structure.num_sums
        )
    return JointBinSumDist(counts)


def leakage_binned(binned, other, budget=10**6) -> float:
    """I(W; X1 + X2) in bits, W the bin index of X1."""
    return joint_bin_sum(binned, other, budget).mutual_info_bits()


def equivocation_rate(binned, other, budget=10**6) -> float:
    """(1/n) H(W | X1 + X2), reported as bin rate minus per-dim leakage.

    Computed so that equivocation == bin_rate_per_dim - leakage / n holds
    bit for bit in floating point.
    """
    n = binned.codebook.lattice.n
    leak = leakage_binned(binned, other, budget)
    return binned.bin_rate_per_dim - leak / n
