"""Exact discrete information theory for lattice point distributions.

Every distribution is held as exact integer counts over one common total;
entropy evaluation is the only floating-point step. Sum sets are counted
on int64 coordinates: on_grid puts both point sets over one rational unit
(a codebook already is one: scale / p times coordinates in [-p/2, p/2)),
and the sums keep that unit. Plain exact point lists are accepted too; a
set whose coordinates reach GRID_LIMIT = 2^62 on the common grid raises
BudgetExceeded. Exact sum points are built only when a caller asks for
them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, EmptyCodebook
from .lattices import PointGrid, on_grid


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

    def counts(self) -> np.ndarray:
        return np.bincount(self.ids.ravel(), minlength=self.num_sums).astype(np.int64)

    def weighted_counts(self, counts_a, counts_b) -> np.ndarray:
        """Multiplicity of each sum when a_i carries counts_a[i] and b_j counts_b[j]."""
        ca = np.asarray(counts_a, dtype=np.int64)
        cb = np.asarray(counts_b, dtype=np.int64)
        acc = np.zeros(self.num_sums, dtype=np.int64)
        np.add.at(acc, self.ids, ca[:, None] * cb[None, :])
        return acc


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


def mutual_info_sum(c1, c2, budget=10**6) -> float:
    """I(X1; X1 + X2) in bits for X1, X2 independent and uniform on c1, c2."""
    s = sum_structure(c1, c2, budget)
    return entropy_from_counts(s.counts()) - math.log2(s.ids.shape[1])


class JointBinSumDist:
    """Joint law of (bin index W, sum point S), stored as exact pair counts;
    column s counts sum s of the SumStructure the counts came from.

    Probabilities are counts / total with a common integer total, so the
    representation stays exact; entropies are evaluated in floats at the
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
