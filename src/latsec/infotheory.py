"""Exact discrete information theory for lattice point distributions.

Every distribution is held as exact integer counts of its occupied cells
over one common total; entropy evaluation is the only floating-point step.
Sum sets are counted on int64 coordinates: on_grid puts both PointGrids
over one rational unit (a codebook already is one: scale / p times
coordinates in [-p/2, p/2)), and the sums keep that unit. Any other input
raises TypeError; a set whose coordinates reach GRID_LIMIT = 2^62 on the
common grid raises BudgetExceeded. Exact sum points are built only when a
caller asks for them.

Rows are ranked on one int64 key per row that sorts like the row itself
(lexicographically): each column, shifted by its minimum, is one
mixed-radix digit, so a 1-D np.unique ranks the distinct rows in row
order. Where the product of the digit spans would pass 2^63, the key so
far (and, if it alone is that wide, the column) is replaced by its rank
among its distinct values, which keeps the order.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, EmptyCodebook
from .lattices import PointGrid, on_grid


class SumStructure(PointGrid):
    """Pairwise-sum bookkeeping for two point sets.

    The distinct sums are unit * coords[s], rows in lexicographic order
    (ranked by row_ranks on order-preserving int64 row keys), and
    ids[i, j] is the row of a_i + b_j. As a PointGrid the structure is
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


_KEY_LIMIT = (1 << 63) - 1
"""Largest int64: key_span * span stays at or below it, so every key fits."""


def _ranks(values):
    """Rank of each value among the distinct values, and their count."""
    distinct, rank = np.unique(values, return_inverse=True)
    return rank, len(distinct)


def row_ranks(rows):
    """Rank of each row of a 2-D int64 array among its distinct rows in
    lexicographic order. Each row is keyed by one int64 whose order is the
    row order: per column, key = key * span + (col - col.min()), with keys
    in [0, key_span).
    """
    rows = np.asarray(rows, dtype=np.int64)
    key, key_span = np.zeros(len(rows), dtype=np.int64), 1
    for col in rows.T:
        lo = int(col.min())
        span = int(col.max()) - lo + 1
        if key_span * span > _KEY_LIMIT:
            key, key_span = _ranks(key)
        if key_span * span > _KEY_LIMIT:
            col, span = _ranks(col)
        else:
            col = col - lo
        key = key * span + col
        key_span *= span
    return _ranks(key)[0]


def sum_structure(a, b, budget=10**6) -> SumStructure:
    unit, (ga, gb) = on_grid(a, b)
    if not len(ga) or not len(gb):
        raise EmptyCodebook("point sets must be non-empty")
    if ga.shape[1] != gb.shape[1]:
        raise DimensionMismatch(f"dimensions {ga.shape[1]} and {gb.shape[1]} differ")
    if len(ga) * len(gb) > budget:
        raise BudgetExceeded(f"{len(ga)}*{len(gb)} pair sums exceed budget {budget}")
    sums = (ga[:, None, :] + gb[None, :, :]).reshape(-1, ga.shape[1])
    ranks = row_ranks(sums)
    # every row written to one rank is the same row, so the result is fixed
    distinct = np.empty((ranks.max() + 1, sums.shape[1]), dtype=np.int64)
    distinct[ranks] = sums
    return SumStructure(unit, distinct, ranks.reshape(len(ga), len(gb)))


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
    """I(X1; X1 + X2) in bits for X1, X2 independent and uniform on c1, c2,
    counting a repeated row once per copy: H(X1 + X2) - H(X2)."""
    s = sum_structure(c1, c2, budget)
    return entropy_from_counts(s.counts()) - entropy_from_counts(np.bincount(row_ranks(c2.coords)))


class JointBinSumDist:
    """Joint law of (bin index W, sum point S) as exact counts over one
    total: the sum marginal and the occupied (w, s) cells in (bin, sum)
    order. Bins carry equal mass (BinnedCodebook guarantees it), so
    H(W) = log2(num_bins)."""

    def __init__(self, num_bins, sum_counts, cell_counts):
        self.num_bins = num_bins
        self.sum_counts = sum_counts
        self.cell_counts = cell_counts
        self.total = int(sum_counts.sum())

    def mutual_info_bits(self) -> float:
        h_sum = entropy_from_counts(self.sum_counts, self.total)
        return math.log2(self.num_bins) + h_sum - entropy_from_counts(self.cell_counts, self.total)


def joint_bin_sum(binned, other, budget=10**6, structure=None) -> JointBinSumDist:
    """Exact joint distribution of (bin of X1, X1 + X2).

    X1 is uniform on the binned codebook (bin uniform, codeword uniform in
    the bin), X2 independent and uniform on `other`. A precomputed
    SumStructure for (binned.codebook, other) may be passed to amortize the
    pair enumeration across several binnings. Cell (w, s) is keyed
    w * num_sums + s.
    """
    if structure is None:
        structure = sum_structure(binned.codebook, other, budget)
    cells = binned.bin_index[:, None] * structure.num_sums + structure.ids
    _, cell_counts = np.unique(cells, return_counts=True)
    return JointBinSumDist(binned.num_bins, structure.counts(), cell_counts)
