"""Exact discrete information theory for lattice point distributions.

Every distribution is held as exact integer counts of its occupied cells
over one common total; entropy evaluation is the only floating-point step.
Sum sets are counted on int64 coordinates: on_grid puts both PointGrids
over one rational unit (a codebook already is one: scale / p times
coordinates in [-p/2, p/2)), and the sums keep that unit. Any other input
raises TypeError; a set whose coordinates reach GRID_LIMIT = 2^62 on the
common grid raises BudgetExceeded. Exact sum points are built only when a
caller asks for them.

Pair sums are counted by one of three builds, and each gives the same
SumStructure: each pair's rank among the distinct sums in lexicographic
order and each sum's pair count. The distinct sums themselves are formed
only when read, from the small array the build already has.

The keyed build serves every countable key space. Column j of the sums
spans max_a + max_b - min_a - min_b + 1 values, and the mixed-radix key
with column 0 most significant orders sums lexicographically; being
linear, it is key_a(x) + key_b(y), each side offset by its own column
minima, so all pair keys are one np.add.outer of the two sides' keys.
Where that key space, a Python int, is at most 2 |A||B| + 1024, the keys
take the narrowest unsigned dtype below the space and np.bincount counts
every sum. The occupied keys come out ascending, so they are the distinct
sums in lexicographic order, and each sum's coordinates are its key's
digits.

The carry build serves a Codebook summed with itself whose key space is
sparser than that but within int64 (p = 7, k = 3, n = 6 spans 13^6 keys
for 7^6 pairs). C is a group under digit-wise message addition mod p, so
x + y is the codeword z of the summed messages with each coordinate left
as z_i or moved by -+p: one carry bit per coordinate. The key
z * 2^n + bits names the sum, so np.bincount over the |C| * 2^n keys
finds the distinct sums (|C + C| <= 2^n |C|, the sum-set lemma) and their
pair counts, and only those sums are ordered, by one argsort of their
additive key; the occupied keys in that order are what the structure
keeps. The keys are formed in place in the narrowest unsigned dtype that
holds them.

The sorted build serves every other space, such as random baseline
points at dim 5 (7093^5 keys) or p = 127, k = 1, n = 10: one sort of the
pairs, by np.argsort of their int64 key or, past 2^63, np.lexsort of
each column's sums, whose runs of equal sums give the ranks and counts,
and whose first pairs the structure keeps.

The pair table SumStructure.ids is stored in the narrowest unsigned dtype
that holds num_sums - 1: 2 bytes per pair on the standard grid, where
num_sums <= 10 177, so a structure kept for reuse is a quarter of an
int64 table, and holds no (num_sums, n) coords unless they are read; the
lemma and theorem-1 suites never read them. np.bincount casts its input to
intp, so narrow keys are counted in steps of at most _CHUNK keys (or one
key space), and no pair-sized intp copy is made.

Binned joint counts take closed forms for 1 bin (the cells are the sum
marginal, and I(W; S) = log2(1) + H(S) - H(S) = 0.0) and for |C| bins
over a Codebook (every cell holds one pair). Other binnings gather the
pair table's rows by bin, a group of rows of at most _CHUNK entries at a
time, into (rows, pairs per bin) arrays and count each row's occupied sum
cells: by np.bincount over the num_sums cells of each bin when the whole
cell space num_bins * num_sums is at most the pair count, else by sorting
every row in place (a stable sort: numpy sorts ids of 16 bits or fewer by
radix) and taking the run lengths, split at every value change and every
row start. Either way the cells come out in (bin, sum) order, as the same
integers, in the narrowest unsigned dtype that holds the pairs per bin.
H(S) is evaluated once per SumStructure and shared by every report on it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

import numpy as np

from .codebooks import Codebook
from .errors import BudgetExceeded, DimensionMismatch, EmptyCodebook, ValidationError
from .lattices import PointGrid, on_grid


class SumStructure(PointGrid):
    """Pairwise-sum bookkeeping for two point sets.

    The distinct sums are unit * coords[s], rows in lexicographic order;
    ids[i, j] is the row of a_i + b_j, in the narrowest unsigned dtype that
    holds num_sums - 1, and counts[s] the number of pairs that give sum s.
    Whichever build makes it (the keyed, carry or sorted build: see the
    module docstring), the result is the same, and the build hands over the
    counts it counted the sums with. Building it once lets callers derive
    counts for many binnings cheaply: the pair counts and the sum entropy
    H(S) are each formed once.

    The structure keeps its ids, its counts, its dimension n and the small
    array its build already has, from which form makes the coords: the
    occupied keys of the keyed and carry builds, or the first pair of each
    run of the sorted build. coords is formed on its first read, read-only,
    and is what an eager build would have stored, byte for byte; len(),
    num_sums and n never form it. As a PointGrid the structure is the sum
    set itself, so sums of sums chain without leaving int64.
    """

    def __init__(self, unit, ids, counts, n, form):
        self.unit = unit if type(unit) is Fraction else Fraction(unit)
        self.n = n
        self.num_sums = len(counts)
        self.ids = np.asarray(ids).astype(np.min_scalar_type(self.num_sums - 1), copy=False)
        self._counts = counts
        counts.flags.writeable = False
        self._form = form
        self._bound = None
        self._float = None

    def __len__(self):
        return self.num_sums

    @cached_property
    def coords(self) -> np.ndarray:
        """The distinct sums' int64 coordinates, formed by the build's form
        on the first read, then read-only."""
        coords = self._form()
        coords.setflags(write=False)
        return coords

    def counts(self) -> np.ndarray:
        """How many pairs give each sum, as the build counted them, read-only."""
        return self._counts

    @cached_property
    def entropy_bits(self) -> float:
        """H(S) in bits for S the sum of a uniform pair: formed on the first
        read, then shared by the lemma report and every binning."""
        return entropy_from_counts(self._counts, self.ids.size)

    def weighted_counts(self, counts_a, counts_b) -> np.ndarray:
        """Multiplicity of each sum when a_i carries counts_a[i] and b_j
        counts_b[j]. Weights of another shape than (len a,) and (len b,)
        raise DimensionMismatch, and a negative or non-integer weight
        ValidationError."""
        ca, cb = np.asarray(counts_a), np.asarray(counts_b)
        if (ca.shape, cb.shape) != ((len(self.ids),), self.ids.shape[1:]):
            raise DimensionMismatch(
                f"weights of shapes {ca.shape} and {cb.shape} for a {self.ids.shape} pair table"
            )
        if ca.dtype.kind not in "iu" or cb.dtype.kind not in "iu" or min(ca.min(), cb.min()) < 0:
            raise ValidationError("counts", "pair weights must be non-negative integers")
        ca, cb = ca.astype(np.int64, copy=False), cb.astype(np.int64, copy=False)
        acc = np.zeros(self.num_sums, dtype=np.int64)
        np.add.at(acc, self.ids, ca[:, None] * cb[None, :])
        return acc


_KEY_LIMIT = (1 << 63) - 1
"""Largest int64: a key space of at most this many keys fits int64 keys."""

_CHUNK = 1 << 14
"""Entries per step when counting a pair-sized table: np.bincount casts its
input to intp, 8 bytes an entry whatever the keys' own dtype, and a group of
binned rows is gathered, sorted and run-split as a copy. Taking at most this
many entries at a time bounds each such temporary at 128 KiB, where the
standard grid's largest tables hold 117 649 pairs (a step still takes one
whole key space or table row where that is larger); steps this long keep
numpy's per-call cost out of sight."""


def check_pair_budget(size_a, size_b, budget) -> None:
    """Raise BudgetExceeded when size_a * size_b pair sums exceed the budget."""
    if size_a * size_b > budget:
        raise BudgetExceeded(f"{size_a}*{size_b} pair sums exceed budget {budget}")


class _SumKey:
    """The additive key of the pair sums of two int64 grids ga and gb.

    Column j of the sums spans spans[j] = max_a + max_b - min_a - min_b + 1
    values. The mixed-radix key sum_j (s_j - lo[j]) * weights[j], column 0
    most significant and weights[j] the product of the later spans, orders
    the sums lexicographically, and, being linear, is key_a(x) + key_b(y)
    with each side offset by its own column minima. space, the number of
    keys, is a Python int and may pass 2^63; the spans and weights are
    int64 arrays only while it does not."""

    def __init__(self, ga, gb):
        self.lo_a = ga.min(axis=0)
        hi_a = ga.max(axis=0)
        self.lo_b, hi_b = (self.lo_a, hi_a) if gb is ga else (gb.min(axis=0), gb.max(axis=0))
        # both minima are above -GRID_LIMIT, so their int64 sum is exact
        self.lo = self.lo_a + self.lo_b
        bounds = zip(hi_a.tolist(), hi_b.tolist(), self.lo.tolist())
        spans = [ha + hb - lo + 1 for ha, hb, lo in bounds]
        weights = [math.prod(spans[j + 1 :]) for j in range(len(spans))]
        self.space = math.prod(spans)
        if self.space <= _KEY_LIMIT:
            self.spans = np.array(spans, dtype=np.int64)
            self.weights = np.array(weights, dtype=np.int64)

    def of(self, rows, lo) -> np.ndarray:
        """The int64 key of each row of rows, offset by lo: every partial
        sum lies in [0, space), so it needs space <= _KEY_LIMIT."""
        return (rows - lo) @ self.weights


def sum_structure(a, b, budget=10**6) -> SumStructure:
    unit, (ga, gb) = on_grid(a, b)
    if not len(ga) or not len(gb):
        raise EmptyCodebook("point sets must be non-empty")
    if ga.shape[1] != gb.shape[1]:
        raise DimensionMismatch(f"dimensions {ga.shape[1]} and {gb.shape[1]} differ")
    check_pair_budget(len(ga), len(gb), budget)
    pairs = len(ga) * len(gb)
    key = _SumKey(ga, gb)
    if _countable(key.space, pairs, 2):
        return _keyed_structure(unit, ga, gb, key)
    wide = key.space > _KEY_LIMIT
    if not wide and a is b and isinstance(a, Codebook) and _countable(len(a) << a.n, pairs, 8):
        return _carry_structure(a, key)
    return _sorted_structure(unit, ga, gb, key, wide)


def _countable(space, pairs, per_pair) -> bool:
    """Whether counting pairs by np.bincount over a key space of this size
    beats sorting them: at most per_pair keys per pair, plus 1024."""
    return space <= per_pair * pairs + 1024


def _keyed_structure(unit, ga, gb, key) -> SumStructure:
    """sum_structure of two grids on one unit whose additive key space is
    countable: all pair keys are one np.add.outer of the two sides' keys,
    in the narrowest unsigned dtype below the space, and _count_keys counts
    every key. The occupied keys come out ascending, so they are the
    distinct sums in lexicographic order; the structure keeps them, and
    forms each sum's coordinates as its key's digits."""
    key_type = np.min_scalar_type(key.space - 1)
    key_a = key.of(ga, key.lo_a).astype(key_type, copy=False)
    key_b = key_a if gb is ga else key.of(gb, key.lo_b).astype(key_type, copy=False)
    keys = np.add.outer(key_a, key_b)
    per_key = _count_keys(keys, key.space)
    occupied = np.flatnonzero(per_key)
    table = np.empty(key.space, dtype=np.min_scalar_type(len(occupied) - 1))
    table[occupied] = np.arange(len(occupied))
    return SumStructure(
        unit, table[keys], per_key[occupied], ga.shape[1],
        lambda: occupied[:, None] // key.weights % key.spans + key.lo,
    )


def _count_keys(keys, space) -> np.ndarray:
    """np.bincount of the narrow key table keys over [0, space), taken in
    steps of at most max(_CHUNK, space) keys, so that its intp copy of the
    keys is never larger than the count table itself or _CHUNK entries."""
    flat = keys.ravel()
    step = max(_CHUNK, space)
    counts = np.bincount(flat[:step], minlength=space)
    for start in range(step, flat.size, step):
        counts += np.bincount(flat[start : start + step], minlength=space)
    return counts


def _sorted_structure(unit, ga, gb, key, wide) -> SumStructure:
    """sum_structure of two grids on one unit by one sort of the pairs by
    sum: np.argsort of the int64 additive key or, where the key space
    passes int64 (wide), np.lexsort of each column's sums, which GRID_LIMIT
    keeps within int64, column 0 most significant. In each run of equal
    sums a pair's rank is the run starts so far less one, the sum's count
    the run length and its coordinates the run's first pair's, so the
    order of the pairs inside a run changes nothing. The structure keeps
    each run's first pair, and the two grids' coords, to form them."""
    if wide:
        columns = [np.add.outer(ga[:, j], gb[:, j]).ravel() for j in range(ga.shape[1])]
        order = np.lexsort(columns[::-1])
    else:
        columns = [np.add.outer(key.of(ga, key.lo_a), key.of(gb, key.lo_b)).ravel()]
        order = np.argsort(columns[0])
    run_start = np.zeros(len(order), dtype=bool)
    run_start[0] = True
    for column in columns:
        ordered = column[order]
        run_start[1:] |= ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(run_start)
    ids = np.empty(len(order), dtype=np.min_scalar_type(len(starts) - 1))
    ids[order] = np.cumsum(run_start) - 1
    first = order[starts]
    counts = np.diff(starts, append=len(order))
    return SumStructure(
        unit, ids.reshape(len(ga), len(gb)), counts, ga.shape[1],
        lambda: ga[first // len(gb)] + gb[first % len(gb)],
    )


def _carry_structure(cb, key) -> SumStructure:
    """sum_structure(cb, cb) from the key z * 2^n + bits of each pair: z the
    message index of the digit-wise message sum mod p, bit i set where
    s_i = x_i + y_i leaves the cell, (2 s_i >= p) | (2 s_i < -p), which for
    a prime p and coordinates in [-p/2, p/2) is |s_i| > p // 2. Every key is
    below |C| * 2^n, so the keys and the key-to-rank table are narrow, and
    the keys' bincount (_count_keys) is also each sum's pair count. The
    distinct sums, one per occupied key, are ordered by one argsort of
    their additive key, which needs key.space within int64: sum_structure
    hands a wider space to the sorted build. The structure keeps the
    occupied keys in that order and forms the sums from them again
    (_carried) only when its coords are read."""
    p, n, x = cb.lattice.p, cb.n, cb.coords
    space = len(cb) << n
    key_type = np.min_scalar_type(space - 1)
    digit_sum = (np.add.outer(np.arange(p), np.arange(p)) % p).astype(key_type)
    keys = np.zeros((1, 1), dtype=key_type)
    for _ in range(cb.lattice.k):
        # one more message digit on each side, as the least significant
        keys = (keys[:, None, :, None] * key_type.type(p) + digit_sum[:, None, :]).reshape(
            len(keys) * p, -1
        )
    keys <<= key_type.type(n)
    small = x.astype(np.min_scalar_type(-2 * p))
    for i in range(n):
        bit = (np.abs(small[:, i, None] + small[:, i]) > p // 2).astype(key_type)
        bit <<= key_type.type(i)
        keys |= bit
    per_key = _count_keys(keys, space)
    occupied = np.flatnonzero(per_key)
    # only the occupied keys' pair counts are kept, so the |C| * 2^n table
    # is freed before the (num_sums, n) temporaries, the build's peak
    per_key = per_key[occupied]
    # the sums are distinct, so their keys order them with no ties
    order = np.argsort(key.of(_carried(x, p, occupied), key.lo))
    ranked = occupied[order]
    table = np.empty(space, dtype=np.min_scalar_type(len(ranked) - 1))
    table[ranked] = np.arange(len(ranked))
    return SumStructure(
        cb.unit, table[keys], per_key[order], n,
        lambda: _carried(x, p, ranked),
    )


def _carried(x, p, carry_keys) -> np.ndarray:
    """The sum that each carry key z * 2^n + bits names: codeword x[z] moved
    by -+p where its carry bit is set, formed in place."""
    n = x.shape[1]
    rows = x[carry_keys >> n]
    move = carry_keys[:, None] >> np.arange(n)
    move &= 1
    move *= -p
    np.negative(move, out=move, where=rows < 0)
    rows += move
    return rows


def entropy_from_counts(counts, total=None) -> float:
    """Entropy in bits of the distribution counts / sum(counts). A count
    that is negative or not an integer raises ValueError."""
    c = np.asarray(counts)
    if c.size and c.dtype.kind not in "iu":
        raise ValueError(f"counts must be integers, not {c.dtype}")
    if c.size and c.min() < 0:
        raise ValueError(f"negative count {c.min():g}")
    if total is None:
        total = int(c.sum(dtype=np.int64))
    if total <= 0:
        raise ValueError("empty count vector")
    # counts of 0 and 1 add nothing; the rest go to one float64 array, which
    # takes log2(c) and then c log2(c) in place: the same floats, summed in
    # the same order, as the product of two arrays
    c = c[c > 1]
    terms = c.astype(np.float64)
    np.log2(terms, out=terms)
    np.multiply(terms, c, out=terms)
    s = float(terms.sum()) if c.size else 0.0
    return math.log2(total) - s / total


def mutual_info_sum(points, budget=10**6) -> float:
    """I(X1; X1 + X2) in bits for X1, X2 independent and uniform on the rows
    of one point set, counting a repeated row once per copy:
    H(X1 + X2) - H(X2), with H(X2) over the copies of each distinct row
    that np.unique(axis=0) counts."""
    s = sum_structure(points, points, budget)
    _, copies = np.unique(points.coords, axis=0, return_counts=True)
    return s.entropy_bits - entropy_from_counts(copies)


class JointBinSumDist:
    """Joint law of (bin index W, sum point S) as exact counts over one
    total: the sum marginal and the occupied (w, s) cells in (bin, sum)
    order, the marginal itself for one bin, or None for cells that each
    hold one pair. Counted cells come in the narrowest unsigned dtype that
    holds a bin's pair count; the sum marginal is int64. Bins carry equal
    mass (BinnedCodebook guarantees it), so H(W) = log2(num_bins).
    joint_bin_sum passes H(S), already formed from sum_counts
    (SumStructure.entropy_bits), as the private _sum_entropy."""

    def __init__(self, num_bins, sum_counts, cell_counts, *, _sum_entropy=None):
        self.num_bins = num_bins
        self.sum_counts = sum_counts
        self.cell_counts = cell_counts
        self.total = int(sum_counts.sum())
        self._sum_entropy = _sum_entropy

    def mutual_info_bits(self) -> float:
        h_sum = self._sum_entropy
        if h_sum is None:
            h_sum = entropy_from_counts(self.sum_counts, self.total)
        if self.cell_counts is None:
            h_cells = math.log2(self.total)
        elif self.cell_counts is self.sum_counts:
            h_cells = h_sum
        else:
            h_cells = entropy_from_counts(self.cell_counts, self.total)
        return math.log2(self.num_bins) + h_sum - h_cells


def _bin_rows(ids, members):
    """The (bin, sum) table's rows in groups of at most _CHUNK entries (or
    one row): row w holds the pair table's rows ids[members[w]], flattened,
    as a fresh array in ids' dtype. The groups come in row order."""
    width = members.shape[1] * ids.shape[1]
    step = max(1, _CHUNK // width)
    for start in range(0, len(members), step):
        group = members[start : start + step]
        yield ids[group].reshape(len(group), width)


def _bincount_cells(ids, members, num_sums) -> np.ndarray:
    """The occupied cells of each row of the (bin, sum) table (see
    _bin_rows), in (row, sum) order, in the narrowest unsigned dtype that
    holds a row's length: each group's cells are one np.bincount over its
    rows' num_sums cells each, which num_sums <= row length keeps within
    the group's size."""
    dtype = np.min_scalar_type(members.shape[1] * ids.shape[1])
    cells = []
    for rows in _bin_rows(ids, members):
        keys = rows + np.arange(0, len(rows) * num_sums, num_sums)[:, None]
        counts = np.bincount(keys.ravel(), minlength=len(rows) * num_sums)
        cells.append(counts[counts > 0].astype(dtype))
    return np.concatenate(cells)


def _sorted_cells(ids, members) -> np.ndarray:
    """The occupied cells of each row of the (bin, sum) table (see
    _bin_rows), in (row, sum) order, in the narrowest unsigned dtype that
    holds a row's length: each group's rows are sorted in place, and the
    cells are the run lengths of the flattened rows, split at every value
    change and at every row start."""
    dtype = np.min_scalar_type(members.shape[1] * ids.shape[1])
    cells = []
    for rows in _bin_rows(ids, members):
        rows.sort(axis=1, kind="stable")
        flat = rows.ravel()
        run_start = np.empty(flat.size, dtype=bool)
        np.not_equal(flat[1:], flat[:-1], out=run_start[1:])
        run_start[:: rows.shape[1]] = True
        starts = np.flatnonzero(run_start)
        cells.append(np.diff(starts, append=flat.size).astype(dtype))
    return np.concatenate(cells)


def joint_bin_sum(binned, budget=10**6, structure=None) -> JointBinSumDist:
    """Exact joint distribution of (bin of X1, X1 + X2).

    X1 is uniform on the binned codebook (bin uniform, codeword uniform in
    the bin), X2 independent and uniform on the same codebook. A
    precomputed SumStructure of the codebook with itself may be passed to
    amortize the pair enumeration, its counts and H(S) across several
    binnings. The pair table's rows are gathered by bin, in groups of at
    most _CHUNK entries, into (bins, pairs per bin) arrays and each row's
    occupied sum cells counted, by np.bincount when num_bins * num_sums is
    at most the pair count, else by sorting the row, so cell_counts lists
    the occupied cells in (bin, sum) order, in the narrowest unsigned dtype
    that holds the pairs per bin, with no num_bins * num_sums table past
    the pair count and no pair-sized copy. With one
    bin the cells are the sum marginal; with one codeword per bin of a
    Codebook, whose rows are distinct, every cell holds one pair
    (cell_counts None).

    A structure whose pair table is not |C| x |C|, whose dimension n is
    not the codebook's, or whose unit is not the codebook's raises
    DimensionMismatch; the check forms no coords. It cannot catch the
    structure of a different codebook of the same size, dimension and unit.
    """
    cb = binned.codebook
    if structure is None:
        structure = sum_structure(cb, cb, budget)
    elif (
        structure.ids.shape != (len(cb), len(cb))
        or structure.n != cb.coords.shape[1]
        or structure.unit != cb.unit
    ):
        raise DimensionMismatch(
            f"a structure of {structure.ids.shape} pairs in dimension {structure.n}"
            f" over unit {structure.unit} is not the pair sums of {len(cb)} codewords in"
            f" dimension {cb.coords.shape[1]} over unit {cb.unit}"
        )
    num_bins, sum_counts = binned.num_bins, structure.counts()
    h_sum = structure.entropy_bits
    if num_bins == 1:
        return JointBinSumDist(1, sum_counts, sum_counts, _sum_entropy=h_sum)
    if num_bins == len(cb) and isinstance(cb, Codebook):
        return JointBinSumDist(num_bins, sum_counts, None, _sum_entropy=h_sum)
    ids, num_sums = structure.ids, structure.num_sums
    # row w holds the codewords of bin w, in any order (bins are equal in
    # size), whose rows of the pair table are bin w's cells
    members = np.argsort(binned.bin_index).reshape(num_bins, -1)
    if num_bins * num_sums <= ids.size:
        cell_counts = _bincount_cells(ids, members, num_sums)
    else:
        cell_counts = _sorted_cells(ids, members)
    return JointBinSumDist(num_bins, sum_counts, cell_counts, _sum_entropy=h_sum)
