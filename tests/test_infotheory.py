"""Exact count arithmetic: pair sums, entropies, binned leakage."""

import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from latsec import (
    BinnedCodebook,
    BudgetExceeded,
    Codebook,
    ConstructionALattice,
    DimensionMismatch,
    GridPoint,
    JointBinSumDist,
    PointGrid,
    ValidationError,
    entropy_from_counts,
    enumerate_codebook,
    joint_bin_sum,
    mutual_info_sum,
    random_code_matrix,
    random_unimodular,
    run_lemma_suite,
    scale_to_power,
    standard_grid,
    sum_structure,
)
from latsec import experiments, infotheory
from latsec.lattices import on_grid

import oracles
from exact_rows import grid


def seeded_codebook(p, k, n, seed=0, scale=1):
    g = random_code_matrix(p, k, n, [p, k, n, seed, 11])
    t = random_unimodular(n, [p, k, n, seed, 13])
    return enumerate_codebook(ConstructionALattice(p, g, t, scale))


class TestEntropy:
    def test_hand_values(self):
        assert entropy_from_counts([1]) == 0.0
        assert entropy_from_counts([1, 1]) == 1.0
        assert entropy_from_counts([1, 2, 1]) == 1.5
        assert entropy_from_counts([3, 1]) == pytest.approx(
            2 - 0.75 * math.log2(3), abs=1e-15
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_direct_definition(self, seed):
        rng = np.random.default_rng([seed, 77])
        counts = rng.integers(1, 50, size=int(rng.integers(2, 30)))
        assert entropy_from_counts(counts) == pytest.approx(
            oracles.entropy_oracle(list(counts)), abs=1e-12
        )

    @pytest.mark.parametrize(
        "dtype,high",
        [
            (np.uint8, 200), (np.uint16, 5000), (np.uint32, 2**20),
            (np.int64, 2**40), (np.uint64, 2**58),
        ],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_in_place_terms_match_the_product_of_two_arrays(self, dtype, high, seed):
        # The log and the product are taken in place in one float64 array;
        # the result equals, bit for bit, the sum of the product of the
        # counts' floats and their log2, the form that kept three arrays.
        # Counts of 0 and 1 are drawn often, and past 2^53 a count's float
        # is rounded, the same way both times.
        rng = np.random.default_rng([seed, 78])
        size = int(rng.integers(1, 20 if high > 2**50 else 5000))
        counts = np.where(
            rng.random(size) < 0.3, rng.integers(0, 2, size), rng.integers(0, high, size)
        ).astype(dtype)
        counts[0] = 2
        total = int(counts.sum(dtype=np.int64))
        c = counts[counts > 1].astype(np.float64)
        expected = math.log2(total) - float((c * np.log2(c)).sum()) / total
        assert entropy_from_counts(counts).hex() == expected.hex()
        assert entropy_from_counts(counts, total).hex() == expected.hex()

    @pytest.mark.parametrize("counts,total", [([3, -1], None), ([3, -1], 2), ([-1], 1)])
    def test_negative_counts_raise(self, counts, total):
        # [3, -1] used to give -1.377 bits
        with pytest.raises(ValueError, match="negative count"):
            entropy_from_counts(counts, total)

    @pytest.mark.parametrize("counts", [[1.5, 1.5], [0.5, 0.5, 1], [2.0, 2.0], np.array([3.0])])
    def test_fractional_counts_raise(self, counts):
        # [1.5, 1.5] used to give 0.1226 bits and [0.5, 0.5, 1] 0.0
        with pytest.raises(ValueError, match="must be integers"):
            entropy_from_counts(counts)

    @pytest.mark.parametrize("counts", [[], [0, 0]])
    def test_empty_counts_raise(self, counts):
        with pytest.raises(ValueError, match="empty count vector"):
            entropy_from_counts(counts)

    def test_explicit_total_scales_distribution(self):
        # Counts summing below the stated total mean missing mass is spread
        # implicitly; the implementation requires exact totals instead.
        assert entropy_from_counts([2, 2], total=4) == 1.0


class TestPairSums:
    @pytest.mark.parametrize(
        "p,k,n,scale", [(2, 1, 1, 1), (3, 1, 1, 1), (2, 2, 2, Fraction(3, 2)), (5, 1, 2, 1)]
    )
    def test_counts_match_oracle(self, p, k, n, scale):
        cb = seeded_codebook(p, k, n, scale=scale)
        s = sum_structure(cb, cb, 10**6)
        points, counts = s.points, s.counts()
        hist = oracles.pair_sum_histogram(cb.points, cb.points)
        got = {tuple(pt): int(c) for pt, c in zip(points, counts)}
        assert got == hist

    def test_structure_reuse_and_totals(self):
        cb = seeded_codebook(3, 2, 2)
        structure = sum_structure(cb, cb, 10**6)
        assert structure.ids.shape == (9, 9)
        counts = structure.counts()
        assert int(counts.sum()) == 81
        again = sum_structure(cb, cb, 10**6)
        assert np.array_equal(counts, again.counts())
        assert len(again.points) == structure.num_sums

    def test_large_denominator_agrees(self):
        # A 1/(2^31 + 1) coordinate puts all sets on a fine common grid.
        huge = Fraction(1, 2**31 + 1)
        a = [(Fraction(0),), (huge,), (Fraction(1, 3),)]
        b = [(Fraction(0),), (Fraction(1, 3),)]
        s = sum_structure(grid(a), grid(b), 100)
        points, counts = s.points, s.counts()
        hist = oracles.pair_sum_histogram(a, b)
        assert {pt: int(c) for pt, c in zip(points, counts)} == hist

    def test_coordinates_past_int64_bound_raise(self):
        for big in ((Fraction(2**62),), (Fraction(1),)), ((Fraction(1, 2**62),), (Fraction(1),)):
            with pytest.raises(BudgetExceeded):
                sum_structure(grid(big), grid([(Fraction(0),)]), 10)
        fits = ((Fraction(2**62 - 1),), (Fraction(1),))
        assert sum_structure(grid(fits), grid([(Fraction(0),)]), 10).num_sums == 2

    def test_budget(self):
        cb = seeded_codebook(5, 2, 2)
        with pytest.raises(BudgetExceeded):
            sum_structure(cb, cb, budget=624)

    def test_weighted_sums_match_oracle(self):
        a = [(Fraction(0),), (Fraction(-1, 2),)]
        ca = np.array([2, 3], dtype=np.int64)
        b = [(Fraction(0),), (Fraction(1, 2),), (Fraction(1),)]
        cb_counts = np.array([1, 4, 2], dtype=np.int64)
        s = sum_structure(grid(a), grid(b), 100)
        points, counts = s.points, s.weighted_counts(ca, cb_counts)
        expected = {}
        for x, wx in zip(a, ca):
            for y, wy in zip(b, cb_counts):
                key = (x[0] + y[0],)
                expected[key] = expected.get(key, 0) + int(wx) * int(wy)
        assert {tuple(p): int(c) for p, c in zip(points, counts)} == expected
        assert int(counts.sum()) == 5 * 7

    @pytest.mark.parametrize("ca,cb", [
        ([5], [1]), ([1, 1, 1], [1]), ([1, 1], [1, 1]), ([[1, 1]], [1]), ([1, 1], 1), (1, [1]),
    ])
    def test_weights_of_another_shape_raise(self, ca, cb):
        # one weight for two points used to broadcast: [5] gave [5 5]
        s = sum_structure(PointGrid(1, [[0], [1]]), PointGrid(1, [[0]]), 10)
        with pytest.raises(DimensionMismatch):
            s.weighted_counts(ca, cb)

    @pytest.mark.parametrize("ca,cb", [([1, -5], [1]), ([1, 1], [-1]), ([0, -1], [0])])
    def test_negative_weights_raise(self, ca, cb):
        # [1, -5] used to give the negative count [1 -5]
        s = sum_structure(PointGrid(1, [[0], [1]]), PointGrid(1, [[0]]), 10)
        with pytest.raises(ValidationError):
            s.weighted_counts(ca, cb)
        assert s.weighted_counts([0, 2], [3]).tolist() == [0, 6]

    @pytest.mark.parametrize("ca,cb", [
        ([1.5, 2.7], [1]), ([1, 1], [1.0]), ([2.0, 1.0], [1]), ([1, 1], [Fraction(1)]),
    ])
    def test_fractional_weights_raise(self, ca, cb):
        # [1.5, 2.7] used to be truncated to the counts [1 2]
        s = sum_structure(PointGrid(1, [[0], [1]]), PointGrid(1, [[0]]), 10)
        with pytest.raises(ValidationError, match="non-negative integers"):
            s.weighted_counts(ca, cb)
        assert s.weighted_counts(np.array([1, 2], dtype=np.uint8), [3]).tolist() == [3, 6]

    @pytest.mark.parametrize("num_sums,dtype", [
        (1, np.uint8), (256, np.uint8), (257, np.uint16), (65536, np.uint16), (65537, np.uint32),
    ])
    def test_ids_dtype_holds_the_last_sum(self, num_sums, dtype):
        a = PointGrid(1, np.arange(num_sums)[:, None])
        s = sum_structure(a, PointGrid(1, [[0]]), 10**6)
        assert s.num_sums == num_sums
        assert s.ids.dtype == dtype
        assert np.array_equal(s.ids.ravel(), np.arange(num_sums))

    def test_counts_are_counted_once_and_read_only(self):
        cb = seeded_codebook(3, 2, 2)
        s = sum_structure(cb, cb, 10**6)
        counts = s.counts()
        assert s.counts() is counts and not counts.flags.writeable
        assert counts.dtype == np.int64 and int(counts.sum()) == 81


def _grid_codebook(p, k, n, draw, scale):
    g = random_code_matrix(p, k, n, [p, k, n, draw, 11])
    t = random_unimodular(n, [p, k, n, draw, 13])
    return enumerate_codebook(ConstructionALattice(p, g, t, scale))


# Denominators at and far above 2^30 used to leave the shared int64 grid.
_DENOMINATORS = (1, 2, 3, 7, 2**31 - 1, 1000000007, 2**40 + 15)


@st.composite
def small_codebooks(draw, n):
    p = draw(st.sampled_from((2, 3, 5)))
    k = draw(st.integers(1, min(n, {2: 4, 3: 2, 5: 2}[p])))
    scale = Fraction(draw(st.integers(1, 50)), draw(st.sampled_from(_DENOMINATORS)))
    return _grid_codebook(p, k, n, draw(st.integers(0, 3)), scale)


@st.composite
def codebook_pairs(draw):
    n = draw(st.integers(1, 3))
    return draw(small_codebooks(n)), draw(small_codebooks(n))


# Largest coordinate on_grid accepts. Sum columns then span up to about
# 2^64, and the product of their spans passes 2^63 already at n = 1, which
# sends the sums to the sorted build's wide path.
_COORD_MAX = 2**62 - 1


@st.composite
def wide_grids(draw, n):
    """PointGrid(1, coords) with repeated rows; each column sits anywhere
    in +-2^61 and spreads from one value to the whole range on_grid takes."""
    pools = []
    for _ in range(n):
        centre = draw(st.integers(-(2**61), 2**61))
        spread = draw(st.sampled_from((0, 1, 2**20, 2**62)))
        values = st.integers(max(-_COORD_MAX, centre - spread), min(_COORD_MAX, centre + spread))
        pools.append(draw(st.lists(values, min_size=1, max_size=3)))
    rows = draw(
        st.lists(st.tuples(*(st.sampled_from(pool) for pool in pools)), min_size=1, max_size=8)
    )
    return PointGrid(1, np.array(rows, dtype=np.int64))


@st.composite
def wide_grid_pairs(draw):
    n = draw(st.integers(1, 6))
    return draw(wide_grids(n)), draw(wide_grids(n))


class TestPairSumProperties:
    # Sums (2^62, -1) and (2^62, 0): keyed without the column minimum as
    # offset, 2^62 * 2 + col lands on the int64 wrap and reverses the rows.
    @example((PointGrid(1, [[2**61, -1], [2**61, 0]]), PointGrid(1, [[2**61, 0]])))
    @settings(max_examples=200)
    @given(wide_grid_pairs())
    def test_ids_and_order_on_wide_grids(self, pair):
        a, b = pair
        s = sum_structure(a, b, 10**6)
        rows = [tuple(r) for r in s.coords.tolist()]
        assert all(x < y for x, y in zip(rows, rows[1:]))
        assert s.unit == 1
        assert np.array_equal(np.unique(s.ids), np.arange(s.num_sums))
        assert np.array_equal(s.coords[s.ids], a.coords[:, None, :] + b.coords[None, :, :])

    @settings(max_examples=40)
    @given(codebook_pairs())
    def test_pair_sum_counts_match_oracle(self, pair):
        a, b = pair
        s = sum_structure(a, b, 10**6)
        points, counts = s.points, s.counts()
        assert list(points) == sorted(points)
        got = {pt: int(c) for pt, c in zip(points, counts)}
        assert got == oracles.pair_sum_histogram(a.points, b.points)

    @settings(max_examples=40)
    @given(codebook_pairs(), st.data())
    def test_weighted_sum_counts_match_oracle(self, pair, data):
        a, b = pair
        wa = data.draw(st.lists(st.integers(1, 3), min_size=len(a), max_size=len(a)))
        wb = data.draw(st.lists(st.integers(1, 3), min_size=len(b), max_size=len(b)))
        s = sum_structure(a, b, 10**6)
        points, counts = s.points, s.weighted_counts(wa, wb)
        # a point repeated w times carries weight w in the plain histogram
        rep_a = [pt for pt, w in zip(a.points, wa) for _ in range(w)]
        rep_b = [pt for pt, w in zip(b.points, wb) for _ in range(w)]
        got = {pt: int(c) for pt, c in zip(points, counts)}
        assert got == oracles.pair_sum_histogram(rep_a, rep_b)


def value_bins(rows):
    """One bin per distinct row: the indices of each value's copies. W is
    then a function of X1 that fixes X1's value, so I(W; S) = I(X1; S)."""
    members = {}
    for i, row in enumerate(rows):
        members.setdefault(tuple(row), []).append(i)
    return tuple(tuple(m) for m in members.values())


def unique_rows_structure(unit, ga, gb):
    """The pair sums of two grids on one unit by np.unique(axis=0) over all
    |a| * |b| sum rows: a reference no build of sum_structure shares."""
    sums = (ga[:, None, :] + gb[None, :, :]).reshape(-1, ga.shape[1])
    coords, ids, counts = np.unique(sums, axis=0, return_inverse=True, return_counts=True)
    return infotheory.SumStructure(
        unit, ids.reshape(len(ga), len(gb)), counts, ga.shape[1], lambda: coords
    )


class TestSortedBuild:
    """The sorted build's wide path, np.lexsort of each column's sums,
    takes key spaces past 2^63. Forced here on grids of any width, it is
    checked against the brute-force histogram and np.unique(axis=0)."""

    # one column: 2^63 + 1 sum keys
    @example(pair=(PointGrid(1, [[-(2**61)], [2**61]]),) * 2)
    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pair=wide_grid_pairs())
    def test_wide_sums_match_oracle(self, pair, path_calls):
        a, b = pair
        path_calls.clear()
        expected = oracles.pair_sum_histogram(a.points, b.points)
        key = infotheory._SumKey(a.coords, b.coords)
        wide = infotheory._sorted_structure(1, a.coords, b.coords, key, True)
        for s in (sum_structure(a, b, 10**6), wide):
            rows = [tuple(r) for r in s.coords.tolist()]
            assert all(x < y for x, y in zip(rows, rows[1:]))
            assert {pt: int(c) for pt, c in zip(s.points, s.counts())} == expected
            assert np.array_equal(s.coords[s.ids], a.coords[:, None, :] + b.coords[None, :, :])
        assert_same_structure(wide, unique_rows_structure(1, a.coords, b.coords))
        assert path_calls == ["wide", expected_path(a, b)]


class TestMutualInfoSum:
    def test_line_codebook_closed_form(self):
        for p in (2, 3, 5, 7):
            cb = enumerate_codebook(
                ConstructionALattice(p, ((1,),), None, 1)
            )
            assert mutual_info_sum(cb, 10**6) == pytest.approx(
                oracles.triangle_mi(p), abs=1e-12
            )

    def test_matches_generic_oracle(self):
        cb = seeded_codebook(2, 2, 2, seed=1)
        assert mutual_info_sum(cb, 10**6) == pytest.approx(
            oracles.mutual_info_sum_oracle(cb.points, cb.points), abs=1e-12
        )

    @pytest.mark.parametrize(
        "rows",
        [
            [[0], [0]],
            [[0], [0], [1]],
            [[0, 1], [2, 0], [0, 1], [0, 1], [1, 1]],
            [[0], [5], [5], [5]],
        ],
    )
    def test_repeated_rows_count_once_per_copy(self, rows):
        # H(X2) used to be log2 |C|: [[0], [0]] gave -1.0 and {0, 0, 1} -0.193
        points = PointGrid(1, rows)
        assert mutual_info_sum(points, 100) == pytest.approx(
            oracles.joint_leakage_oracle(value_bins(rows), points.points, points.points),
            abs=1e-12,
        )

    def test_one_repeated_point_leaks_nothing(self):
        twice = PointGrid(1, [[0], [0]])
        assert mutual_info_sum(twice, 100) == 0.0

    @settings(max_examples=60)
    @given(wide_grid_pairs())
    def test_repeated_wide_rows_match_oracle(self, pair):
        for points in pair:
            assert mutual_info_sum(points, 10**6) == pytest.approx(
                oracles.joint_leakage_oracle(
                    value_bins(points.coords.tolist()), points.points, points.points
                ),
                abs=1e-9,
            )

    def test_frozen_spot_values(self):
        two = enumerate_codebook(ConstructionALattice(2, ((1,),), None, 1))
        three = enumerate_codebook(ConstructionALattice(3, ((1,),), None, 1))
        assert mutual_info_sum(two, 100) == 0.5
        assert mutual_info_sum(three, 100) == pytest.approx(
            0.612197222702993, abs=1e-9
        )


def dense_table(binned, structure):
    """The (num_bins, num_sums) table of joint counts, as the reference."""
    cells = binned.bin_index[:, None] * structure.num_sums + structure.ids
    dense = np.bincount(cells.ravel(), minlength=binned.num_bins * structure.num_sums)
    return dense.reshape(binned.num_bins, structure.num_sums)


class TestBinnedLeakage:
    @pytest.mark.parametrize("p,k,n,bins,seed", [
        (2, 2, 2, 2, 0),
        (2, 3, 3, 4, 1),
        (3, 2, 2, 3, 0),
        (2, 4, 4, 4, 2),
        (5, 2, 2, 5, 0),
    ])
    def test_leakage_matches_joint_oracle(self, p, k, n, bins, seed):
        cb = seeded_codebook(p, k, n, seed=seed)
        binned = BinnedCodebook(cb, bins, seed=seed)
        leak = joint_bin_sum(binned, 10**6).mutual_info_bits()
        expected = oracles.joint_leakage_oracle(oracles.bins_of(binned), cb.points, cb.points)
        assert leak == pytest.approx(expected, abs=1e-9)

    def test_single_bin_leaks_nothing(self):
        cb = seeded_codebook(2, 3, 3)
        binned = BinnedCodebook(cb, 1)
        assert joint_bin_sum(binned, 10**6).mutual_info_bits() == 0.0

    def test_joint_structure_consistency(self):
        cb = seeded_codebook(3, 2, 2, seed=2)
        binned = BinnedCodebook(cb, 3, seed=1)
        joint = joint_bin_sum(binned, 10**6)
        structure = sum_structure(cb, cb, 10**6)
        dense = dense_table(binned, structure)
        # The occupied cells are the table's nonzero entries, in (bin, sum) order.
        assert np.array_equal(joint.cell_counts, dense[dense > 0])
        # Sum marginal equals the unbinned pair-sum histogram.
        assert np.array_equal(joint.sum_counts, structure.counts())
        assert np.array_equal(dense.sum(axis=0), structure.counts())
        assert joint.total == int(dense.sum()) == 81
        # Bins carry equal mass, so H(W) is log2(3).
        assert (dense.sum(axis=1) == 27).all()
        mi = joint.mutual_info_bits()
        total = joint.total
        assert mi == (
            math.log2(3)
            + entropy_from_counts(dense.sum(axis=0), total)
            - entropy_from_counts(dense.ravel(), total)
        )
        assert mi >= -1e-12

    def test_structure_reuse_gives_identical_joint(self):
        cb = seeded_codebook(2, 3, 3, seed=3)
        structure = sum_structure(cb, cb, 10**6)
        binned = BinnedCodebook(cb, 2, seed=0)
        a = joint_bin_sum(binned, 10**6)
        b = joint_bin_sum(binned, 10**6, structure=structure)
        dense = dense_table(binned, structure)
        assert np.array_equal(a.cell_counts, dense[dense > 0])
        assert np.array_equal(a.cell_counts, b.cell_counts)
        assert np.array_equal(a.sum_counts, b.sum_counts)
        assert a.mutual_info_bits() == b.mutual_info_bits()

    @pytest.mark.parametrize("other", [
        pytest.param(lambda cb: seeded_codebook(3, 3, 3), id="size"),
        pytest.param(lambda cb: seeded_codebook(3, 2, 4), id="dimension"),
        pytest.param(lambda cb: scale_to_power(cb, 1e-3), id="unit"),
    ])
    def test_structure_of_another_codebook_raises(self, other, coords_reads):
        # the p3 k2 n3 structures of the wrong size and dimension read
        # -1.1515 and 0.6868 bits where the leakage is 0.4547; the check
        # reads the structure's dimension, not its coords
        cb = seeded_codebook(3, 2, 3)
        binned = BinnedCodebook(cb, 3)
        assert joint_bin_sum(binned, 10**6).mutual_info_bits() == pytest.approx(0.4547, abs=1e-4)
        wrong = other(cb)
        with pytest.raises(DimensionMismatch, match="is not the pair sums of 9 codewords"):
            joint_bin_sum(binned, 10**6, structure=sum_structure(wrong, wrong, 10**6))
        assert coords_reads == []

    def test_full_binning_recovers_unbinned_mi(self):
        # One codeword per bin: W determines X1, so I(W;S) = I(X1;S).
        cb = seeded_codebook(3, 2, 2, seed=4)
        binned = BinnedCodebook(cb, len(cb), seed=0)
        assert joint_bin_sum(binned, 10**6).mutual_info_bits() == pytest.approx(
            mutual_info_sum(cb, 10**6), abs=1e-12
        )

    def test_leakage_monotone_in_bins(self):
        # Refining the partition cannot decrease the leaked information.
        cb = seeded_codebook(2, 4, 4, seed=5)
        leaks = []
        for bins in (1, 2, 4, 8, 16):
            binned = BinnedCodebook(cb, bins, seed=7)
            leaks.append(joint_bin_sum(binned, 10**6).mutual_info_bits())
        assert all(b >= a - 1e-12 for a, b in zip(leaks, leaks[1:]))


@functools.lru_cache(maxsize=None)
def standard_grid_builds():
    """(GridPoint, codebook, sum_structure(cb, cb)) for every standard-grid point."""
    out = []
    for point in standard_grid():
        cb = enumerate_codebook(point.build_lattice())
        out.append((point, cb, sum_structure(cb, cb, 10**6)))
    return tuple(out)


def general_structure(cb):
    """cb's pair sums by the sorted build, whatever sum_structure would
    take: one sort of all |C|^2 pairs, whose runs rank and count the sums
    apart from the keyed and carry builds."""
    key = infotheory._SumKey(cb.coords, cb.coords)
    wide = key.space > infotheory._KEY_LIMIT
    return infotheory._sorted_structure(cb.unit, cb.coords, cb.coords, key, wide)


def carry_structure(cb):
    """cb's pair sums by the carry path, whatever sum_structure would take."""
    return infotheory._carry_structure(cb, infotheory._SumKey(cb.coords, cb.coords))


def assert_same_structure(got, expected):
    assert got.unit == expected.unit
    assert np.array_equal(got.coords, expected.coords)
    assert np.array_equal(got.ids, expected.ids)
    assert got.ids.dtype == expected.ids.dtype
    assert np.array_equal(got.counts(), expected.counts())


def sum_key_space(a, b):
    """The number of additive sum keys of two grids, from their coordinates
    on one unit as Python ints: the product over columns of
    max_a + max_b - min_a - min_b + 1."""
    _, (ga, gb) = on_grid(a, b)
    cols_a, cols_b = zip(*ga.tolist()), zip(*gb.tolist())
    return math.prod(max(x) + max(y) - min(x) - min(y) + 1 for x, y in zip(cols_a, cols_b))


def expected_path(a, b):
    """The path sum_structure must take, by its rule on the key spaces."""
    pairs = len(a) * len(b)
    space = sum_key_space(a, b)
    if space >= 2**63:
        return "wide"
    if space <= 2 * pairs + 1024:
        return "dense"
    if a is b and isinstance(a, Codebook) and len(a) << a.n <= 8 * pairs + 1024:
        return "carry"
    return "sorted"


@pytest.fixture
def path_calls(monkeypatch):
    """The path each sum_structure call takes, in call order: the keyed
    build counting a countable key space ("dense"), the carry build
    ("carry"), or the sorted build by int64 keys ("sorted") or, past 2^63,
    by each column's sums ("wide")."""
    calls = []
    paths = {
        "_keyed_structure": lambda *args: "dense",
        "_carry_structure": lambda *args: "carry",
        "_sorted_structure": lambda *args: "wide" if args[-1] else "sorted",
    }
    for name, path_of in paths.items():
        def spy(*args, real=getattr(infotheory, name), path_of=path_of):
            calls.append(path_of(*args))
            return real(*args)

        monkeypatch.setattr(infotheory, name, spy)
    return calls


class TestCarryPath:
    """A grid summed with another is counted by one bincount over its
    additive sum keys where their space is small (the dense path), a
    Codebook summed with itself by codeword and carry bits where it is not
    (the carry path), any other key space within int64 by sorting the keys
    (the sorted path) and a wider one by sorting each column's sums (the
    wide path); all but the carry path take any grids. Every path must
    give the SumStructure the sorted build gives."""

    def test_standard_grid_matches_general_path(self):
        for point, cb, structure in standard_grid_builds():
            assert_same_structure(structure, general_structure(cb))

    def test_standard_grid_takes_the_carry_path(self, path_calls):
        # the carry path where the additive space is sparse, such as p7 k3
        # n6's 13^6 keys, and the dense path everywhere else
        for point, cb, _ in standard_grid_builds():
            sum_structure(cb, cb, 10**6)
            assert path_calls[-1] == expected_path(cb, cb)
        assert set(path_calls) == {"dense", "carry"}

    @pytest.mark.parametrize("p,k,n", [(2, 1, 1), (3, 1, 1), (7, 1, 1), (2, 1, 3), (2, 3, 3)])
    def test_one_dimension_and_binary_codes(self, p, k, n, path_calls):
        # p = 2 puts codewords at 0 and -1: the sum -2 is the carry of z_i = 0
        cb = seeded_codebook(p, k, n)
        s = sum_structure(cb, cb, 10**6)
        assert path_calls == ["dense"]
        general = general_structure(cb)
        for got in (s, carry_structure(cb)):
            assert_same_structure(got, general)
            hist = {pt: int(c) for pt, c in zip(got.points, got.counts())}
            assert hist == oracles.pair_sum_histogram(cb.points, cb.points)

    def test_power_scaled_codebook(self, path_calls):
        cb = seeded_codebook(3, 2, 3, scale=Fraction(7, 2))
        scaled = scale_to_power(cb, 1e-3)
        assert scaled.unit != cb.unit
        s = sum_structure(scaled, scaled, 10**6)
        assert path_calls[0] == "dense"
        assert s.unit == scaled.unit
        for got in (s, carry_structure(scaled)):
            assert_same_structure(got, general_structure(scaled))
        assert np.array_equal(s.ids, sum_structure(cb, cb, 10**6).ids)

    @settings(max_examples=30)
    @given(st.integers(1, 3).flatmap(small_codebooks))
    def test_any_scale_matches_general_path(self, cb):
        general = general_structure(cb)
        assert_same_structure(sum_structure(cb, cb, 10**6), general)
        assert_same_structure(carry_structure(cb), general)

    def test_reversed_rows_take_the_general_path(self, path_calls):
        cb = seeded_codebook(3, 2, 2, seed=1)
        reversed_rows = PointGrid(cb.unit, cb.coords[::-1])
        s = sum_structure(reversed_rows, reversed_rows, 10**6)
        assert path_calls == ["dense"]
        got = {pt: int(c) for pt, c in zip(s.points, s.counts())}
        assert got == oracles.pair_sum_histogram(reversed_rows.points, reversed_rows.points)
        assert np.array_equal(s.ids, sum_structure(cb, cb, 10**6).ids[::-1, ::-1])

    def test_two_codebooks_take_the_general_path(self, path_calls):
        cb = seeded_codebook(2, 2, 3, seed=2)
        twin = PointGrid(cb.unit, cb.coords)
        other = seeded_codebook(2, 2, 3, seed=3)
        for b in (twin, other):
            s = sum_structure(cb, b, 10**6)
            got = {pt: int(c) for pt, c in zip(s.points, s.counts())}
            assert got == oracles.pair_sum_histogram(cb.points, b.points)
        assert path_calls == ["dense", "dense"]

    def test_standard_grid_ids_are_compact_and_equal_the_sort_ids(self, path_calls):
        widths = set()
        checked = set()
        for point in standard_grid(draws=1):
            cb = enumerate_codebook(point.build_lattice())
            s = sum_structure(cb, cb, 10**6)
            path = path_calls[-1]
            general = general_structure(cb)
            assert_same_structure(s, general)
            assert s.ids.dtype == np.min_scalar_type(s.num_sums - 1)
            assert s.ids.dtype.kind == "u"
            widths.add(s.ids.dtype.itemsize)
            # the Fraction oracle on the codebooks it checks in well under a second
            if len(cb) <= 32:
                got = {pt: int(c) for pt, c in zip(s.points, s.counts())}
                assert got == oracles.pair_sum_histogram(cb.points, cb.points)
                checked.add(path)
        # num_sums reaches past 255 but stays within 65 536 on the grid
        assert widths == {1, 2}
        assert checked == {"dense", "carry"}

    def test_budget_text_is_unchanged(self):
        cb = seeded_codebook(5, 2, 2)
        with pytest.raises(BudgetExceeded, match=r"^25\*25 pair sums exceed budget 624$"):
            sum_structure(cb, cb, budget=624)

    def test_carry_path_past_int64_keys_ranks_by_rows(self, path_calls):
        # p = 127, k = 1, n = 10: 2^10 carry bits per codeword are within
        # 8 |C| + 1024 / |C|, but the additive space (about 253^10) passes
        # 2^63, where the carry path could not order its sums by an int64
        # key: the sorted build ranks the pair sums by np.lexsort of their
        # columns
        cb = seeded_codebook(127, 1, 10)
        assert sum_key_space(cb, cb) > 2**63
        assert len(cb) << cb.n <= 8 * len(cb) ** 2 + 1024
        s = sum_structure(cb, cb, 10**6)
        assert path_calls == ["wide"] == [expected_path(cb, cb)]
        assert_same_structure(s, unique_rows_structure(cb.unit, cb.coords, cb.coords))
        assert_same_structure(s, general_structure(cb))

    def test_mutual_info_is_the_carry_entropy_given_the_codeword(self):
        # z = x (+) y is uniform on C and the sum is (z, carry bits), so
        # I(X1; X1 + X2) = H(S) - log2|C| = H(bits | z). The carries here
        # come from the coordinates alone, not from the message digits.
        for point, cb, _ in standard_grid_builds():
            p, n, x = point.p, point.n, cb.coords
            s = x[:, None, :] + x[None, :, :]
            carry = (2 * s >= p) | (2 * s < -p)
            folded = s - p * np.where(2 * s >= p, 1, 0) + p * np.where(2 * s < -p, 1, 0)
            # each folded sum is a codeword: look its row up by base-p digits
            radix = p ** np.arange(n)
            row_of = np.full(p**n, -1)
            row_of[(x + p // 2) @ radix] = np.arange(len(cb))
            z = row_of[(folded + p // 2) @ radix]
            assert (z >= 0).all()
            keys = z * 2**n + carry @ (1 << np.arange(n))
            z_of_key, counts = np.unique(keys, return_counts=True)
            z_of_key //= 2**n
            h = sum(
                entropy_from_counts(counts[z_of_key == zi], len(cb)) for zi in range(len(cb))
            ) / len(cb)
            assert h == pytest.approx(mutual_info_sum(cb, 10**6), abs=1e-12)


@st.composite
def unit_grids(draw, n):
    """PointGrid(unit, coords) with repeated rows and narrow columns: small
    coordinates over a unit with a drawn denominator, or, over unit 1, each
    column shifted to anywhere within GRID_LIMIT."""
    rows = draw(
        st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=1, max_size=8)
    )
    if draw(st.booleans()):
        unit = Fraction(draw(st.integers(1, 6)), draw(st.sampled_from(_DENOMINATORS[:4])))
        return PointGrid(unit, rows)
    shifts = draw(st.lists(st.integers(-_COORD_MAX + 4, _COORD_MAX - 4), min_size=n, max_size=n))
    return PointGrid(1, np.array(rows, dtype=np.int64) + shifts)


@st.composite
def sum_key_pairs(draw):
    """Two grids of one dimension whose additive key space may or may not
    be countable: codebooks of any p (p = 2 too) and unit, narrow grids
    over mixed units or near GRID_LIMIT, wide grids whose space passes
    2^63, or one grid summed with itself."""
    n = draw(st.integers(1, 4))
    grids = st.one_of(small_codebooks(n), unit_grids(n), wide_grids(n))
    a = draw(grids)
    b = a if draw(st.booleans()) else draw(grids)
    return a, b


@pytest.fixture
def count_calls(monkeypatch):
    """The np.bincount and np.unique calls infotheory makes, by name."""
    calls = []

    class Numpy:
        """numpy as infotheory sees it, with its counting calls recorded."""

        def __getattr__(self, name):
            real = getattr(np, name)
            if name not in ("bincount", "unique"):
                return real

            def spy(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return spy

    monkeypatch.setattr(infotheory, "np", Numpy())
    return calls


class TestDenseSumKeys:
    """Each sum is keyed additively, key_a(x) + key_b(y), and all keys are
    counted with one bincount (the keyed build's dense path) or one sort
    (the sorted build); either must give np.unique(axis=0)'s structure
    whenever its rule takes it, with no int64 overflow, and leave key
    spaces past 2^63 to the sorted build's wide path."""

    @example(pair=(PointGrid(1, [[2**62 - 1, -(2**62) + 1]]),) * 2)
    @example(pair=(
        PointGrid(1, [[2**62 - 5, -(2**62) + 5], [2**62 - 4, -(2**62) + 7]]),
        PointGrid(1, [[-(2**62) + 3, 2**62 - 9], [-(2**62) + 4, 2**62 - 9]]),
    ))
    @example(pair=(PointGrid(1, [[2**62 - 1], [-(2**62) + 1]]), PointGrid(1, [[0]])))
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pair=sum_key_pairs())
    def test_dense_path_matches_the_sort_path(self, pair, path_calls):
        a, b = pair
        path_calls.clear()
        try:
            unit, (ga, gb) = on_grid(a, b)
        except BudgetExceeded:
            # mixed units put a wide grid past GRID_LIMIT
            with pytest.raises(BudgetExceeded):
                sum_structure(a, b, 10**6)
            return
        s = sum_structure(a, b, 10**6)
        assert path_calls == [expected_path(a, b)]
        assert_same_structure(s, unique_rows_structure(unit, ga, gb))

    @pytest.mark.parametrize("rows,path", [
        ([[0], [1027]], "dense"),
        ([[0], [1028]], "sorted"),
        ([[0, 0], [1, 513]], "dense"),
        ([[0, 0], [1, 514]], "sorted"),
        ([[-(2**61), 2**61], [-(2**61) + 1, 2**61 + 513]], "dense"),
    ])
    def test_threshold_is_two_keys_per_pair_and_1024(self, rows, path, path_calls, count_calls):
        # 2 pairs: the dense path counts key spaces of up to 2 * 2 + 1024 keys
        a, b = PointGrid(1, rows), PointGrid(1, [[0] * len(rows[0])])
        space = sum_key_space(a, b)
        assert (space <= 1028) == (path == "dense") and space in (1028, 1029, 1030)
        s = sum_structure(a, b, 10**6)
        assert path_calls == [path]
        # the dense path counts its keys with one bincount, the sorted path
        # by the runs of one sort, with neither bincount nor unique
        assert count_calls == {"dense": ["bincount"], "sorted": []}[path]
        assert_same_structure(s, unique_rows_structure(1, a.coords, b.coords))

    def test_pair_keys_take_the_narrowest_dtype_below_the_space(self, monkeypatch):
        seen = []

        class Add:
            @staticmethod
            def outer(x, y):
                out = np.add.outer(x, y)
                seen.append(out.dtype)
                return out

        class Numpy:
            """numpy as infotheory sees it, with np.add.outer recorded."""

            add = Add

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(infotheory, "np", Numpy())
        widths = ((255, np.uint8), (256, np.uint16), (65535, np.uint16), (65536, np.uint32))
        for top, dtype in widths:
            s = sum_structure(PointGrid(1, [[0], [top]]), PointGrid(1, [[0]] * 40000), 10**6)
            assert seen.pop() == dtype and s.num_sums == 2



@pytest.fixture
def coords_reads(monkeypatch):
    """Every SumStructure whose coords are formed, in order: the cached
    property is wrapped, so a structure is recorded on its first read only."""
    formed = []
    real = infotheory.SumStructure.coords.func

    def spy(self):
        formed.append(self)
        return real(self)

    spied = functools.cached_property(spy)
    spied.__set_name__(infotheory.SumStructure, "coords")
    monkeypatch.setattr(infotheory.SumStructure, "coords", spied)
    return formed


def _rng_grid(seed, rows, n, reach):
    rng = np.random.default_rng(seed)
    return PointGrid(1, rng.integers(-reach, reach, size=(rows, n)))


class TestCoordsOnDemand:
    """A structure keeps ids, counts, its dimension and its build's small
    array; its coords are formed on the first read, read-only, and are the
    distinct sums in lexicographic order, as every build stored them."""

    @pytest.mark.parametrize("pair,path", [
        pytest.param(lambda: (seeded_codebook(3, 3, 4),) * 2, "dense", id="keyed"),
        pytest.param(
            lambda: (PointGrid(Fraction(1, 3), [[0], [2], [5]]), seeded_codebook(2, 1, 1)),
            "dense", id="keyed-mixed-units",
        ),
        pytest.param(lambda: (seeded_codebook(5, 2, 4),) * 2, "carry", id="carry"),
        pytest.param(lambda: (seeded_codebook(7, 1, 3),) * 2, "carry", id="carry-k1"),
        pytest.param(
            lambda: (PointGrid(1, [[0, 0], [1000, 3], [5, 77777]]), PointGrid(1, [[0, 1], [-40, 9]])),
            "sorted", id="sorted",
        ),
        pytest.param(lambda: (_rng_grid(3, 6, 5, 2**40),) * 2, "wide", id="wide"),
        pytest.param(
            lambda: (_rng_grid(4, 7, 3, 2**61), _rng_grid(5, 4, 3, 2**61)), "wide", id="wide-two",
        ),
    ])
    def test_formed_coords_are_the_eager_coords(self, pair, path, path_calls, coords_reads):
        a, b = pair()
        s = sum_structure(a, b, 10**6)
        assert path_calls == [path]
        assert len(s) == s.num_sums == len(s.counts()) and s.n == a.coords.shape[1]
        assert coords_reads == [] and "coords" not in vars(s)
        # np.unique(axis=0)'s sorted rows, which every build stored eagerly
        unit, (ga, gb) = on_grid(a, b)
        eager = unique_rows_structure(unit, ga, gb).coords
        coords_reads.clear()
        coords = s.coords
        assert coords_reads == [s] and s.coords is coords
        assert coords.dtype == np.int64 and coords.flags.c_contiguous
        assert coords.shape == eager.shape and coords.tobytes() == eager.tobytes()
        assert not coords.flags.writeable
        with pytest.raises(ValueError):
            coords[0, 0] = 0
        # the oracle's sums, sorted, are the rows in order: the unit is positive
        hist = oracles.pair_sum_histogram(a.points, b.points)
        assert s.points == tuple(sorted(hist))
        assert s.counts().tolist() == [hist[key] for key in sorted(hist)]
        assert np.array_equal(coords[s.ids], ga[:, None, :] + gb[None, :, :])

    def test_grid_suites_never_form_coords(self, coords_reads):
        grid = standard_grid(draws=1)
        lemmas = run_lemma_suite(grid)
        theorems = experiments.run_theorem1_suite(grid, 0)
        assert len(lemmas) == len(grid) and len(theorems) == sum(g.k + 1 for g in grid)
        assert coords_reads == []
        # the spy sees a read
        _, s = experiments._build(grid[-1].lattice, grid[-1], 10**6)
        s.coords
        assert coords_reads == [s]

class TestBoundedCounting:
    """Pair keys and (bin, sum) cells are counted in steps of at most
    _CHUNK entries, so no pair-sized intp copy is made; a step boundary
    changes no count and no cell's order."""

    @pytest.mark.parametrize("size,space", [
        (1, 5), (7, 5), (8, 5), (9, 5), (16, 5), (17, 5), (19, 20), (20, 20), (25, 20),
    ])
    def test_chunked_key_counts_match_one_bincount(self, size, space, monkeypatch, count_calls):
        # steps of 8 keys, or of one key space where that is larger: the key
        # count is below, at and above a multiple of the step
        monkeypatch.setattr(infotheory, "_CHUNK", 8)
        keys = np.random.default_rng(size).integers(0, space, size=size).astype(np.uint8)
        counts = infotheory._count_keys(keys, space)
        assert np.array_equal(counts, np.bincount(keys, minlength=space))
        assert count_calls == ["bincount"] * -(-size // max(8, space))

    @pytest.mark.parametrize("bins", [3, 4, 5])
    def test_chunked_cells_match_one_group(self, bins, monkeypatch):
        # rows of 2 members x 3 ids = 6 entries, two rows a group: the bin
        # count is below, at and above a multiple of the group
        rng = np.random.default_rng(bins)
        ids = rng.integers(0, 6, size=(2 * bins, 3)).astype(np.uint8)
        members = rng.permutation(2 * bins).reshape(bins, 2)
        table = ids[members].reshape(bins, 6)
        expected = np.concatenate([np.unique(row, return_counts=True)[1] for row in table])
        monkeypatch.setattr(infotheory, "_CHUNK", 12)
        chunked = (infotheory._bincount_cells(ids, members, 6), infotheory._sorted_cells(ids, members))
        monkeypatch.setattr(infotheory, "_CHUNK", 1 << 30)
        whole = (infotheory._bincount_cells(ids, members, 6), infotheory._sorted_cells(ids, members))
        for cells in chunked + whole:
            assert cells.dtype == np.uint8 and np.array_equal(cells, expected)

    def test_lemma_then_theorem_peak_is_a_few_pair_tables(self):
        # one p7 k3 n6 build (117 649 pairs, 10 177 sums): the carry
        # build's (num_sums, n) ordering temporaries dominate, 7.5 ids
        # tables here, where eager coords and pair-sized intp copies took
        # 11.4
        point = GridPoint(7, 3, 6, 4)
        point.lattice
        tracemalloc.start()
        try:
            run_lemma_suite([point])
            experiments.run_theorem1_suite([point], 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _, s = experiments._build(point.lattice, point, 10**6)
        assert s.ids.nbytes == 2 * 343**2 and "coords" not in vars(s)
        assert peak < 9 * s.ids.nbytes


def _cell_path(binned, structure):
    """The path joint_bin_sum must take, by its rule on the input sizes;
    "dense" counts each bin by np.bincount over its num_sums cells."""
    if binned.num_bins == 1:
        return "one bin"
    if binned.num_bins == len(binned.codebook) and isinstance(binned.codebook, Codebook):
        return "one codeword per bin"
    if binned.num_bins * structure.num_sums <= structure.ids.size:
        return "dense"
    return "sorted"


@pytest.fixture
def cell_calls(monkeypatch):
    """The cell counter each joint_bin_sum call runs, in call order."""
    calls = []
    for name, path in (("_bincount_cells", "dense"), ("_sorted_cells", "sorted")):
        def spy(*args, real=getattr(infotheory, name), path=path):
            calls.append(path)
            return real(*args)

        monkeypatch.setattr(infotheory, name, spy)
    return calls


def counted_joint(binned, structure, cell_calls):
    """joint_bin_sum over a kept structure, and the path it took: the cell
    counter it ran, else the closed form its cells show."""
    before = len(cell_calls)
    joint = joint_bin_sum(binned, 10**6, structure=structure)
    if len(cell_calls) > before:
        assert len(cell_calls) == before + 1
        return joint, cell_calls[-1]
    if joint.cell_counts is None:
        return joint, "one codeword per bin"
    assert joint.cell_counts is joint.sum_counts
    return joint, "one bin"


def oracle_cells(binned):
    """The occupied cells by direct joint enumeration, in (bin, sum) order:
    the unit is positive, so sorted (bin, sum point) keys are that order."""
    cb = binned.codebook
    expected = oracles.joint_counts_oracle(oracles.bins_of(binned), cb.points, cb.points)
    return [expected[key] for key in sorted(expected)]


def sorted_joint(binned, structure):
    """JointBinSumDist with every (bin, sum) cell counted by np.unique."""
    cells = binned.bin_index[:, None] * structure.num_sums + structure.ids
    _, cell_counts = np.unique(cells, return_counts=True)
    return JointBinSumDist(binned.num_bins, structure.counts(), cell_counts)


@st.composite
def binned_rows(draw):
    """A (rows, row length) id table in a narrow unsigned dtype, whose rows
    share values, so that runs meet at row starts."""
    dtype = draw(st.sampled_from((np.uint8, np.uint16)))
    rows, width = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    values = draw(st.lists(st.integers(0, 4), min_size=rows * width, max_size=rows * width))
    return np.array(values, dtype=dtype).reshape(rows, width)


class TestBinnedCellPaths:
    def test_standard_grid_paths_match_sorted_cells(self, cell_calls):
        # theorem-1's binnings: p^0 .. p^k bins, bin_seed 0
        seen = set()
        for point, cb, structure in standard_grid_builds():
            for j in range(point.k + 1):
                binned = BinnedCodebook(cb, point.p**j, 0)
                joint, path = counted_joint(binned, structure, cell_calls)
                assert path == _cell_path(binned, structure)
                seen.add(path)
                if joint.cell_counts is not None:
                    dense = dense_table(binned, structure)
                    assert np.array_equal(joint.cell_counts, dense[dense > 0])
                assert joint.mutual_info_bits() == sorted_joint(binned, structure).mutual_info_bits()
        # the grid has binnings on both sides of num_bins * num_sums = |C|^2
        assert seen == {"one bin", "one codeword per bin", "dense", "sorted"}

    def test_wide_binnings_take_the_sorted_path(self, cell_calls):
        cb = seeded_codebook(2, 6, 10)
        structure = sum_structure(cb, cb, 10**6)
        binned = BinnedCodebook(cb, 32, seed=0)
        assert _cell_path(binned, structure) == "sorted"
        joint, taken = counted_joint(binned, structure, cell_calls)
        assert taken == "sorted"
        reference = sorted_joint(binned, structure)
        assert np.array_equal(joint.cell_counts, reference.cell_counts)
        assert joint.mutual_info_bits() == reference.mutual_info_bits()

    @settings(max_examples=200)
    @given(binned_rows())
    def test_cell_counters_count_each_row(self, by_bin):
        # per row, the occupied values' counts in value order, rows in order;
        # one member per bin, so row w of the table is by_bin[w]
        expected = np.concatenate([np.unique(row, return_counts=True)[1] for row in by_bin])
        num_sums = int(by_bin.max()) + 1
        members = np.arange(len(by_bin))[:, None]
        assert np.array_equal(infotheory._bincount_cells(by_bin, members, num_sums), expected)
        assert np.array_equal(infotheory._sorted_cells(by_bin, members), expected)

    @pytest.mark.parametrize("p,k,n,seed,bins,path", [
        (3, 3, 3, 1, 3, "dense"), (3, 3, 3, 1, 9, "sorted"), (2, 4, 4, 2, 4, "sorted"),
        (2, 6, 10, 0, 32, "sorted"), (2, 4, 4, 2, 2, "dense"), (2, 4, 4, 2, 8, "sorted"),
    ])
    def test_cell_counts_match_the_joint_oracle(self, p, k, n, seed, bins, path, cell_calls):
        cb = seeded_codebook(p, k, n, seed=seed)
        structure = sum_structure(cb, cb, 10**6)
        binned = BinnedCodebook(cb, bins, seed=0)
        assert _cell_path(binned, structure) == path
        joint, taken = counted_joint(binned, structure, cell_calls)
        assert taken == path
        dense = dense_table(binned, structure)
        assert np.array_equal(joint.cell_counts, dense[dense > 0])
        assert joint.cell_counts.tolist() == oracle_cells(binned)
        assert joint.cell_counts.dtype == np.min_scalar_type(len(cb) ** 2 // bins)
        assert joint.mutual_info_bits() == pytest.approx(
            oracles.joint_leakage_oracle(oracles.bins_of(binned), cb.points, cb.points), abs=1e-12
        )

    @pytest.mark.parametrize("bins,path", [
        (1, "one bin"), (27, "one codeword per bin"), (3, "dense"), (9, "sorted"),
    ])
    def test_each_path_matches_reference_and_oracle(self, bins, path, cell_calls):
        cb = seeded_codebook(3, 3, 3, seed=1)
        structure = sum_structure(cb, cb, 10**6)
        binned = BinnedCodebook(cb, bins, seed=0)
        assert _cell_path(binned, structure) == path
        joint, taken = counted_joint(binned, structure, cell_calls)
        assert taken == path
        dense = dense_table(binned, structure)
        if joint.cell_counts is None:
            assert (dense[dense > 0] == 1).all()
        else:
            assert np.array_equal(joint.cell_counts, dense[dense > 0])
            assert joint.cell_counts.tolist() == oracle_cells(binned)
        leak = joint.mutual_info_bits()
        assert leak == sorted_joint(binned, structure).mutual_info_bits()
        assert leak == joint_bin_sum(binned, 10**6).mutual_info_bits()
        expected = oracles.joint_leakage_oracle(oracles.bins_of(binned), cb.points, cb.points)
        assert leak == pytest.approx(expected, abs=1e-12)
        if path == "one bin":
            assert leak == 0.0

    @pytest.mark.parametrize("bins,path", [(2, "dense"), (5, "dense"), (10, "sorted")])
    def test_repeated_rows_take_both_counters(self, bins, path, cell_calls):
        # five points with distinct pair sums, each twice: a PointGrid, so
        # one row per bin still counts its cells
        grid = PointGrid(1, np.repeat([[0], [1], [3], [7], [15]], 2, axis=0))
        structure = sum_structure(grid, grid, 10**6)
        binned = BinnedCodebook(grid, bins, seed=4)
        assert _cell_path(binned, structure) == path
        joint, taken = counted_joint(binned, structure, cell_calls)
        assert taken == path
        dense = dense_table(binned, structure)
        assert np.array_equal(joint.cell_counts, dense[dense > 0])
        assert joint.cell_counts.tolist() == oracle_cells(binned)

    @pytest.mark.parametrize("seed", range(3))
    def test_a_run_across_a_bin_boundary_is_split(self, seed, cell_calls):
        # bins {0}, {3}, {1} of the line {0, 1, 3}: bin 0's largest sum 3 is
        # bin 1's least, so the sorted rows hold one run of 3 across the
        # row start, which must count as two cells
        values = np.array([[0], [3], [1]])
        bin_index = BinnedCodebook(PointGrid(1, values), 3, seed).bin_index
        grid = PointGrid(1, values[bin_index])
        structure = sum_structure(grid, grid, 10**6)
        binned = BinnedCodebook(grid, 3, seed)
        joint, taken = counted_joint(binned, structure, cell_calls)
        assert taken == "sorted"
        assert joint.cell_counts.tolist() == oracle_cells(binned) == [1] * 9

    def test_closed_forms_need_the_binned_codebook_itself(self):
        # one codeword per bin of rows that are not a Codebook counts its cells
        cb = seeded_codebook(2, 2, 2)
        for rows in (cb.coords, cb.coords[::-1]):
            joint = joint_bin_sum(BinnedCodebook(PointGrid(cb.unit, rows), 4), 10**6)
            assert joint.cell_counts is not None
            assert joint.mutual_info_bits() == pytest.approx(
                joint_bin_sum(BinnedCodebook(cb, 4), 10**6).mutual_info_bits(), abs=1e-12
            )
        doubled = PointGrid(cb.unit, np.repeat(cb.coords[:2], 2, axis=0))
        joint = joint_bin_sum(BinnedCodebook(doubled, 4), 10**6)
        assert joint.cell_counts is not None and joint.cell_counts.max() == 2
        leak = joint.mutual_info_bits()
        expected = oracles.joint_leakage_oracle(
            tuple((i,) for i in range(4)), doubled.points, doubled.points
        )
        assert leak == pytest.approx(expected, abs=1e-12)


class TestSumCountsOnce:
    """A structure's pair counts come from its carry keys, and H(S) is
    formed once and shared by the lemma and every binning."""

    def test_carry_counts_are_the_pair_table_counts(self):
        for point in standard_grid(draws=8):
            cb = enumerate_codebook(point.build_lattice())
            s = sum_structure(cb, cb, 10**6)
            counts = s.counts()
            assert counts.dtype == np.int64 and not counts.flags.writeable
            assert np.array_equal(counts, np.bincount(s.ids.ravel(), minlength=s.num_sums))

    def test_lemma_entropy_is_the_pair_table_entropy(self):
        grid = standard_grid(draws=2)
        for point, lemma in zip(grid, run_lemma_suite(grid)):
            cb, s = experiments._build(point.lattice, point, 10**6)
            h = entropy_from_counts(np.bincount(s.ids.ravel()), len(cb) ** 2)
            assert lemma.entropy_bits == h == s.entropy_bits
            assert s.entropy_bits is s.entropy_bits

    def test_binnings_share_the_structure_entropy(self, monkeypatch):
        cb = seeded_codebook(3, 3, 3, seed=1)
        structure = sum_structure(cb, cb, 10**6)
        h = structure.entropy_bits
        evaluated = []
        real = infotheory.entropy_from_counts

        def spy(counts, total=None):
            evaluated.append(counts)
            return real(counts, total)

        monkeypatch.setattr(infotheory, "entropy_from_counts", spy)
        leaks = [
            joint_bin_sum(BinnedCodebook(cb, bins, 0), 10**6, structure=structure).mutual_info_bits()
            for bins in (1, 3, 9, 27)
        ]
        # only the two counted binnings evaluate an entropy: their cells
        assert len(evaluated) == 2
        assert all(c is not structure.counts() for c in evaluated)
        assert leaks[0] == 0.0
        assert leaks[3] == math.log2(27) + h - math.log2(27 * 27)
