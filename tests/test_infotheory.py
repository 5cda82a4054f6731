"""Exact count arithmetic: pair sums, entropies, binned leakage."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latsec import (
    BinnedCodebook,
    BudgetExceeded,
    ConstructionALattice,
    entropy_from_counts,
    enumerate_codebook,
    joint_bin_sum,
    mutual_info_sum,
    random_code_matrix,
    random_unimodular,
    sum_structure,
)

import oracles


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
        s = sum_structure(a, b, 100)
        points, counts = s.points, s.counts()
        hist = oracles.pair_sum_histogram(a, b)
        assert {pt: int(c) for pt, c in zip(points, counts)} == hist

    def test_coordinates_past_int64_bound_raise(self):
        for big in ((Fraction(2**62),), (Fraction(1),)), ((Fraction(1, 2**62),), (Fraction(1),)):
            with pytest.raises(BudgetExceeded):
                sum_structure(big, [(Fraction(0),)], 10)
        fits = ((Fraction(2**62 - 1),), (Fraction(1),))
        assert sum_structure(fits, [(Fraction(0),)], 10).num_sums == 2

    def test_budget(self):
        cb = seeded_codebook(5, 2, 2)
        with pytest.raises(BudgetExceeded):
            sum_structure(cb, cb, budget=624)

    def test_weighted_sums_match_oracle(self):
        a = [(Fraction(0),), (Fraction(-1, 2),)]
        ca = np.array([2, 3], dtype=np.int64)
        b = [(Fraction(0),), (Fraction(1, 2),), (Fraction(1),)]
        cb_counts = np.array([1, 4, 2], dtype=np.int64)
        s = sum_structure(a, b, 100)
        points, counts = s.points, s.weighted_counts(ca, cb_counts)
        expected = {}
        for x, wx in zip(a, ca):
            for y, wy in zip(b, cb_counts):
                key = (x[0] + y[0],)
                expected[key] = expected.get(key, 0) + int(wx) * int(wy)
        assert {tuple(p): int(c) for p, c in zip(points, counts)} == expected
        assert int(counts.sum()) == 5 * 7


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


class TestPairSumProperties:
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


class TestMutualInfoSum:
    def test_line_codebook_closed_form(self):
        for p in (2, 3, 5, 7):
            cb = enumerate_codebook(
                ConstructionALattice(p, ((1,),), None, 1)
            )
            assert mutual_info_sum(cb, cb, 10**6) == pytest.approx(
                oracles.triangle_mi(p), abs=1e-12
            )

    def test_matches_generic_oracle(self):
        cb = seeded_codebook(2, 2, 2, seed=1)
        other = seeded_codebook(2, 2, 2, seed=1)
        assert mutual_info_sum(cb, other, 10**6) == pytest.approx(
            oracles.mutual_info_sum_oracle(cb.points, other.points), abs=1e-12
        )

    def test_frozen_spot_values(self):
        two = enumerate_codebook(ConstructionALattice(2, ((1,),), None, 1))
        three = enumerate_codebook(ConstructionALattice(3, ((1,),), None, 1))
        assert mutual_info_sum(two, two, 100) == 0.5
        assert mutual_info_sum(three, three, 100) == pytest.approx(
            0.612197222702993, abs=1e-9
        )


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
        leak = joint_bin_sum(binned, cb, 10**6).mutual_info_bits()
        expected = oracles.joint_leakage_oracle(binned.bins, cb.points, cb.points)
        assert leak == pytest.approx(expected, abs=1e-9)

    def test_single_bin_leaks_nothing(self):
        cb = seeded_codebook(2, 3, 3)
        binned = BinnedCodebook(cb, 1)
        assert joint_bin_sum(binned, cb, 10**6).mutual_info_bits() == 0.0

    def test_joint_structure_consistency(self):
        cb = seeded_codebook(3, 2, 2, seed=2)
        binned = BinnedCodebook(cb, 3, seed=1)
        joint = joint_bin_sum(binned, cb, 10**6)
        structure = sum_structure(cb, cb, 10**6)
        # Sum marginal equals the unbinned pair-sum histogram.
        assert np.array_equal(joint.sum_marginal_counts(), structure.counts())
        # Bins are equal-probability by construction.
        assert joint.bin_entropy_bits() == math.log2(3)
        # Chain rule: the two orders of conditioning agree.
        mi = joint.mutual_info_bits()
        alt = (
            joint.bin_entropy_bits()
            + joint.sum_entropy_bits()
            - joint.joint_entropy_bits()
        )
        assert mi == alt
        assert mi >= -1e-12

    def test_structure_reuse_gives_identical_joint(self):
        cb = seeded_codebook(2, 3, 3, seed=3)
        structure = sum_structure(cb, cb, 10**6)
        binned = BinnedCodebook(cb, 2, seed=0)
        a = joint_bin_sum(binned, cb, 10**6)
        b = joint_bin_sum(binned, cb, 10**6, structure=structure)
        assert np.array_equal(a.counts, b.counts)

    def test_full_binning_recovers_unbinned_mi(self):
        # One codeword per bin: W determines X1, so I(W;S) = I(X1;S).
        cb = seeded_codebook(3, 2, 2, seed=4)
        binned = BinnedCodebook(cb, len(cb), seed=0)
        assert joint_bin_sum(binned, cb, 10**6).mutual_info_bits() == pytest.approx(
            mutual_info_sum(cb, cb, 10**6), abs=1e-12
        )

    def test_leakage_monotone_in_bins(self):
        # Refining the partition cannot decrease the leaked information.
        cb = seeded_codebook(2, 4, 4, seed=5)
        leaks = []
        for bins in (1, 2, 4, 8, 16):
            binned = BinnedCodebook(cb, bins, seed=7)
            leaks.append(joint_bin_sum(binned, cb, 10**6).mutual_info_bits())
        assert all(b >= a - 1e-12 for a, b in zip(leaks, leaks[1:]))
