"""Codebook enumeration, sums, power scaling, binning, and layering."""

import math
from fractions import Fraction

import numpy as np
import pytest

from latsec import (
    BinnedCodebook,
    BudgetExceeded,
    Codebook,
    ConstructionALattice,
    DimensionMismatch,
    EmptyCodebook,
    LayerNotNested,
    LayeredCodebook,
    NonDivisibleBins,
    PointGrid,
    ValidationError,
    build_layered,
    dither_rows,
    enumerate_codebook,
    random_code_matrix,
    random_unimodular,
    scale_to_power,
    standard_grid,
    sum_structure,
)

from latsec import lattices

import oracles
from exact_rows import grid


def small_lattice(p=2, k=1, n=1, scale=1):
    g = tuple((1,) for _ in range(n)) if k == 1 else random_code_matrix(p, k, n, [p, k, n, 2])
    return ConstructionALattice(p, g, None, scale)


class TestEnumeration:
    def test_message_order_and_size(self):
        lat = ConstructionALattice(3, ((1,), (2,)), None, 1)
        cb = enumerate_codebook(lat)
        assert len(cb) == 3
        assert cb.points[0] == (0, 0)
        unit = lat.scale / lat.p
        assert cb.points[1] == tuple(unit * int(v) for v in lat.message_coords(1))

    def test_points_distinct_and_folded(self):
        lat = ConstructionALattice(5, ((1, 0), (0, 1), (3, 2)), None, Fraction(1, 2))
        cb = enumerate_codebook(lat)
        assert len(set(cb.points)) == 25
        assert lat.mod_coarse(cb).points == cb.points

    def test_coords_are_folded_codewords_on_standard_grid(self):
        # Codeword m is T G z mod p for the base-p digits z of m, each entry
        # folded into [-p/2, p/2), in units of scale / p.
        for gp in standard_grid(draws=1):
            lat = gp.build_lattice(Fraction(3, 7))
            cb = enumerate_codebook(lat)
            p, k, n = lat.p, lat.k, lat.n
            g, t = lat.code_matrix, lat.transform
            assert cb.unit == lat.scale / p
            for m in range(lat.num_cosets):
                z = [(m // p**i) % p for i in range(k)]
                gz = [sum(g[r][j] * z[j] for j in range(k)) for r in range(n)]
                c = [sum(t[i][r] * gz[r] for r in range(n)) % p for i in range(n)]
                assert cb.coords[m].tolist() == [v - p if 2 * v >= p else v for v in c]

    def test_floats_are_correctly_rounded(self):
        # At this unit, 3 * float(unit) is one ulp off the rounded 3 * unit.
        lat = ConstructionALattice(7, ((1,), (3,)), None, Fraction(10, 2**45 + 4))
        cb = enumerate_codebook(lat)
        expected = [[float(c) for c in pt] for pt in cb.points]
        assert cb.float_matrix().tolist() == expected

    def test_budget(self):
        lat = ConstructionALattice(7, ((1, 0), (0, 1)), None, 1)
        with pytest.raises(BudgetExceeded):
            enumerate_codebook(lat, budget=48)

    def test_average_power_exact(self):
        cb = enumerate_codebook(small_lattice())
        # Points {0, -1/2}: mean squared coordinate (0 + 1/4) / 2.
        assert cb.average_power == Fraction(1, 8)
        assert cb.rate_per_dim == 1.0

    def test_codebook_is_its_lattices_coset_code(self):
        # rank k >= 1 puts a nonzero codeword in every codebook, so every
        # codebook can be power scaled
        for gp in standard_grid(draws=1):
            lat = gp.build_lattice(Fraction(5, 3))
            cb = Codebook(lat)
            assert cb.unit == lat.scale / lat.p and cb.n == lat.n
            assert np.array_equal(cb.coords, lat.message_coords(np.arange(lat.num_cosets)))
            assert np.array_equal(enumerate_codebook(lat).coords, cb.coords)
            assert cb.coords.any()
            scaled = scale_to_power(cb, 1e-3)
            assert type(scaled) is Codebook
            assert np.array_equal(scaled.coords, cb.coords)


class TestPeak:
    """A codebook's peak is p // 2, set by the construction: its
    coordinates lie in [-p/2, p/2). An exact fold's peak is P // 2 over
    scale / P, P = p b. Neither may fall below a scan of the coordinates."""

    UNITS = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(5, 2), Fraction(7, 6))

    def test_standard_grid_codebooks(self):
        points = standard_grid(coset_limit=64, draws=1)
        assert len(points) == 58
        for gp in points:
            cb = enumerate_codebook(gp.lattice)
            p = gp.p
            assert cb._bound == cb.peak == p // 2
            # a nonzero code reaches every residue in some coordinate
            assert cb.peak == lattices._peak(cb.coords)
            scaled = scale_to_power(cb, 1e-3)
            assert scaled.peak == lattices._peak(scaled.coords) == p // 2

    def test_folds_of_standard_grid_codebooks(self):
        # each codebook's rows, times 3 and moved by one step, and a ramp
        # through a whole coarse cell, over units that make b = 1 to 6
        for gp in standard_grid(coset_limit=64, draws=1):
            lat = gp.lattice
            cb = enumerate_codebook(lat)
            assert lat.mod_coarse(cb).peak == cb.peak
            for ratio in self.UNITS:
                step = lat.p * ratio.denominator
                ramp = np.repeat(np.arange(-step, step + 1)[:, None], lat.n, axis=1)
                x = PointGrid(cb.unit * ratio, np.vstack([3 * cb.coords + 1, ramp]))
                folded = lat.mod_coarse(x)
                assert folded.unit == cb.unit / ratio.denominator
                assert folded._bound == folded.peak == step // 2
                assert folded.peak >= lattices._peak(folded.coords)
                if ratio.numerator == 1:
                    # the ramp meets every residue, so the bound is reached
                    assert folded.peak == lattices._peak(folded.coords)


class TestMinkowskiSum:
    def test_hand_example(self):
        a = PointGrid(Fraction(1, 2), [[0], [-1]])
        s = sum_structure(a, a, budget=10).points
        assert s == ((Fraction(-1),), (Fraction(-1, 2),), (Fraction(0),))

    def test_matches_oracle_histogram_support(self):
        lat = ConstructionALattice(3, ((1,), (2,)), ((1, 1), (0, 1)), Fraction(3, 2))
        cb = enumerate_codebook(lat)
        s = sum_structure(cb, cb).points
        hist = oracles.pair_sum_histogram(cb.points, cb.points)
        assert set(s) == set(hist)

    def test_large_denominator_matches_oracle(self):
        # A 2^-31 coordinate puts both sets on a fine common grid.
        huge = Fraction(1, 2**31)
        a = [(Fraction(0),), (huge,)]
        b = [(Fraction(0),), (Fraction(1, 2),)]
        s = sum_structure(grid(a), grid(b), budget=10).points
        assert set(s) == set(oracles.pair_sum_histogram(a, b))

    def test_budget_and_dimension_errors(self):
        a = PointGrid(1, [[0]])
        with pytest.raises(DimensionMismatch):
            sum_structure(a, PointGrid(1, [[0, 0]]), budget=10)
        with pytest.raises(BudgetExceeded):
            sum_structure(PointGrid(1, [[0], [1]]), PointGrid(1, [[0], [1]]), budget=3)
        with pytest.raises(EmptyCodebook):
            sum_structure(PointGrid(1, np.zeros((0, 1))), a, budget=10)

    def test_sum_bound_report(self):
        cb = enumerate_codebook(small_lattice())
        sum_size = sum_structure(cb, cb).num_sums
        assert len(cb) == 2
        assert sum_size == 3
        assert sum_size <= 2**cb.n * len(cb) == 4


class TestPowerScaling:
    def test_dither_power_is_the_exact_cell_moment(self):
        # Monte Carlo cross-check of scale^2 / 12 through a non-identity T:
        # the mean of |dither|^2 / n lies within 5 standard errors of it.
        t = ((1, 1, 0), (0, 1, 0), (1, 1, 1))
        for scale in (Fraction(1), Fraction(5, 3)):
            lat = ConstructionALattice(3, ((1,), (2,), (0,)), t, scale)
            rng = np.random.default_rng([scale.numerator, 17])
            draws = dither_rows(lat, rng.random((20_000, lat.n)))
            per_draw = (draws**2).sum(axis=1) / lat.n
            stderr = per_draw.std(ddof=1) / math.sqrt(len(per_draw))
            assert abs(per_draw.mean() - float(scale**2 / 12)) < 5 * stderr

    def test_scaling_meets_budget_from_above(self):
        # A binding budget P gets the largest ratio r on the 2^-40 grid
        # with r^2 * scale^2 / 12 <= P.
        lat = small_lattice(scale=4)
        cb = enumerate_codebook(lat)
        moment = lat.scale**2 / 12
        step = Fraction(1, 2**40)
        for power in (0.01, 1.0, 1 / 3):
            target = Fraction(power)
            assert target < moment
            scaled = scale_to_power(cb, power)
            ratio = scaled.lattice.scale / lat.scale
            assert (ratio / step).denominator == 1
            assert scaled.lattice.scale**2 / 12 <= target
            assert (ratio + step) ** 2 * moment > target
            # The rescale maps the whole nested pair; codeword ratios survive.
            for before, after in zip(cb.points, scaled.points):
                assert tuple(ratio * c for c in before) == after

    def test_already_within_budget_returns_same_object(self):
        cb = enumerate_codebook(small_lattice())
        assert scale_to_power(cb, 100.0) is cb
        assert scale_to_power(cb, math.inf) is cb

    def test_power_validation(self):
        cb = enumerate_codebook(small_lattice())
        with pytest.raises(ValidationError) as err:
            scale_to_power(cb, 0.0)
        assert err.value.field == "power"
        with pytest.raises(ValidationError):
            scale_to_power(cb, float("nan"))
        with pytest.raises(ValidationError):
            scale_to_power(cb, -2.0)

    def test_power_below_the_ratio_resolution_rejected(self):
        # The ratio lives on the 2^-40 grid, so the least reachable power is
        # scale^2 / 12 * 2^-80; below it the ratio would floor to 0.
        lat = small_lattice(scale=4)
        cb = enumerate_codebook(lat)
        least = float(lat.scale**2 / 12 / 2**80)
        scaled = scale_to_power(cb, least * 1.01)
        assert scaled.lattice.scale == lat.scale / 2**40
        for power in (least * 0.99, 1e-30, 5e-324):
            with pytest.raises(ValidationError, match="2\\^-40") as err:
                scale_to_power(cb, power)
            assert err.value.field == "power"

    @pytest.mark.parametrize("scale", [10**300, Fraction(10**5000, 3)])
    def test_unreachable_power_at_a_huge_scale_rejected(self, scale):
        # the least reachable power, scale^2 / 12 * 2^-80, is past the
        # largest float; formatting it used to raise OverflowError
        cb = enumerate_codebook(ConstructionALattice(2, ((1,),), None, scale))
        with pytest.raises(ValidationError, match="is below [0-9.]+e\\+[0-9]+, the least") as err:
            scale_to_power(cb, 1.0)
        assert err.value.field == "power"


class TestBinning:
    def test_bins_partition_evenly(self):
        lat = ConstructionALattice(2, random_code_matrix(2, 4, 4, [41]), None, 1)
        cb = enumerate_codebook(lat)
        binned = BinnedCodebook(cb, 4, seed=3)
        assert binned.bin_index.shape == (16,)
        assert ((binned.bin_index >= 0) & (binned.bin_index < 4)).all()
        bins = oracles.bins_of(binned)
        assert sorted(i for b in bins for i in b) == list(range(16))
        assert all(len(b) == 4 for b in bins)

    def test_seed_changes_assignment_deterministically(self):
        lat = ConstructionALattice(2, random_code_matrix(2, 3, 3, [42]), None, 1)
        cb = enumerate_codebook(lat)
        b0 = BinnedCodebook(cb, 2, seed=0)
        b0_again = BinnedCodebook(cb, 2, seed=0)
        b1 = BinnedCodebook(cb, 2, seed=1)
        assert oracles.bins_of(b0) == oracles.bins_of(b0_again)
        assert oracles.bins_of(b0) != oracles.bins_of(b1)

    def test_rates(self):
        lat = ConstructionALattice(2, random_code_matrix(2, 4, 4, [43]), None, 1)
        binned = BinnedCodebook(enumerate_codebook(lat), 4)
        assert binned.rate_per_dim == 1.0
        assert binned.bin_rate_per_dim == 0.5

    def test_bin_errors(self):
        cb = enumerate_codebook(
            ConstructionALattice(2, random_code_matrix(2, 4, 4, [44]), None, 1)
        )
        with pytest.raises(NonDivisibleBins):
            BinnedCodebook(cb, 3)
        with pytest.raises(ValidationError):
            BinnedCodebook(cb, 0)
        with pytest.raises(ValidationError):
            BinnedCodebook(cb, 17)

    def test_single_bin(self):
        cb = enumerate_codebook(small_lattice())
        binned = BinnedCodebook(cb, 1)
        assert oracles.bins_of(binned) == ((0, 1),)
        assert binned.bin_rate_per_dim == 0.0

    @pytest.mark.parametrize("bins, seed", [(1, 0), (2, 0), (4, 3), (16, 9)])
    def test_bin_index_is_the_seeded_shuffle(self, bins, seed):
        cb = enumerate_codebook(
            ConstructionALattice(2, random_code_matrix(2, 4, 4, [41]), None, 1)
        )
        perm = np.random.default_rng(seed).permutation(16)
        want = np.empty(16, dtype=np.int64)
        want[perm] = np.arange(16) // (16 // bins)
        got = BinnedCodebook(cb, bins, seed).bin_index
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_shuffle_is_drawn_once_when_read(self, monkeypatch):
        cb = enumerate_codebook(
            ConstructionALattice(2, random_code_matrix(2, 4, 4, [41]), None, 1)
        )
        draws = []
        default_rng = np.random.default_rng

        def spy(seed):
            draws.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", spy)
        binned = BinnedCodebook(cb, 4, seed=3)
        assert draws == []
        first = binned.bin_index
        assert binned.bin_index is first
        assert len(draws) == 1
        # a bad seed still fails in the constructor
        with pytest.raises(ValueError, match="non-negative"):
            BinnedCodebook(cb, 4, seed=-1)

    def test_a_given_shuffle_is_used_as_drawn(self, monkeypatch):
        cb = enumerate_codebook(
            ConstructionALattice(2, random_code_matrix(2, 4, 4, [41]), None, 1)
        )
        own = [BinnedCodebook(cb, bins, 3).bin_index for bins in (2, 4, 8)]
        shuffle = np.random.default_rng(3).permutation(16)
        draws = []
        monkeypatch.setattr(np.random, "default_rng", draws.append)
        shared = [BinnedCodebook(cb, bins, 3, _shuffle=shuffle).bin_index for bins in (2, 4, 8)]
        assert draws == []
        assert [b.tobytes() for b in shared] == [b.tobytes() for b in own]


class TestLayered:
    def base(self, p=2, n=2):
        g = random_code_matrix(p, 2, n, [p, n, 31])
        t = random_unimodular(n, [p, n, 32])
        return ConstructionALattice(p, g, t, 1)

    def test_adjacent_tower_nests(self):
        base = self.base()
        layered = build_layered(
            base, [(2, Fraction(1)), (1, Fraction(2))], [math.inf, math.inf]
        )
        assert isinstance(layered, LayeredCodebook)
        assert len(layered) == 2
        assert [len(cb) for cb in layered.layers] == [4, 2]
        for cb in layered.layers:
            assert base.quantize_fine(cb).points == cb.points

    def test_layer_uses_generator_prefix(self):
        base = self.base(p=3)
        layered = build_layered(
            base, [(1, Fraction(1))], [math.inf]
        )
        sub = layered.layers[0]
        assert len(sub) == 3
        expected = ConstructionALattice(
            3, tuple((row[0],) for row in base.code_matrix), base.transform, 1
        )
        assert sub.points == enumerate_codebook(expected).points

    def test_escaping_layer_rejected(self):
        base = self.base()
        with pytest.raises(LayerNotNested) as err:
            build_layered(
                base, [(2, Fraction(1)), (1, Fraction(1, 2))], [math.inf, math.inf]
            )
        assert err.value.layer == 2

    def test_layer_rank_out_of_range(self):
        base = self.base()
        with pytest.raises(LayerNotNested) as err:
            build_layered(base, [(3, Fraction(1))], [math.inf])
        assert err.value.layer == 1

    def test_spec_power_mismatch(self):
        base = self.base()
        with pytest.raises(ValidationError):
            build_layered(base, [(1, Fraction(1))], [math.inf, math.inf])
        with pytest.raises(ValidationError):
            build_layered(base, [], [])

    def test_power_above_natural_is_a_no_op(self):
        # Cell second moments here are 1/12 and 4/12 per dimension, so these
        # budgets already hold and the layers keep their exact points.
        base = ConstructionALattice(2, ((1, 0), (0, 1)), None, 1)
        layered = build_layered(
            base, [(2, Fraction(1)), (1, Fraction(2))], [0.1, 0.4]
        )
        assert [len(cb) for cb in layered.layers] == [4, 2]
        for cb in layered.layers:
            assert base.quantize_fine(cb).points == cb.points

    def test_downscaling_breaks_nesting(self):
        # A binding power budget rescales by a generic dyadic ratio, whose
        # multiples of the layer points leave the fine lattice; the builder
        # must reject that rather than hand back a broken tower.
        base = ConstructionALattice(2, ((1, 0), (0, 1)), None, 1)
        with pytest.raises(LayerNotNested):
            build_layered(
                base, [(2, Fraction(1)), (1, Fraction(2))], [0.008, 0.02]
            )
