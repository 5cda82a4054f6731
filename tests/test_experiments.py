"""Verification suites: grids, lemma and theorem checks, layered towers,
random-versus-lattice baseline, reliability runs, loopback, and the pipeline."""

import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

import latsec
from latsec import (
    BinnedCodebook,
    BudgetExceeded,
    ChannelParams,
    ConstructionALattice,
    GridPoint,
    LayeredCodebook,
    LemmaReport,
    StageConditionViolated,
    ValidationError,
    build_layered,
    decode_very_strong_batch,
    decode_weak,
    engineered_gain,
    enumerate_codebook,
    layered_reliability,
    mmse_alpha,
    noiseless_loopback,
    random_codebook_baseline,
    run_layered_suite,
    run_lemma_suite,
    run_loopback_suite,
    run_regime_pipeline,
    run_sweep,
    run_theorem1_suite,
    standard_grid,
    standard_layered_set,
    suite_passed,
    theorem_suite_passed,
    transmit,
    very_strong_reliability,
    weak_reliability,
)
from latsec import channel, experiments, infotheory, lattices
from latsec.channel import TRIAL_BLOCK, _decode_stages, _float_stages, _trial_blocks

import oracles
from exact_rows import record_row_dtypes


def trial_rows(trials, root_seed, sizes, n, dithers=False):
    """Each trial's draws in turn, one row of _trial_blocks' blocks at a
    time: (m1, m2, uniforms, noise), a message per layer for each user, the
    uniforms of shape (2, n) or None and receiver 1's n normals."""
    for _, m1, m2, uniforms, noise in _trial_blocks(trials, root_seed, sizes, n, dithers):
        for i in range(len(noise)):
            yield m1[:, i], m2[:, i], None if uniforms is None else uniforms[:, i], noise[i]


def received_1(x1, x2, params, noise):
    """y1 of the public transmit from receiver 1's n normals, checked
    against x1 + a x2 + sqrt(N) z written out here, so that the runs and
    this reference do not share a wrong formula. The runs draw no other
    normals, so receiver 2's and the eavesdropper's 2n are NaN: y1 reads
    none of them, or it would be NaN too."""
    y1, _, _ = transmit(x1, x2, params, np.concatenate([noise, np.full(2 * len(noise), np.nan)]))
    assert np.array_equal(y1, x1 + params.cross_gain * x2 + math.sqrt(params.noise_var) * noise)
    return y1


def unit_lattice():
    return ConstructionALattice(2, ((1,),), None, 1)


def square_codebook():
    return enumerate_codebook(ConstructionALattice(2, ((1, 0), (0, 1)), None, 1))


class TestStandardGrid:
    def test_default_grid_size_is_frozen(self):
        grid = standard_grid()
        assert len(grid) == 355

    def test_size_cap_and_draws(self):
        grid = standard_grid(p_values=(2,), n_max=2, coset_limit=4, draws=1)
        assert [(g.p, g.k, g.n, g.draw) for g in grid] == [
            (2, 1, 1, 0),
            (2, 1, 2, 0),
            (2, 2, 2, 0),
        ]
        assert grid[0].label == "p2_k1_n1_d0"

    def test_grid_point_lattices_are_reproducible(self):
        gp = GridPoint(3, 2, 2, 1)
        a = gp.build_lattice()
        b = gp.build_lattice()
        assert a.code_matrix == b.code_matrix
        assert a.transform == b.transform
        assert a.scale == b.scale

    def test_coset_limit_excludes_large_codebooks(self):
        grid = standard_grid(p_values=(5,), n_max=6, coset_limit=512, draws=1)
        assert all(5**g.k <= 512 for g in grid)
        assert max(g.k for g in grid) == 3


class TestLemmaSuite:
    def test_hand_checked_report(self):
        report = run_lemma_suite([("unit", unit_lattice())])[0]
        assert report.label == "unit"
        assert (report.p, report.k, report.n) == (2, 1, 1)
        assert report.size == 2
        assert report.sum_size == 3
        assert report.sum_bound == 4
        assert report.support_pass
        assert report.entropy_bits == 1.5
        assert report.entropy_bound_bits == 2.0
        assert report.entropy_pass
        assert report.mi_bits == 0.5
        assert report.mi_per_dim == 0.5
        assert report.onebit_pass
        assert report.skipped is None
        assert report.passed

    def test_mutual_information_matches_oracle(self):
        gp = GridPoint(2, 2, 2, 0)
        lat = gp.build_lattice()
        cb = enumerate_codebook(lat)
        report = run_lemma_suite([gp])[0]
        assert report.mi_bits == pytest.approx(
            oracles.mutual_info_sum_oracle(cb.points, cb.points), abs=1e-12
        )

    def test_over_budget_configurations_skip_not_fail(self):
        reports = run_lemma_suite([("unit", unit_lattice())], budget=3)
        assert len(reports) == 1
        assert reports[0].skipped is not None
        assert reports[0].passed
        assert suite_passed(reports)

    def test_item_forms_are_equivalent(self):
        gp = GridPoint(2, 1, 1, 0)
        by_point = run_lemma_suite([gp])[0]
        by_pair = run_lemma_suite([(gp.label, gp.build_lattice())])[0]
        assert by_point == by_pair

    def test_suite_passed_rejects_a_failing_report(self):
        good = run_lemma_suite([("unit", unit_lattice())])[0]
        bad = LemmaReport(
            "forced", 2, 1, 1, 2, 5, 4, False, 1.5, 2.0, True, 0.5, 0.5, True
        )
        assert suite_passed([good])
        assert not suite_passed([good, bad])

    def test_small_grid_all_pass(self):
        reports = run_lemma_suite(standard_grid((2, 3), 3, 32, 2))
        assert reports and suite_passed(reports)
        assert all(r.mi_per_dim <= 1 + 1e-9 for r in reports if r.skipped is None)


class TestTheoremSuite:
    def test_hand_checked_bin_reports(self):
        reports = run_theorem1_suite([("unit", unit_lattice())])
        assert [r.label for r in reports] == ["unit_b1", "unit_b2"]
        b1, b2 = reports
        assert (b1.num_bins, b1.bin_rate_per_dim, b1.leakage_per_dim) == (1, 0.0, 0.0)
        assert b1.equivocation_per_dim == 0.0
        assert (b2.num_bins, b2.bin_rate_per_dim) == (2, 1.0)
        assert b2.leakage_per_dim == 0.5
        assert b2.equivocation_per_dim == 0.5
        assert b2.sum_gap_bits == 1.0
        assert theorem_suite_passed(reports)

    def test_all_divisor_bin_counts_reported(self):
        gp = GridPoint(3, 2, 2, 0)
        reports = run_theorem1_suite([gp])
        assert [r.num_bins for r in reports] == [1, 3, 9]
        assert all(r.codebook_size == 9 for r in reports)

    def test_equivocation_identity_is_bitwise(self):
        reports = run_theorem1_suite(standard_grid((2, 3), 3, 32, 1))
        assert reports
        for r in reports:
            assert r.equivocation_per_dim == r.bin_rate_per_dim - r.leakage_per_dim

    def test_leakage_never_exceeds_one_bit_per_dim(self):
        reports = run_theorem1_suite(standard_grid((2, 5), 3, 32, 2))
        assert theorem_suite_passed(reports)
        assert max(r.leakage_per_dim for r in reports) <= 1 + 1e-9

    def test_binnings_read_the_shuffle_of_their_own_seed(self):
        # the suite draws one shuffle per configuration; each binning must
        # report as a BinnedCodebook that draws its own does, at every
        # seed and whatever seed ran before
        grid = standard_grid((2, 3), 4, 81, 1)
        by_seed = {}
        for seed in (0, 3, 0, 7):
            expected = []
            for point in grid:
                cb = enumerate_codebook(point.build_lattice())
                expected += [
                    experiments.make_secrecy_report(
                        BinnedCodebook(cb, point.p**j, seed), label=f"{point.label}_b{point.p**j}"
                    )
                    for j in range(point.k + 1)
                ]
            by_seed[seed] = run_theorem1_suite(grid, bin_seed=seed)
            assert by_seed[seed] == expected
        assert by_seed[0] != by_seed[3] and by_seed[3] != by_seed[7] and by_seed[0] != by_seed[7]


class TestSweep:
    def test_sweep_equals_the_two_suites(self):
        grid = standard_grid((2, 3), 3, 32, 1)
        configs = run_sweep(grid, budget=300)
        lemmas = run_lemma_suite(grid, budget=300)
        assert [lemma for lemma, _ in configs] == lemmas
        assert any(r.skipped for r in lemmas) and not all(r.skipped for r in lemmas)
        for lemma, bins in configs:
            if lemma.skipped is None:
                gp = next(gp for gp in grid if gp.label == lemma.label)
                assert bins == run_theorem1_suite([gp], budget=300)
            else:
                assert bins is None

    def test_no_bin_seed_derives_no_theorem_reports(self):
        grid = standard_grid((2,), 2, 32, 1)
        assert all(bins is None for _, bins in run_sweep(grid, bin_seed=None))

    def test_each_configuration_is_built_once(self, monkeypatch):
        calls = []
        sum_structure = infotheory.sum_structure

        def counted(*args, **kwargs):
            calls.append(args)
            return sum_structure(*args, **kwargs)

        monkeypatch.setattr(experiments, "sum_structure", counted)
        monkeypatch.setattr(infotheory, "sum_structure", counted)
        grid = standard_grid((2, 3), 2, 32, 1)
        configs = run_sweep(grid)
        assert all(bins for _, bins in configs)
        assert len(calls) == len(grid)


def spy(monkeypatch, name, modules=(experiments,)):
    """The argument tuples of every call to name, looked up in modules."""
    calls = []
    real = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


class TestBuildReuse:
    """A GridPoint, or the lattice of a (label, lattice) item, keeps its
    lattice draw, codebook and self pair sums for every suite given it."""

    @pytest.fixture
    def builds(self, monkeypatch):
        draws = spy(monkeypatch, "random_unimodular")
        sums = spy(monkeypatch, "sum_structure", (experiments, infotheory))
        return draws, sums

    def test_both_suites_build_each_point_once(self, builds):
        grid = standard_grid((2, 3), 3, 32, 1)
        lemmas = run_lemma_suite(grid)
        theorems = run_theorem1_suite(grid)
        run_sweep(grid)
        draws, sums = builds
        assert len(draws) == len(sums) == len(grid)
        fresh = standard_grid((2, 3), 3, 32, 1)
        assert run_theorem1_suite(fresh) == theorems
        assert run_lemma_suite(fresh) == lemmas

    def test_theorem1_suite_draws_only_the_binnings_it_reads(self, monkeypatch):
        # the closed forms for 1 bin and |C| bins never read a shuffle, and
        # the binnings between them (k >= 2) share one draw of bin_seed
        grid = standard_grid((2, 3), 3, 32, 1)
        for point in grid:
            point.lattice
        draws = []
        default_rng = np.random.default_rng

        def spy(seed):
            draws.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", spy)
        run_theorem1_suite(grid, bin_seed=5)
        assert draws == [5] * sum(point.k > 1 for point in grid)

    def test_a_lattice_item_keeps_its_build(self, builds):
        lat = GridPoint(3, 2, 2, 0).build_lattice()
        _, sums = builds
        run_lemma_suite([("x", lat)])
        run_theorem1_suite([("x", lat)])
        assert len(sums) == 1

    def test_two_standard_grids_share_no_build(self, builds):
        a = standard_grid((2, 3), 2, 32, 1)
        b = standard_grid((2, 3), 2, 32, 1)
        assert a == b
        run_lemma_suite(a)
        run_theorem1_suite(b)
        draws, sums = builds
        assert len(draws) == len(sums) == 2 * len(a)
        assert all(x.lattice is not y.lattice for x, y in zip(a, b))

    def test_a_build_is_freed_with_its_point(self, builds):
        gp = GridPoint(3, 2, 2, 0)
        run_lemma_suite([gp])
        _, sums = builds
        codebook = weakref.ref(sums[0][0])
        lattice = weakref.ref(gp.lattice)
        sums.clear()
        assert codebook() is not None
        del gp
        # nothing refers back to the point, so no cycle collection is needed
        assert codebook() is None and lattice() is None


class TestBudgetBeforeBuild:
    """The budget is checked on every call, so a point built under a large
    budget reports like a fresh point under a small one, and back."""

    @pytest.mark.parametrize("budget,message", [
        (300, "27*27 pair sums exceed budget 300"),
        (20, "27 cosets exceed enumeration budget 20"),
    ])
    def test_a_built_point_reports_as_a_fresh_one(self, budget, message):
        fresh = run_lemma_suite([GridPoint(3, 3, 3, 0)], budget=budget)
        assert fresh[0].skipped == message
        gp = GridPoint(3, 3, 3, 0)
        assert not run_lemma_suite([gp], budget=10**6)[0].skipped
        assert run_lemma_suite([gp], budget=budget) == fresh
        with pytest.raises(BudgetExceeded) as fresh_exc:
            run_theorem1_suite([GridPoint(3, 3, 3, 0)], budget=budget)
        with pytest.raises(BudgetExceeded) as built_exc:
            run_theorem1_suite([gp], budget=budget)
        assert str(built_exc.value) == str(fresh_exc.value) == message
        assert run_sweep([gp], budget=budget) == [(fresh[0], None)]

    def test_a_point_skipped_under_a_small_budget_builds_under_a_large_one(self):
        gp = GridPoint(3, 3, 3, 0)
        assert run_lemma_suite([gp], budget=300)[0].skipped
        with pytest.raises(BudgetExceeded):
            run_theorem1_suite([gp], budget=300)
        assert run_lemma_suite([gp]) == run_lemma_suite([GridPoint(3, 3, 3, 0)])
        assert run_theorem1_suite([gp]) == run_theorem1_suite([GridPoint(3, 3, 3, 0)])
        assert run_lemma_suite([gp])[0].skipped is None


class TestLayeredSuite:
    def test_standard_towers_all_pass_with_uniform_sums(self):
        towers = standard_layered_set()
        assert len(towers) == 12
        assert towers[0][0] == "tower_p2_n1_k11"
        reports = run_layered_suite(towers)
        assert all(r.passed for r in reports)
        assert all(r.tv_to_uniform == 0.0 for r in reports)
        assert all(r.sum_size == r.layer_sizes[0] * r.layer_sizes[1] for r in reports)

    def test_skipping_a_scale_breaks_the_support_bound(self):
        # Coarse scales in ratio p^2 rather than p put the second layer on a
        # sublattice so sparse that the two-user sum support overflows the
        # one-bit budget: 9 distinct pair sums against a bound of 8.
        base = unit_lattice()
        bad = build_layered(
            base, [(1, Fraction(1)), (1, Fraction(4))], [math.inf, math.inf]
        )
        report = run_layered_suite([("ratio4", bad)])[0]
        assert report.sum_size == 4
        assert report.pair_sum_size == 9
        assert report.support_bound == 8
        assert not report.support_pass
        assert report.entropy_bits == 3.0
        assert report.entropy_pass
        assert not report.passed

    def test_unscaled_layers_report_infinite_powers(self):
        towers = standard_layered_set()
        report = run_layered_suite([towers[0]])[0]
        assert report.label == towers[0][0]
        assert report.powers == (math.inf, math.inf)


class TestRandomBaseline:
    def test_matched_lattice_is_exactly_half_bit_per_dim(self):
        result = random_codebook_baseline(16, 2, 1.0, range(3))
        assert result.codebook_size == 16
        assert result.random_dim == 2
        assert result.lattice_dim == 4
        assert result.power == 1.0
        assert result.grid_step == 2**-10
        assert len(result.rows) == 3
        for row in result.rows:
            assert row.lattice_leak_bits == 2.0
            assert row.lattice_leak_per_dim == 0.5
            assert row.random_leak_per_dim == row.random_leak_bits / 2
        assert result.fraction_lattice_within_one == 1.0
        assert result.fraction_random_above_one == 1.0

    def test_random_codebooks_leak_more_than_one_bit_per_dim(self):
        result = random_codebook_baseline(16, 2, 1.0, range(5))
        for row in result.rows:
            assert row.random_leak_per_dim > 1.0
            assert row.random_leak_per_dim > row.lattice_leak_per_dim

    def test_spreading_random_points_over_more_dimensions_dilutes_leakage(self):
        result = random_codebook_baseline(16, 8, 1.0, range(3))
        assert result.fraction_random_above_one == 0.0

    def test_budget_and_size_validation(self):
        with pytest.raises(BudgetExceeded):
            random_codebook_baseline(16, 2, 1.0, [0], budget=255)
        with pytest.raises(ValidationError):
            random_codebook_baseline(6, 2, 1.0, [0])
        with pytest.raises(ValidationError):
            random_codebook_baseline(1, 2, 1.0, [0])

    @pytest.mark.parametrize(
        "dim,power,field",
        [(0, 1.0, "dim"), (-1, 1.0, "dim"), (2.5, 1.0, "dim"), (True, 1.0, "dim"),
         (2, math.nan, "power"), (2, math.inf, "power"), (2, -1.0, "power"), (2, 0.0, "power"),
         (2, True, "power"), (2, "1", "power"), (2, None, "power")],
    )
    def test_dim_and_power_validation(self, dim, power, field):
        # NaN and inf powers used to report a NaN or inf grid step, power -1
        # a bare math domain error and dim 0 a bare numpy reshape error;
        # power True ran as 1.0 and power "1" raised a bare TypeError
        with pytest.raises(ValidationError) as exc:
            random_codebook_baseline(16, dim, power, [0])
        assert exc.value.field == field

    @pytest.mark.parametrize(
        "size,seeds,field",
        [(16.7, [0], "size"), (16.0, [0], "size"), (True, [0], "size"),
         (16, [], "seeds"), (16, [-1], "seeds"), (16, [True], "seeds"),
         (16, [0.9], "seeds"), (16, [0, 1, "2"], "seeds")],
    )
    def test_size_and_seed_validation(self, size, seeds, field):
        # size 16.7 and seed 0.9 used to run as 16 and 0, seed True as 1, an
        # empty seed list to give a comparison whose fractions divide by
        # zero, and seed -1 a bare ValueError
        with pytest.raises(ValidationError) as exc:
            random_codebook_baseline(size, 2, 1.0, seeds)
        assert exc.value.field == field

    def test_numpy_integer_size_and_seeds_are_integers(self):
        result = random_codebook_baseline(np.int64(9), 2, 1.0, np.arange(2))
        assert result.codebook_size == 9 and [r.seed for r in result.rows] == [0, 1]

    def test_prime_size_matches_a_rank_one_lattice(self):
        # a prime size p is p^1: the lattice side is one codeword per point
        # of Z_p on the line, and kind=baseline size=5 reaches it
        assert experiments._matched_lattice_shape(5) == (5, 1)
        result = random_codebook_baseline(5, 2, 1.0, [0])
        assert result.codebook_size == 5 and result.lattice_dim == 1
        row = result.rows[0]
        assert row.lattice_leak_per_dim == row.lattice_leak_bits > 0
        config = latsec.parse_config("kind=baseline\nsize=5\n")
        assert latsec.run(config)["results"]["lattice_dim"] == 1

    def test_any_real_power_is_a_number(self):
        expected = random_codebook_baseline(9, 2, 1.0, [0])
        for power in (1, np.int64(1), np.float32(1.0), Fraction(1)):
            assert random_codebook_baseline(9, 2, power, [0]) == expected


class TestReliabilityRuns:
    def test_weak_residual_variance_tracks_prediction(self):
        cb = enumerate_codebook(unit_lattice())
        params = ChannelParams(cross_gain=0.3, power=1.0 / 12.0, noise_var=1.0)
        out = weak_reliability(cb, params, 400, 777)
        assert out["scheme"] == "weak"
        assert out["trials"] == 400
        assert 0.0 <= out["error_rate"] <= 1.0
        assert out["residual_stderr"] > 0
        assert out["mmse_alpha"] == pytest.approx(
            (1 / 12) / ((1 + 0.09) / 12 + 1), rel=1e-12
        )
        diff = abs(out["residual_variance"] - out["predicted_variance"])
        assert diff <= 4 * out["residual_stderr"]

    def test_weak_run_is_deterministic(self):
        cb = enumerate_codebook(unit_lattice())
        params = ChannelParams(cross_gain=0.3, power=1.0 / 12.0, noise_var=1.0)
        assert weak_reliability(cb, params, 50, 3) == weak_reliability(cb, params, 50, 3)

    def test_weak_blocks_match_a_per_trial_reference(self):
        # A run over two blocks equals a loop that takes one row of the block
        # draws at a time and encodes, transmits and decodes it alone; a
        # dither is the cube point scale (u - 1/2), at scale 5/2 here.
        lat = ConstructionALattice(3, ((1,), (2,)), ((2, 1), (1, 1)), Fraction(5, 2))
        cb = enumerate_codebook(lat)
        params = ChannelParams(cross_gain=0.2, power=0.5, noise_var=0.3)
        trials = TRIAL_BLOCK + 37
        n = cb.n
        alpha = mmse_alpha(params.power, params.cross_gain, params.noise_var)
        floats = cb.float_matrix()

        def fold(v):
            return lat.mod_coarse(v[None])[0]

        errors = 0
        means = np.empty(trials)
        rows = trial_rows(trials, 41, [len(cb)], n, dithers=True)
        for t, ((m1,), (m2,), uniforms, noise) in enumerate(rows):
            u1, u2 = (2.5 * (u - 0.5) for u in uniforms)
            x1 = fold(floats[m1] + u1)
            x2 = fold(floats[m2] + u2)
            y1 = received_1(x1, x2, params, noise)
            residual = alpha * y1 - u1 - floats[m1] + (floats[m1] + u1 - x1)
            means[t] = (residual * residual).mean()
            if decode_weak(y1[None], u1, params, lat).points[0] != cb.points[m1]:
                errors += 1
        out = weak_reliability(cb, params, trials, 41)
        assert out["errors"] == errors > 0
        assert out["residual_variance"] == float(means.mean())
        assert out["residual_stderr"] == float(means.std(ddof=1) / math.sqrt(trials))

    @staticmethod
    def per_trial_successive(layers, params, trials, seed, decode):
        """Successive-decoding rounds drawn, transmitted and decoded one
        trial at a time: (own errors per layer, interferer errors per layer,
        trials with an own error)."""
        mats = [cb.float_matrix() for cb in layers]
        n = layers[0].n
        own_errors = [0] * len(layers)
        intf_errors = [0] * len(layers)
        errors = 0
        for m1, m2, _, noise in trial_rows(trials, seed, [len(cb) for cb in layers], n):
            x1 = sum(mat[m] for mat, m in zip(mats, m1))
            x2 = sum(mat[m] for mat, m in zip(mats, m2))
            y1 = received_1(x1, x2, params, noise)
            own, intf = decode(y1[None])
            for li in range(len(layers)):
                own_errors[li] += int(own[li][0] != m1[li])
                intf_errors[li] += int(intf[li][0] != m2[li])
            errors += any(int(own[li][0]) != m1[li] for li in range(len(layers)))
        return own_errors, intf_errors, errors

    def test_very_strong_blocks_match_a_per_trial_reference(self):
        cb = enumerate_codebook(ConstructionALattice(3, ((1, 0), (0, 1)), None, 1))
        params = ChannelParams(cross_gain=2.0, power=1.0, noise_var=0.3)
        trials = TRIAL_BLOCK + 37

        def decode(y):
            own, intf = decode_very_strong_batch(y, cb, params)
            return [own], [intf]

        (own,), (intf,), errors = self.per_trial_successive([cb], params, trials, 29, decode)
        assert own == errors > 0 and intf > 0
        assert very_strong_reliability(cb, params, trials, 29) == {
            "scheme": "very_strong",
            "trials": trials,
            "errors": errors,
            "error_rate": errors / trials,
            "interferer_error_rate": intf / trials,
        }

    def test_layered_blocks_match_a_per_trial_reference(self):
        tower = standard_layered_set()[2][1]
        layered = LayeredCodebook(
            tower.fine_lattice,
            tower.layers,
            [float(cb.average_power) for cb in tower.layers],
        )
        params = ChannelParams(cross_gain=6.0, power=sum(layered.powers), noise_var=0.3)
        trials = TRIAL_BLOCK + 37
        stages = _float_stages(layered.layers, params.cross_gain)
        own, _, errors = self.per_trial_successive(
            layered.layers, params, trials, 31, lambda y: _decode_stages(y, stages)
        )
        assert all(e > 0 for e in own) and errors > max(own)
        assert layered_reliability(layered, params, trials, 31) == {
            "scheme": "layered",
            "trials": trials,
            "errors": errors,
            "error_rate": errors / trials,
            "per_layer_error_rate": [e / trials for e in own],
        }

    @pytest.mark.parametrize("layers", [1, 2])
    def test_successive_error_counts_match_a_per_trial_count(self, layers):
        # every count _successive_errors returns: own and interferer errors
        # per layer, and trials where some own layer errs, over 2100 trials
        tower = standard_layered_set()[2][1]
        codebooks = tower.layers[:layers]
        params = ChannelParams(cross_gain=6.0, power=1.0, noise_var=0.5)
        stages = _float_stages(codebooks, params.cross_gain)
        own, intf, errors = self.per_trial_successive(
            codebooks, params, 2100, 43, lambda y: _decode_stages(y, stages)
        )
        assert all(e > 0 for e in own + intf)
        if layers == 2:
            assert max(own) < errors < sum(own)
        got = experiments._successive_errors(codebooks, params, 2100, 43)
        assert [got[0].tolist(), got[1].tolist(), got[2]] == [own, intf, errors]

    def test_rounds_match_one_block_rounds_and_a_per_trial_count(self, monkeypatch):
        # Two whole rounds, one block and 37 trials, so that the last round
        # and its last block are both partial. Every count and report is the
        # same in rounds of one block, the order of a block-by-block run, as
        # in rounds of the default size; the counts are also a per-trial
        # count's.
        tower = standard_layered_set()[2][1]
        layered = LayeredCodebook(
            tower.fine_lattice,
            tower.layers,
            [float(cb.average_power) for cb in tower.layers],
        )
        params = ChannelParams(cross_gain=6.0, power=sum(layered.powers), noise_var=0.3)
        strong = enumerate_codebook(ConstructionALattice(3, ((1, 0), (0, 1)), None, 1))
        strong_params = ChannelParams(cross_gain=2.0, power=1.0, noise_var=0.3)
        assert channel._ROUND_TRIALS > TRIAL_BLOCK
        assert channel._ROUND_TRIALS % TRIAL_BLOCK == 0
        trials = 2 * channel._ROUND_TRIALS + TRIAL_BLOCK + 37

        def runs():
            own, intf, errors = experiments._successive_errors(layered.layers, params, trials, 47)
            return (
                [own.tolist(), intf.tolist(), errors],
                very_strong_reliability(strong, strong_params, trials, 29),
                layered_reliability(layered, params, trials, 31),
            )

        rounds = runs()
        monkeypatch.setattr(channel, "_ROUND_TRIALS", TRIAL_BLOCK)
        assert runs() == rounds
        stages = _float_stages(layered.layers, params.cross_gain)
        counts = self.per_trial_successive(
            layered.layers, params, trials, 47, lambda y: _decode_stages(y, stages)
        )
        assert rounds[0] == list(counts)
        assert all(e > 0 for e in counts[0] + counts[1])
        assert rounds[1]["errors"] > 0 and rounds[2]["errors"] > 0

    def test_very_strong_decoding_is_error_free_at_high_gain(self):
        cb = enumerate_codebook(ConstructionALattice(3, ((1, 0), (0, 1)), None, 1))
        params = ChannelParams(cross_gain=10.0, power=1.0, noise_var=1e-4)
        out = very_strong_reliability(cb, params, 300, 123)
        assert out["scheme"] == "very_strong"
        assert out["errors"] == 0
        assert out["error_rate"] == 0.0
        assert out["interferer_error_rate"] == 0.0

    def test_layered_run_reports_per_layer_rates(self):
        tower = standard_layered_set()[2][1]
        layered = LayeredCodebook(
            tower.fine_lattice,
            tower.layers,
            [float(cb.average_power) for cb in tower.layers],
        )
        params = ChannelParams(
            cross_gain=6.0, power=sum(layered.powers), noise_var=0.01
        )
        out = layered_reliability(layered, params, 200, 55)
        assert out["scheme"] == "layered"
        assert len(out["per_layer_error_rate"]) == 2
        assert all(0.0 <= r <= 1.0 for r in out["per_layer_error_rate"])
        assert out == layered_reliability(layered, params, 200, 55)

    def test_layered_run_enforces_stage_conditions(self):
        tower = standard_layered_set()[2][1]
        layered = LayeredCodebook(
            tower.fine_lattice,
            tower.layers,
            [float(cb.average_power) for cb in tower.layers],
        )
        params = ChannelParams(cross_gain=6.0, power=1.0, noise_var=1e-6)
        with pytest.raises(StageConditionViolated):
            layered_reliability(layered, params, 10, 0)


    def test_runs_draw_only_what_they_read(self, monkeypatch):
        # A spy on every Generator a run makes: block b seeds
        # default_rng([seed, b]) and makes exactly the documented calls,
        # one scalar-bound integers per layer and user, the weak scheme's
        # uniforms, then receiver 1's normals, each for a whole block; no
        # block asks for more than n normals per trial.
        calls = []
        default_rng = np.random.default_rng

        class Spy:
            def __init__(self, seed):
                calls.append(("seed", list(seed)))
                self.rng = default_rng(seed)

            def integers(self, low, high, size):
                calls.append(("integers", low, np.asarray(high).tolist(), size))
                return self.rng.integers(low, high, size=size)

            def random(self, size):
                calls.append(("random", size))
                return self.rng.random(size)

            def standard_normal(self, size):
                calls.append(("standard_normal", size))
                return self.rng.standard_normal(size)

        trials = TRIAL_BLOCK + 37
        tower = standard_layered_set()[2][1]
        layered = LayeredCodebook(
            tower.fine_lattice,
            tower.layers,
            [float(cb.average_power) for cb in tower.layers],
        )
        params = ChannelParams(cross_gain=6.0, power=sum(layered.powers), noise_var=0.3)
        weak = enumerate_codebook(unit_lattice())
        weak_params = ChannelParams(cross_gain=0.3, power=1.0 / 12.0, noise_var=1.0)
        runs = [
            (lambda: layered_reliability(layered, params, trials, 31), 31, layered.layers, False),
            (lambda: weak_reliability(weak, weak_params, trials, 41), 41, [weak], True),
        ]
        monkeypatch.setattr(np.random, "default_rng", Spy)
        for run, seed, codebooks, dithers in runs:
            del calls[:]
            run()
            n = codebooks[0].n
            sizes = [len(cb) for cb in codebooks]
            block = [("integers", 0, size, TRIAL_BLOCK) for size in sizes * 2]
            if dithers:
                block.append(("random", (2, TRIAL_BLOCK, n)))
            block.append(("standard_normal", (TRIAL_BLOCK, n)))
            assert calls == [call for b in range(2) for call in [("seed", [seed, b]), *block]]
            normals = [np.prod(c[1]) for c in calls if c[0] == "standard_normal"]
            assert normals == [n * TRIAL_BLOCK] * 2

    @pytest.mark.parametrize(
        "sizes, dithers",
        [((2**31 + 1,), True), ((3 * 2**30, 1, 2), False), ((9, 3), True), ((2**32 + 1, 5), False),
         ((1,), False)],
    )
    def test_trial_blocks_are_whole_block_generator_calls(self, sizes, dithers):
        # Block b's calls on default_rng([seed, b]), each for a whole block
        # and cut to its rows: one scalar-bound integers per layer and user,
        # the uniforms, then receiver 1's normals; size-1 layers, sizes whose
        # words numpy rejects and redraws, and sizes above 2^32 alike.
        n, seed, trials = 2, 13, TRIAL_BLOCK + 37
        blocks = list(_trial_blocks(trials, seed, sizes, n, dithers))
        assert [b[0] for b in blocks] == [0, TRIAL_BLOCK]
        for b, (start, m1, m2, uniforms, noise) in enumerate(blocks):
            rows = min(TRIAL_BLOCK, trials - start)
            rng = np.random.default_rng([seed, b])
            for got in (m1, m2):
                for row, size in zip(got, sizes, strict=True):
                    assert np.array_equal(row, rng.integers(0, size, size=TRIAL_BLOCK)[:rows])
            if dithers:
                assert np.array_equal(uniforms, rng.random((2, TRIAL_BLOCK, n))[:, :rows])
            else:
                assert uniforms is None
            assert np.array_equal(noise, rng.standard_normal((TRIAL_BLOCK, n))[:rows])

    @pytest.mark.parametrize(
        "trials, root_seed, field",
        [(0, 1, "trials"), (-3, 1, "trials"), (2.7, 1, "trials"), (2.0, 1, "trials"),
         (True, 1, "trials"), ("5", 1, "trials"), (5, -1, "root_seed"), (5, 1.5, "root_seed"),
         (5, None, "root_seed")],
    )
    def test_runs_reject_bad_trials_and_seeds(self, trials, root_seed, field):
        cb = enumerate_codebook(unit_lattice())
        tower = standard_layered_set()[2][1]
        layered = LayeredCodebook(
            tower.fine_lattice,
            tower.layers,
            [float(cb.average_power) for cb in tower.layers],
        )
        runs = [
            lambda: weak_reliability(cb, ChannelParams(0.3, 1 / 12), trials, root_seed),
            lambda: very_strong_reliability(cb, ChannelParams(2.0, 1.0), trials, root_seed),
            lambda: layered_reliability(
                layered, ChannelParams(6.0, sum(layered.powers), noise_var=0.3), trials, root_seed
            ),
        ]
        for run in runs:
            with pytest.raises(ValidationError) as err:
                run()
            assert err.value.field == field

    def test_runs_take_numpy_integers(self):
        cb = enumerate_codebook(unit_lattice())
        params = ChannelParams(0.3, 1 / 12)
        assert weak_reliability(cb, params, np.int64(20), np.uint64(3)) == weak_reliability(
            cb, params, 20, 3
        )


class TestNoiselessLoopback:
    def test_square_codebook_recovers_everything(self):
        cb = square_codebook()
        out = noiseless_loopback(cb)
        assert out == {
            "size": 4,
            "gain": 3,
            "weak_ok": True,
            "very_strong_ok": True,
            "layered_ok": True,
            "all_ok": True,
        }

    def test_rows_are_decoded_once(self, monkeypatch):
        calls = []
        decode = channel._decode_stages

        def counted(resid, stages):
            calls.append(len(stages))
            return decode(resid, stages)

        monkeypatch.setattr(channel, "_decode_stages", counted)
        assert noiseless_loopback(square_codebook())["all_ok"]
        assert calls == [1]

    def test_rows_take_int64(self, monkeypatch):
        # the dither and signal folds, then decode_weak's quantiser and
        # fold: every row set of the loopback fits the int64 bound
        seen = record_row_dtypes(monkeypatch)
        assert noiseless_loopback(square_codebook())["all_ok"]
        assert seen == [np.dtype(np.int64)] * 4

    def test_grids_with_a_proven_bound_are_not_scanned(self, monkeypatch):
        # The dither, the signal, decode_weak's difference v and the fine
        # points that quantize_fine finds for it (with _exact_fine's int64
        # check on them) carry the bound that their construction proves,
        # and each bound holds: no grid of the loopback is scanned.
        scans, bounds = [], []
        peak, init = lattices._peak, lattices.PointGrid.__init__

        def counted(a):
            scans.append(a.shape)
            return peak(a)

        def checked(self, unit, coords, *, _bound=None):
            init(self, unit, coords, _bound=_bound)
            if _bound is not None:
                bounds.append((_bound, peak(self.coords)))

        grid = standard_grid((2, 3, 5), 4, 64, 1)
        codebooks = [enumerate_codebook(gp.build_lattice()) for gp in grid]
        monkeypatch.setattr(lattices, "_peak", counted)
        monkeypatch.setattr(lattices.PointGrid, "__init__", checked)
        for cb in codebooks:
            scans.clear()
            assert noiseless_loopback(cb)["all_ok"]
            assert scans == []
        assert len(bounds) >= 7 * len(codebooks)
        assert all(bound >= scan for bound, scan in bounds)

    def test_engineered_gain_matches_pairwise_python_ints(self):
        for gp in standard_grid((2, 3, 5, 7), 4, 64, 8):
            cb = enumerate_codebook(gp.build_lattice())
            rows = cb.coords.tolist()
            max_norm2 = max(sum(v * v for v in r) for r in rows)
            dmin2 = min(
                sum((x - y) ** 2 for x, y in zip(a, b))
                for i, a in enumerate(rows)
                for b in rows[i + 1 :]
            )
            assert engineered_gain(cb) == max(math.isqrt(4 * max_norm2 // dmin2) + 1, 2)

    def test_engineered_gain_matches_pairwise_fractions(self):
        # dmin^2 over the exact points of every distinct pair, with no
        # integer coordinates and no distance matrix
        for gp in standard_grid(coset_limit=64, draws=1):
            cb = enumerate_codebook(gp.build_lattice())
            pts = cb.points
            max_norm2 = max(sum(v * v for v in pt) for pt in pts)
            dmin2 = min(
                sum((x - y) ** 2 for x, y in zip(pts[i], pts[j]))
                for i in range(len(pts))
                for j in range(i + 1, len(pts))
            )
            assert engineered_gain(cb) == max(math.isqrt(math.floor(4 * max_norm2 / dmin2)) + 1, 2)

    def test_engineered_gain_separates_interference(self):
        for p, g in ((2, ((1, 0), (0, 1))), (3, ((1,),)), (5, ((1,), (2,)))):
            cb = enumerate_codebook(ConstructionALattice(p, g, None, 1))
            a = engineered_gain(cb)
            assert a >= 2
            pts = cb.points
            max_norm2 = max(sum(c * c for c in pt) for pt in pts)
            dmin2 = min(
                sum((x - y) * (x - y) for x, y in zip(pts[i], pts[j]))
                for i in range(len(pts))
                for j in range(i + 1, len(pts))
            )
            assert a * a * dmin2 > 4 * max_norm2

    def test_suite_respects_size_limit(self):
        grid = standard_grid((2, 3), 2, 16, 1)
        results = run_loopback_suite(grid)
        assert len(results) == 6
        assert all(entry["all_ok"] for entry in results)
        capped = run_loopback_suite(grid, size_limit=4)
        assert 0 < len(capped) < len(results)
        assert all(entry["size"] <= 4 for entry in capped)


class TestRegimePipeline:
    def test_weak_configuration_end_to_end(self):
        cb = square_codebook()
        result = run_regime_pipeline(
            cb, ChannelParams(cross_gain=0.3, power=1.0), 2, 50, 7
        )
        assert result.regime.tag == "weak"
        assert result.reliability["scheme"] == "weak"
        assert result.notes == ()
        s = result.secrecy
        assert (s.dim, s.codebook_size, s.num_bins) == (2, 4, 2)
        assert s.rate_per_dim == 1.0
        assert s.bin_rate_per_dim == 0.5
        assert s.leakage_per_dim == 0.25
        assert s.equivocation_per_dim == 0.25
        assert s.onebit_pass
        keys = set(result.references)
        assert keys == {
            "mmse_alpha",
            "effective_noise_variance",
            "achievable_rate_weak",
            "eavesdropper_mac_sum_rate_bound",
        }

    def test_very_strong_configuration_uses_successive_decoder(self):
        cb = square_codebook()
        result = run_regime_pipeline(
            cb, ChannelParams(cross_gain=1.5, power=1.0), 2, 50, 7
        )
        assert result.regime.tag == "very_strong"
        assert result.reliability["scheme"] == "very_strong"

    def test_general_regime_without_layers_skips_reliability(self):
        cb = square_codebook()
        result = run_regime_pipeline(
            cb, ChannelParams(cross_gain=0.9, power=1.0), 2, 50, 7
        )
        assert result.regime.tag == "general"
        assert result.reliability is None
        assert any("layered" in note for note in result.notes)

    def test_zero_trials_skip_reliability_with_note(self):
        cb = square_codebook()
        result = run_regime_pipeline(
            cb, ChannelParams(cross_gain=0.3, power=1.0), 2, 0, 7
        )
        assert result.reliability is None
        assert result.notes == ("reliability run skipped (trials = 0)",)

    @pytest.mark.parametrize(
        "trials,root_seed,field",
        [(-3, 7, "trials"), (2.7, 7, "trials"), (True, 7, "trials"), (0, -1, "root_seed")],
    )
    def test_trials_and_seed_must_be_nonnegative_integers(self, trials, root_seed, field):
        with pytest.raises(ValidationError) as err:
            run_regime_pipeline(square_codebook(), ChannelParams(0.3, 1.0), 2, trials, root_seed)
        assert err.value.field == field

    def test_pipeline_is_deterministic(self):
        cb = square_codebook()
        a = run_regime_pipeline(cb, ChannelParams(cross_gain=0.3, power=1.0), 2, 50, 7)
        b = run_regime_pipeline(cb, ChannelParams(cross_gain=0.3, power=1.0), 2, 50, 7)
        assert a == b

    def test_noiseless_eavesdropper_reference_bound_is_infinite(self):
        cb = square_codebook()
        result = run_regime_pipeline(
            cb,
            ChannelParams(cross_gain=0.3, power=1.0, eve_noise_var=0.0),
            1,
            0,
            7,
        )
        assert result.references["eavesdropper_mac_sum_rate_bound"] == math.inf
        noisy = run_regime_pipeline(
            cb,
            ChannelParams(cross_gain=0.3, power=1.0, eve_gain=2.0, eve_noise_var=4.0),
            1,
            0,
            7,
        )
        assert noisy.references["eavesdropper_mac_sum_rate_bound"] == pytest.approx(
            0.5 * math.log2(1 + 4.0 * 2.0 / 4.0), rel=1e-12
        )
