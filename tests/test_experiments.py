"""Verification suites: grids, lemma and theorem checks, layered towers,
random-versus-lattice baseline, reliability runs, loopback, and the pipeline."""

import math
from fractions import Fraction

import pytest

from latsec import (
    BudgetExceeded,
    ChannelParams,
    ConstructionALattice,
    GridPoint,
    LayeredCodebook,
    LemmaReport,
    StageConditionViolated,
    ValidationError,
    build_layered,
    engineered_gain,
    enumerate_codebook,
    layered_reliability,
    noiseless_loopback,
    random_codebook_baseline,
    run_layered_suite,
    run_lemma_suite,
    run_loopback_suite,
    run_regime_pipeline,
    run_theorem1_suite,
    standard_grid,
    standard_layered_set,
    suite_passed,
    theorem_suite_passed,
    very_strong_reliability,
    weak_reliability,
)

import oracles


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

    def test_bare_layered_codebooks_get_default_labels(self):
        towers = standard_layered_set()
        report = run_layered_suite([towers[0][1]])[0]
        assert report.label == "layers2"
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
