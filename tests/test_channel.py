"""Channel model, regime classification, and the three decoders."""

import math
from fractions import Fraction

import numpy as np
import pytest

from latsec import (
    BudgetExceeded,
    ChannelParams,
    ConstructionALattice,
    DimensionMismatch,
    LayeredCodebook,
    StageConditionViolated,
    UnityGain,
    ValidationError,
    achievable_rate_weak,
    check_stage_conditions,
    classify_regime,
    decode_layered,
    decode_very_strong_batch,
    decode_weak,
    dither_sample,
    dithered_round,
    effective_noise_variance,
    encode_dithered,
    enumerate_codebook,
    mmse_alpha,
    stage_condition_witnesses,
    transmit,
    trial_rng,
)

import oracles


def codebook(p, g, scale=1):
    return enumerate_codebook(ConstructionALattice(p, g, None, scale))


class TestChannelParams:
    def test_unity_cross_gain_rejected(self):
        with pytest.raises(UnityGain):
            ChannelParams(cross_gain=1.0, power=1.0)

    def test_power_must_be_positive(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValidationError):
                ChannelParams(cross_gain=0.5, power=bad)

    @pytest.mark.parametrize("field", ["cross_gain", "eve_gain", "noise_var", "eve_noise_var"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_nonfinite_values_rejected(self, field, value):
        kwargs = {"cross_gain": 0.5, "power": 1.0, field: value}
        with pytest.raises(ValidationError) as exc:
            ChannelParams(**kwargs)
        assert exc.value.field == field

    def test_infinite_power_rejected(self):
        with pytest.raises(ValidationError):
            ChannelParams(cross_gain=0.5, power=math.inf)

    def test_noise_variances_nonnegative(self):
        with pytest.raises(ValidationError):
            ChannelParams(cross_gain=0.5, power=1.0, noise_var=-0.1)
        with pytest.raises(ValidationError):
            ChannelParams(cross_gain=0.5, power=1.0, eve_noise_var=-0.1)
        ChannelParams(cross_gain=0.5, power=1.0, noise_var=0.0, eve_noise_var=0.0)


class TestRegimeClassification:
    @pytest.mark.parametrize(
        "a,p,nv,tag",
        [
            (1.5, 1.0, 1.0, "very_strong"),
            (2.0, 3.0, 1.0, "very_strong"),  # boundary a^2 == P + N counts
            (0.3, 1.0, 1.0, "weak"),
            (-0.3, 1.0, 1.0, "weak"),  # sign enters through |a + a^3 P|
            (0.9, 1.0, 1.0, "general"),
        ],
    )
    def test_tags(self, a, p, nv, tag):
        assert classify_regime(a, p, nv).tag == tag

    def test_witness_fields(self):
        regime = classify_regime(0.9, 2.0, 1.0)
        w = regime.witness
        assert w["a_squared"] == 0.9 * 0.9
        assert w["very_strong_threshold"] == 3.0
        assert w["interference_power_threshold"] == 9.0 / 2.0
        assert w["weak_statistic"] == abs(0.9 + 0.9**3 * 2.0)
        assert w["weak_threshold"] == 0.5

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(UnityGain):
            classify_regime(1.0, 1.0)
        with pytest.raises(ValidationError):
            classify_regime(0.5, 0.0)

    @pytest.mark.parametrize(
        "a,p,nv",
        [(math.inf, 1.0, 1.0), (math.nan, 1.0, 1.0), (0.5, math.inf, 1.0), (0.5, 1.0, math.inf)],
    )
    def test_nonfinite_inputs_rejected(self, a, p, nv):
        with pytest.raises(ValidationError):
            classify_regime(a, p, nv)


class TestMmseScaling:
    def test_frozen_point_values(self):
        assert mmse_alpha(1, 0.3, 1) == pytest.approx(0.47846889952153115, rel=1e-15)
        assert effective_noise_variance(1, 0.3, 1) == pytest.approx(
            0.521531100478469, rel=1e-15
        )

    def test_rate_formula(self):
        assert achievable_rate_weak(1, 0.3, 1) == pytest.approx(
            0.5 * math.log2(1 + 1 / 1.09), rel=1e-15
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_alpha_minimizes_residual_variance(self, seed):
        rng = np.random.default_rng([seed, 99])
        p, a, nv = (float(v) for v in rng.uniform(0.1, 10.0, size=3))
        alpha_star = mmse_alpha(p, a, nv)
        target = effective_noise_variance(p, a, nv)

        def residual_var(alpha):
            return (1 - alpha) ** 2 * p + alpha**2 * (a * a * p + nv)

        assert residual_var(alpha_star) == pytest.approx(target, rel=1e-12)
        grid = np.arange(1e-3, 2.0, 1e-3)
        values = (1 - grid) ** 2 * p + grid**2 * (a * a * p + nv)
        assert float(values.min()) >= target - 1e-9


class TestTrialStreams:
    def test_streams_reproducible_and_distinct(self):
        a = trial_rng(7, 3).random(4)
        b = trial_rng(7, 3).random(4)
        c = trial_rng(7, 4).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_dither_stays_in_coarse_cell_and_is_uniform(self):
        lat = ConstructionALattice(2, ((1,),), None, 1)
        rng = trial_rng(2026, 0)
        samples = [float(dither_sample(lat, rng)[0]) for _ in range(20000)]
        assert min(samples) >= -0.5
        assert max(samples) < 0.5
        chi2 = oracles.chi_square_uniform(samples, 16, -0.5, 0.5)
        assert chi2 < oracles.CHI2_CRIT_DF15_P001

    def test_dither_scales_with_coarse_cell(self):
        lat = ConstructionALattice(2, ((1,),), None, Fraction(3, 2))
        rng = trial_rng(2026, 1)
        samples = [float(dither_sample(lat, rng)[0]) for _ in range(500)]
        assert min(samples) >= -0.75
        assert max(samples) < 0.75


class TestTransmit:
    def test_noiseless_hand_example(self):
        params = ChannelParams(
            cross_gain=0.5, power=1.0, eve_gain=1.0, noise_var=0.0, eve_noise_var=0.0
        )
        y1, y2, z = transmit((1.0,), (2.0,), params, trial_rng(0, 0))
        assert y1 == pytest.approx([2.0])
        assert y2 == pytest.approx([2.5])
        assert z == pytest.approx([3.0])

    def test_consumes_exactly_three_noise_vectors(self):
        params = ChannelParams(cross_gain=0.5, power=1.0)
        rng = trial_rng(0, 0)
        transmit((1.0, 0.0), (0.0, 1.0), params, rng)
        probe = rng.random()
        ref = trial_rng(0, 0)
        for _ in range(3):
            ref.standard_normal(2)
        assert probe == ref.random()

    def test_eavesdropper_gain_scales_only_the_tap(self):
        params_b1 = ChannelParams(
            cross_gain=0.5, power=1.0, eve_gain=1.0, noise_var=0.0, eve_noise_var=0.0
        )
        params_b10 = ChannelParams(
            cross_gain=0.5, power=1.0, eve_gain=10.0, noise_var=0.0, eve_noise_var=0.0
        )
        y1a, y2a, za = transmit((1.0,), (2.0,), params_b1, trial_rng(0, 0))
        y1b, y2b, zb = transmit((1.0,), (2.0,), params_b10, trial_rng(0, 0))
        assert np.array_equal(y1a, y1b) and np.array_equal(y2a, y2b)
        assert zb == pytest.approx(10.0 * za)


class TestDitheredEncoding:
    def test_exact_dither_cancels_modulo_coarse(self):
        cb = codebook(3, ((1, 0), (0, 1)))
        lat = cb.lattice
        dithers = [
            (Fraction(1, 3), Fraction(-2, 7)),
            (Fraction(0), Fraction(0)),
            (Fraction(5, 11), Fraction(1, 2)),
        ]
        for u in dithers:
            for pt in cb.points:
                x = encode_dithered(pt, u, lat)
                shifted = tuple(a - b for a, b in zip(x, u))
                assert lat.mod_coarse(shifted) == pt

    def test_float_dither_round_trips_through_transcript(self):
        cb = codebook(2, ((1, 0), (0, 1)))
        params = ChannelParams(
            cross_gain=0.5, power=1.0, noise_var=0.0, eve_noise_var=0.0
        )
        tr = dithered_round(cb, params, trial_rng(5, 0))
        assert np.array_equal(
            tr.signal1, encode_dithered(tr.codeword1, tr.dither1, cb.lattice)
        )
        assert tr.received1 == pytest.approx(tr.signal1 + 0.5 * tr.signal2)
        assert tr.received2 == pytest.approx(tr.signal2 + 0.5 * tr.signal1)
        assert tr.eavesdropped == pytest.approx(tr.signal1 + tr.signal2)

    def test_round_is_deterministic_and_respects_message_override(self):
        cb = codebook(2, ((1, 0), (0, 1)))
        params = ChannelParams(cross_gain=0.5, power=1.0)
        a = dithered_round(cb, params, trial_rng(9, 1))
        b = dithered_round(cb, params, trial_rng(9, 1))
        assert a.message1 == b.message1 and a.message2 == b.message2
        assert np.array_equal(a.received1, b.received1)
        assert np.array_equal(a.eavesdropped, b.eavesdropped)
        forced = dithered_round(cb, params, trial_rng(9, 1), messages=(2, 3))
        assert (forced.message1, forced.message2) == (2, 3)
        assert forced.codeword1 == cb.points[2]
        assert forced.codeword2 == cb.points[3]


# Zero cross gain and zero noise make the MMSE scaling exactly 1.
UNIT_ALPHA = ChannelParams(cross_gain=0.0, power=1.0, noise_var=0.0)


class TestWeakDecoder:
    def test_unit_scaling_recovers_every_message_noiselessly(self):
        cb = codebook(2, ((1, 0), (0, 1)))
        lat = cb.lattice
        u = (Fraction(1, 3), Fraction(-1, 5))
        for pt in cb.points:
            x = encode_dithered(pt, u, lat)
            assert decode_weak(x, u, UNIT_ALPHA, lat) == pt

    def test_exact_entry_point_matches_explicit_alpha(self):
        cb = codebook(2, ((1, 0), (0, 1)))
        lat = cb.lattice
        params = ChannelParams(cross_gain=0.3, power=1.0, noise_var=1.0)
        alpha = Fraction(mmse_alpha(params.power, params.cross_gain, params.noise_var))
        y = (Fraction(3, 8), Fraction(-1, 4))
        u = (Fraction(1, 7), Fraction(2, 9))
        v = tuple(alpha * yi - ui for yi, ui in zip(y, u))
        expected = lat.mod_coarse(lat.quantize_fine(lat.mod_coarse(v)))
        assert decode_weak(y, u, params, lat) == expected

    def test_reliability_improves_with_repetition_length(self):
        sigma = 0.2
        trials = 600
        rates = {}
        for n in (1, 2, 4):
            g = tuple((1,) for _ in range(n))
            cb = codebook(2, g)
            pts = cb.float_matrix()
            zero = tuple(Fraction(0) for _ in range(n))
            errors = 0
            for t in range(trials):
                rng = trial_rng(424242, t)
                m = int(rng.integers(len(cb)))
                y = pts[m] + rng.standard_normal(n) * sigma
                decoded = decode_weak(tuple(float(v) for v in y), zero, UNIT_ALPHA, cb.lattice)
                if decoded != cb.points[m]:
                    errors += 1
            rates[n] = errors / trials
        assert rates[1] > rates[2] > rates[4]
        assert rates[1] > 0.15
        assert rates[4] < 0.12


class TestVeryStrongDecoder:
    def test_exhaustive_noiseless_recovery(self):
        cb = codebook(3, ((1, 0), (0, 1)))
        params = ChannelParams(cross_gain=4.0, power=1.0)
        pairs = [(m1, m2) for m1 in range(len(cb)) for m2 in range(len(cb))]
        rows = [
            tuple(a + 4 * b for a, b in zip(cb.points[m1], cb.points[m2]))
            for m1, m2 in pairs
        ]
        own, intf = decode_very_strong_batch(rows, cb, params)
        assert list(zip(own.tolist(), intf.tolist())) == pairs

    def test_float_and_exact_batches_agree(self):
        cb = codebook(3, ((1, 0), (0, 1)))
        params = ChannelParams(cross_gain=4.0, power=1.0)
        rows = []
        for m1 in range(len(cb)):
            for m2 in range(len(cb)):
                rows.append(
                    tuple(a + 4 * b for a, b in zip(cb.points[m1], cb.points[m2]))
                )
        own_f, intf_f = decode_very_strong_batch(
            np.array([[float(v) for v in r] for r in rows]), cb, params
        )
        own_e, intf_e = decode_very_strong_batch(rows, cb, params)
        assert np.array_equal(own_f, own_e)
        assert np.array_equal(intf_f, intf_e)

    def test_exact_rows_past_int64_bound_raise(self):
        # A coordinate with a huge prime denominator makes the shared grid
        # so fine that squared distances would overflow int64.
        cb = codebook(2, ((1,),))
        params = ChannelParams(cross_gain=4.0, power=1.0)
        tiny = Fraction(1, 2**31 + 1)
        rows = [(Fraction(0) + tiny,), (Fraction(-5, 2) + tiny,)]
        with pytest.raises(BudgetExceeded):
            decode_very_strong_batch(rows, cb, params)
        layered = LayeredCodebook(cb.lattice, [cb], [1.0])
        with pytest.raises(BudgetExceeded):
            decode_layered(rows, layered, params)
        grid_rows = [(Fraction(0),), (Fraction(-5, 2),)]
        own_g, intf_g = decode_very_strong_batch(grid_rows, cb, params)
        assert own_g.tolist() == [0, 1] and intf_g.tolist() == [0, 1]


class TestStageConditions:
    def test_witness_values(self):
        w = stage_condition_witnesses([0.1, 10.0], 1.2, 0.1)
        assert [entry["stage"] for entry in w] == [1, 2]
        assert w[0]["satisfied"] is True
        assert w[0]["required"] == pytest.approx(1.0040816326530613, rel=1e-15)
        assert w[1]["satisfied"] is False
        assert w[1]["required"] == pytest.approx(101.0, rel=1e-15)

    def test_violation_names_the_stage(self):
        with pytest.raises(StageConditionViolated) as exc:
            check_stage_conditions([0.1, 10.0], 1.2, 0.1)
        assert exc.value.stage == 2

    def test_zero_clutter_is_vacuously_feasible(self):
        w = stage_condition_witnesses([1.0], 2.0, 0.0)
        assert w == [
            {
                "stage": 1,
                "a_squared": 4.0,
                "required": math.inf,
                "satisfied": True,
                "vacuous_zero_noise": True,
            }
        ]

    def test_passing_conditions_return_witnesses(self):
        w = check_stage_conditions([1.0, 1.0], 4.0, 1.0)
        assert all(entry["satisfied"] for entry in w)


class TestLayeredDecoder:
    def _single_layer(self):
        cb = codebook(3, ((1, 0), (0, 1)))
        return LayeredCodebook(cb.lattice, [cb], [float(cb.average_power)]), cb

    def test_single_layer_matches_interference_first_decoder(self):
        layered, cb = self._single_layer()
        params = ChannelParams(cross_gain=4.0, power=1.0)
        rng = np.random.default_rng(3)
        rows = rng.normal(scale=2.0, size=(12, 2))
        own_l, intf_l = decode_layered(rows, layered, params)
        own_s, intf_s = decode_very_strong_batch(rows, cb, params)
        assert np.array_equal(own_l[0], own_s)
        assert np.array_equal(intf_l[0], intf_s)

    def test_single_vector_rejected(self):
        layered, cb = self._single_layer()
        params = ChannelParams(cross_gain=4.0, power=1.0)
        y = tuple(a + 4 * b for a, b in zip(cb.points[5], cb.points[2]))
        for decode, book in ((decode_layered, layered), (decode_very_strong_batch, cb)):
            for row in (y, np.array([float(v) for v in y])):
                with pytest.raises(DimensionMismatch):
                    decode(row, book, params)

    def test_two_layer_float_and_exact_paths_agree(self):
        coarse = codebook(2, ((1, 0), (0, 1)), scale=2)
        fine = codebook(2, ((1, 0), (0, 1)), scale=1)
        layered = LayeredCodebook(
            fine.lattice,
            [fine, coarse],
            [float(fine.average_power), float(coarse.average_power)],
        )
        params = ChannelParams(cross_gain=4.0, power=1.0, noise_var=1.0)
        exact_rows = [
            (Fraction(1, 4), Fraction(-3, 4)),
            (Fraction(-9, 8), Fraction(7, 8)),
            (Fraction(0), Fraction(2)),
            (Fraction(-2), Fraction(1, 8)),
        ]
        own_e, intf_e = decode_layered(exact_rows, layered, params)
        float_rows = np.array([[float(v) for v in r] for r in exact_rows])
        own_f, intf_f = decode_layered(float_rows, layered, params)
        for le, lf in zip(own_e, own_f):
            assert np.array_equal(le, lf)
        for le, lf in zip(intf_e, intf_f):
            assert np.array_equal(le, lf)

    def test_decoding_checks_stage_conditions(self):
        cb = codebook(2, ((1,),))
        layered = LayeredCodebook(cb.lattice, [cb, cb], [0.1, 10.0])
        params = ChannelParams(cross_gain=1.2, power=1.0, noise_var=0.1)
        with pytest.raises(StageConditionViolated):
            decode_layered(np.zeros((2, 1)), layered, params)
