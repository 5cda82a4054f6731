"""Channel model, regime classification, and the three decoders."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latsec import (
    BudgetExceeded,
    ChannelParams,
    ConstructionALattice,
    DimensionMismatch,
    LayeredCodebook,
    PointGrid,
    StageConditionViolated,
    UnityGain,
    ValidationError,
    achievable_rate_weak,
    build_layered,
    check_stage_conditions,
    classify_regime,
    decode_very_strong_batch,
    decode_weak,
    dither_rows,
    effective_noise_variance,
    enumerate_codebook,
    mmse_alpha,
    random_unimodular,
    stage_condition_witnesses,
    sum_structure,
)
from latsec import channel, lattices
from latsec.channel import (
    TRIAL_BLOCK,
    _Candidates,
    _decode_stages,
    _float_stages,
    _nearest,
    _trial_blocks,
)
from latsec.experiments import layered_reliability, noiseless_loopback, very_strong_reliability

import oracles
from exact_rows import grid, record_row_dtypes


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

    def test_negative_noise_rejected(self):
        # a negative noise variance used to pass as a very strong channel
        with pytest.raises(ValidationError) as exc:
            classify_regime(0.3, 1.0, -5.0)
        assert exc.value.field == "noise_var"
        assert classify_regime(0.3, 1.0, 0.0).tag == "weak"

    def test_overflowing_cross_gain_rejected(self):
        # a^3 overflows a float just above 5.6e102; the witnesses below it
        # keep a**3 exactly
        for a in (6e102, -6e102):
            with pytest.raises(ValidationError) as exc:
                classify_regime(a, 1.0)
            assert exc.value.field == "cross_gain"
        w = classify_regime(5e102, 1.0).witness
        assert w["weak_statistic"] == abs(5e102 + 5e102**3)


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

    def test_rate_without_interference_or_noise_is_inf(self):
        assert achievable_rate_weak(1.0, 0.0, 0.0) == math.inf
        assert achievable_rate_weak(1.0, -0.0, 0.0) == math.inf
        # a^2 P underflows to 0 or P / (a^2 P + N) overflows: the rate is finite
        for p, a, nv in ((1.0, 1e-200, 0.0), (1e300, 0.0, 1e-100)):
            with pytest.raises(ValidationError):
                achievable_rate_weak(p, a, nv)

    def test_overflowing_closed_forms_rejected(self):
        # P (a^2 P + N) overflows though the variance is about P
        with pytest.raises(ValidationError) as exc:
            effective_noise_variance(1e110, 1e60, 1.0)
        assert exc.value.field == "power"
        for a, p, nv, field in ((0.3, 1e300, 1.0, "power"), (0.3, 1.0, 1e300, "noise_var"),
                                (1e100, 1e150, 1.0, "power"), (0.3, 1e308, 1e308, "power")):
            with pytest.raises(ValidationError) as exc:
                classify_regime(a, p, nv)
            assert exc.value.field == field

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


def run_draws(trials, root_seed, sizes, n, dithers):
    """A run's draws from _trial_blocks joined over its blocks: (m1, m2,
    uniforms, noise), the messages of shape (layers, trials), the uniforms
    of shape (2, trials, n) or None and the normals of shape (trials, n)."""
    blocks = list(_trial_blocks(trials, root_seed, sizes, n, dithers))
    assert [b[0] for b in blocks] == list(range(0, trials, TRIAL_BLOCK))
    m1, m2 = (np.concatenate([b[k] for b in blocks], axis=1) for k in (1, 2))
    noise = np.concatenate([b[4] for b in blocks])
    if not dithers:
        assert all(b[3] is None for b in blocks)
        return m1, m2, None, noise
    return m1, m2, np.concatenate([b[3] for b in blocks], axis=1), noise


def standard_normal_cdf(x):
    return 0.5 * (1 + math.erf(x / math.sqrt(2)))


class TestTrialStreams:
    def test_streams_reproducible_and_distinct(self):
        # the same seed draws the same; another seed, or another block of
        # the same seed, draws otherwise
        sizes, n = (9, 3), 2
        first = run_draws(2 * TRIAL_BLOCK, 7, sizes, n, True)
        again = run_draws(2 * TRIAL_BLOCK, 7, sizes, n, True)
        other = run_draws(2 * TRIAL_BLOCK, 8, sizes, n, True)
        for a, b, c in zip(first, again, other):
            assert np.array_equal(a, b)
            assert not np.array_equal(a, c)
        m1, _, uniforms, noise = first
        block0, block1 = slice(0, TRIAL_BLOCK), slice(TRIAL_BLOCK, None)
        assert not np.array_equal(m1[:, block0], m1[:, block1])
        assert not np.array_equal(uniforms[:, block0], uniforms[:, block1])
        assert not np.array_equal(noise[block0], noise[block1])

    @pytest.mark.parametrize("dithers", [True, False])
    def test_a_run_is_a_prefix_of_every_longer_run(self, dithers):
        # each block draws whole, so trial t's draws do not depend on the
        # trial count: the runs agree on the trials they share
        sizes, n, seed = (9, 1, 3), 2, 11
        runs = [run_draws(trials, seed, sizes, n, dithers)
                for trials in (10, TRIAL_BLOCK + 37, 2 * TRIAL_BLOCK)]
        m1, m2, uniforms, noise = runs[-1]
        for run in runs[:-1]:
            rows = len(run[3])
            assert np.array_equal(run[0], m1[:, :rows])
            assert np.array_equal(run[1], m2[:, :rows])
            if dithers:
                assert np.array_equal(run[2], uniforms[:, :rows])
            else:
                assert run[2] is None
            assert np.array_equal(run[3], noise[:rows])

    def test_block_draws_are_uniform_and_normal(self):
        # the dither uniforms are uniform on [0, 1), and the normals through
        # the normal CDF too
        _, _, uniforms, noise = run_draws(2 * TRIAL_BLOCK, 2026, (2,), 2, True)
        chi2 = oracles.chi_square_uniform(uniforms.ravel().tolist(), 16, 0.0, 1.0)
        assert chi2 < oracles.CHI2_CRIT_DF15_P001
        probs = [standard_normal_cdf(x) for x in noise.ravel().tolist()]
        assert oracles.chi_square_uniform(probs, 16, 0.0, 1.0) < oracles.CHI2_CRIT_DF15_P001

    def test_negative_root_seed_raises(self):
        with pytest.raises(ValueError):
            next(_trial_blocks(1, -1, (2,), 1))

    def test_dither_stays_in_coarse_cell_and_is_uniform(self):
        lat = ConstructionALattice(2, ((1,),), None, 1)
        rng = np.random.default_rng([2026, 0])
        samples = dither_rows(lat, rng.random((20000, 1)))[:, 0].tolist()
        assert min(samples) >= -0.5
        assert max(samples) < 0.5
        chi2 = oracles.chi_square_uniform(samples, 16, -0.5, 0.5)
        assert chi2 < oracles.CHI2_CRIT_DF15_P001

    def test_dither_scales_with_coarse_cell(self):
        lat = ConstructionALattice(2, ((1,),), None, Fraction(3, 2))
        rng = np.random.default_rng([2026, 1])
        samples = dither_rows(lat, rng.random((500, 1)))[:, 0].tolist()
        assert min(samples) >= -0.75
        assert max(samples) < 0.75

    def test_dithers_are_the_centred_cube_whatever_t(self):
        # T is unimodular, so the coarse cell is the cube scale [-1/2, 1/2)^n
        # for every T: the fold leaves each dither where it is, and the
        # cube's ends hold at u = 0 and at the largest u below 1
        t = random_unimodular(5, seed=[5, 5])
        lat = ConstructionALattice(3, ((1,), (2,), (0,), (1,), (1,)), t, Fraction(5, 4))
        uniforms = np.random.default_rng(8).random((1000, 5))
        uniforms[0] = 0.0
        uniforms[1] = np.nextafter(1.0, 0.0)
        dithers = dither_rows(lat, uniforms)
        assert np.array_equal(dithers, 1.25 * (uniforms - 0.5))
        assert np.array_equal(lat.mod_coarse(dithers), dithers)
        assert (dithers[0] == -0.625).all() and (dithers[1] < 0.625).all()


# sizes below, at and above 2^32; numpy's integers rejects and redraws a
# word for 2^31 + 1 and 3 * 2^30 about one time in two and in four
DRAW_SIZES = [1, 2, 3, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32, 2**32 + 1]


class TestTrialDraws:
    @pytest.mark.parametrize("size", DRAW_SIZES)
    def test_messages_match_generator_integers(self, size):
        # block b's messages are default_rng([seed, b]).integers below one
        # layer's size for a whole block, one call per layer, user 1's layers
        # then user 2's; each message is uniform below its size (bins of
        # whole messages below 16, where the 15-degree critical value bounds
        # the smaller ones' from above)
        sizes, trials = (size, 5), 2 * TRIAL_BLOCK
        m1, m2, _, _ = run_draws(trials, 31, sizes, 1, False)
        for b in range(2):
            rng = np.random.default_rng([31, b])
            want = [rng.integers(0, bound, size=TRIAL_BLOCK) for bound in (size, 5, size, 5)]
            rows = slice(b * TRIAL_BLOCK, (b + 1) * TRIAL_BLOCK)
            assert np.array_equal(np.vstack([m1[:, rows], m2[:, rows]]), want)
        assert m1.dtype == m2.dtype == np.int64
        messages = np.concatenate([m1[0], m2[0]]).tolist()
        if size == 1:
            assert not any(messages)
        else:
            chi2 = oracles.chi_square_uniform(messages, min(size, 16), 0, size)
            assert chi2 < oracles.CHI2_CRIT_DF15_P001


def _blocks_digest(trials, root_seed, sizes, n, dithers):
    """sha256 over every block _trial_blocks yields: each block's start,
    then each array's dtype, shape and values."""
    h = hashlib.sha256()
    for start, *arrays in _trial_blocks(trials, root_seed, sizes, n, dithers):
        h.update(f"start {start};".encode())
        for a in arrays:
            if a is None:
                h.update(b"none;")
            else:
                h.update(f"{a.dtype.str} {a.shape};".encode())
                h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# (trials, sizes, n, dithers): the layered_mc shape; a weak-scheme run with
# dithers; a layer above 2^32, which numpy draws on its 64-bit integer path;
# and one whose sizes make numpy reject and redraw words often
BLOCK_RUNS = {
    "layered": (40_000, (9, 3), 3, False),
    "weak": (2_100, (9,), 4, True),
    "wide": (TRIAL_BLOCK + 37, (2**32 + 1, 5), 2, False),
    "rejecting": (TRIAL_BLOCK + 37, (3 * 2**30, 1, 2), 2, True),
}
BLOCK_SEEDS = [0, 1, 2**64 - 1, 2**100 + 3]
# digests of whole runs of block draws: a row of any block that moves one
# bit moves these
BLOCK_DIGESTS = {
    "layered": [
        "fca914915c6ee910becccbf5987594a581cdb92ca121a9efe619e72eff7574f7",
        "91b46db9800a78acf449144ceaec2a5491994737caa7bd55b71587a4c0f064a5",
        "66ecf445555f8ece565ae503823798d1c165fa16bcb8db1ce05a6ada3ec57277",
        "921b45935c661e1455132be0b6ea41feadd841c514a6f8c372d536f1034e5efa",
    ],
    "weak": [
        "8098a2f3a393f34a57313e635c7a269cd12270166179493a7a75ec89aeaacd98",
        "580d5a587fb9a7d09549a86624f5c86a87dba974aa8cc6b6049f85c8ed55e44c",
        "a73ed28b2945e3fff890c64689f5c9a62397052ed6a061e1bdeb5fe639ea9d0c",
        "5f5f090eb7f78be743703cf30a83812ee8d585309625336851cad0089871bf64",
    ],
    "wide": [
        "f11ecdc7d19dea9be5f816b5c5b7e284c86f6d9dd70db919508ae1808eb106da",
        "63dfd4cb176e4dfbb8c2e7e42661ccb004e192ef528724ca7ee3562bd146b03c",
        "a89d4d2d8a6547bf7fad20d3675b25a06063817316aa9da08808c580160f8611",
        "85dcdd334e44e5333f3ff3994e34fd9345a7077b5114e34f77cc9c704039e793",
    ],
    "rejecting": [
        "84dae1508d296e336e87a9b3f57194441d7de80cf34eebf1837c5056a3ea4408",
        "dc95a166fd54beac0a876dac6e139b9986a1e24422d8f7174a676cac525b72a3",
        "d79638202717df6133cf06993fd09439221bcebc63f120985e133709fcb19b7d",
        "012f8eb0f4f17cabcaa826b44e948c7bdcf5052718ecb3bc07c2cc5d13086e83",
    ],
}


@pytest.mark.parametrize("run", sorted(BLOCK_RUNS))
@pytest.mark.parametrize("seed_at", range(len(BLOCK_SEEDS)))
def test_trial_blocks_keep_their_pinned_digests(run, seed_at):
    trials, sizes, n, dithers = BLOCK_RUNS[run]
    got = _blocks_digest(trials, BLOCK_SEEDS[seed_at], sizes, n, dithers)
    assert got == BLOCK_DIGESTS[run][seed_at]


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
            x = lat.mod_coarse(grid([tuple(a + b for a, b in zip(pt, u)) for pt in cb.points]))
            shifted = [tuple(a - b for a, b in zip(pt, u)) for pt in x.points]
            assert lat.mod_coarse(grid(shifted)).points == cb.points

    def test_float_dither_round_trips_through_the_channel(self):
        # One weak trial by hand: the first trial's draws, encode by the
        # fold, then receiver 1's channel, y1 = x1 + a x2 + sqrt(N) z1,
        # written out here; the folded signal minus the dither is the
        # codeword modulo the coarse lattice.
        cb = codebook(2, ((1, 0), (0, 1)))
        lat = cb.lattice
        params = ChannelParams(cross_gain=0.5, power=1.0, noise_var=0.25)
        m1, m2, uniforms, noise = run_draws(1, 5, (len(cb),), 2, True)
        m = [int(m1[0, 0]), int(m2[0, 0])]
        u = dither_rows(lat, uniforms[:, 0])
        x = lat.mod_coarse(cb.float_matrix()[m] + u)
        assert ((-0.5 <= x) & (x < 0.5)).all()
        y1 = channel._received_1(x[0], x[1], params, noise[0])
        assert np.array_equal(y1, x[0] + 0.5 * x[1] + 0.5 * noise[0])
        back = lat.mod_coarse(x - u)
        assert back == pytest.approx(lat.mod_coarse(cb.float_matrix()[m]), abs=1e-12)


# Zero cross gain and zero noise make the MMSE scaling exactly 1.
UNIT_ALPHA = ChannelParams(cross_gain=0.0, power=1.0, noise_var=0.0)


class TestWeakDecoder:
    def test_unit_scaling_recovers_every_message_noiselessly(self):
        cb = codebook(2, ((1, 0), (0, 1)))
        lat = cb.lattice
        u = [(Fraction(1, 3), Fraction(-1, 5))]
        x = lat.mod_coarse(grid([tuple(a + b for a, b in zip(pt, u[0])) for pt in cb.points]))
        estimate = decode_weak(x, grid(u), UNIT_ALPHA, lat)
        assert isinstance(estimate, PointGrid)
        assert estimate.unit == cb.unit
        assert np.array_equal(estimate.coords, cb.coords)
        floats = decode_weak(x.float_matrix(), np.array(u, dtype=float), UNIT_ALPHA, lat)
        assert np.array_equal(floats.coords, cb.coords)

    def test_exact_entry_point_matches_explicit_alpha(self):
        cb = codebook(2, ((1, 0), (0, 1)))
        lat = cb.lattice
        params = ChannelParams(cross_gain=0.3, power=1.0, noise_var=1.0)
        alpha = Fraction(mmse_alpha(params.power, params.cross_gain, params.noise_var))
        ys = [(Fraction(3, 8), Fraction(-1, 4)), (Fraction(-5, 6), Fraction(1, 2))]
        us = [(Fraction(1, 7), Fraction(2, 9)), (Fraction(0), Fraction(-1, 3))]
        v = [tuple(alpha * yi - ui for yi, ui in zip(y, u)) for y, u in zip(ys, us)]
        expected = lat.mod_coarse(lat.quantize_fine(lat.mod_coarse(grid(v))))
        got = decode_weak(grid(ys), grid(us), params, lat)
        assert got.unit == expected.unit == cb.unit
        assert got.points == expected.points

    def test_a_vanishing_mmse_factor_decodes_exact_rows_as_floats(self):
        # a^2 overflows, so alpha is 0.0 and alpha y the origin: the exact
        # path decodes -u on the dither's unit, as the float path decodes
        # 0 * y - u
        cb = codebook(3, ((1, 0), (0, 1)))
        lat = cb.lattice
        params = ChannelParams(cross_gain=1e200, power=1.0)
        assert mmse_alpha(params.power, params.cross_gain, params.noise_var) == 0.0
        ys = grid([(Fraction(3, 8), Fraction(-1, 4)), (Fraction(-5, 6), Fraction(1, 2))])
        for us in ([(Fraction(1, 7), Fraction(-2, 9))],
                   [(Fraction(1, 7), Fraction(2, 9)), (Fraction(0), Fraction(-1, 3))]):
            exact = decode_weak(ys, grid(us), params, lat)
            floats = decode_weak(ys.float_matrix(), grid(us).float_matrix(), params, lat)
            expected = lat.mod_coarse(lat.quantize_fine(-grid(us).float_matrix()))
            assert exact.unit == floats.unit == cb.unit
            assert np.array_equal(exact.coords, floats.coords)
            assert np.array_equal(exact.coords, np.broadcast_to(expected.coords, exact.coords.shape))

    def test_exact_entry_point_rows_take_python_ints(self, monkeypatch):
        # Fraction(alpha) has a denominator near 2^54: the MMSE-scaled rows
        # are quantised on Python ints, with no fold before; the quantised
        # points, back over scale / p, fold in int64
        cb = codebook(2, ((1, 0), (0, 1)))
        params = ChannelParams(cross_gain=0.3, power=1.0, noise_var=1.0)
        ys = [(Fraction(3, 8), Fraction(-1, 4)), (Fraction(-5, 6), Fraction(1, 2))]
        us = [(Fraction(1, 7), Fraction(2, 9)), (Fraction(0), Fraction(-1, 3))]
        seen = record_row_dtypes(monkeypatch)
        decode_weak(grid(ys), grid(us), params, cb.lattice)
        assert seen == [np.dtype(object), np.dtype(np.int64)]

    def test_dithers_of_another_count_or_width_rejected(self):
        # numpy's broadcasting raised ValueError for 3 dithers on 2 rows;
        # one dither of width 1 broadcast silently across both columns
        lat = codebook(3, ((1, 0), (0, 1))).lattice
        rows = PointGrid(Fraction(1, 6), [[1, 2], [3, -1]])
        for dither in ([[0, 0]] * 3, [[0]], [[0, 0, 0]]):
            exact = PointGrid(Fraction(1, 7), dither)
            for y, u in ((rows, exact), (rows.float_matrix(), exact.float_matrix())):
                with pytest.raises(DimensionMismatch):
                    decode_weak(y, u, UNIT_ALPHA, lat)

    def test_reliability_improves_with_repetition_length(self):
        sigma = 0.2
        trials = 600
        rates = {}
        for n in (1, 2, 4):
            g = tuple((1,) for _ in range(n))
            cb = codebook(2, g)
            m1, _, _, noise = run_draws(trials, 424242, (len(cb),), n, False)
            m = m1[:, 0]
            y = cb.float_matrix()[m] + noise[:, :n] * sigma
            decoded = decode_weak(y, np.zeros(n), UNIT_ALPHA, cb.lattice)
            errors = (decoded.coords != cb.coords[m]).any(axis=1).sum()
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
        own, intf = decode_very_strong_batch(grid(rows), cb, params)
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
        own_e, intf_e = decode_very_strong_batch(grid(rows), cb, params)
        assert np.array_equal(own_f, own_e)
        assert np.array_equal(intf_f, intf_e)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_rows_raise(self, bad):
        cb = codebook(3, ((1, 0), (0, 1)))
        params = ChannelParams(cross_gain=4.0, power=1.0)
        rows = np.array([[0.0, 0.0], [bad, 1.0]])
        with pytest.raises(ValidationError):
            decode_very_strong_batch(rows, cb, params)
        # the layered Monte Carlo decodes its rows over the same stages
        with pytest.raises(ValidationError):
            _decode_stages(rows, _float_stages([cb], params.cross_gain))

    def test_exact_rows_past_int64_bound_raise(self):
        # A coordinate with a huge prime denominator makes the shared grid
        # so fine that squared distances would overflow int64.
        cb = codebook(2, ((1,),))
        params = ChannelParams(cross_gain=4.0, power=1.0)
        tiny = Fraction(1, 2**31 + 1)
        rows = grid([(Fraction(0) + tiny,), (Fraction(-5, 2) + tiny,)])
        with pytest.raises(BudgetExceeded):
            decode_very_strong_batch(rows, cb, params)
        grid_rows = grid([(Fraction(0),), (Fraction(-5, 2),)])
        own_g, intf_g = decode_very_strong_batch(grid_rows, cb, params)
        assert own_g.tolist() == [0, 1] and intf_g.tolist() == [0, 1]


def nearest(rows, pts):
    """_nearest over pts prepared as one stage's candidates."""
    return _nearest(rows, _Candidates(pts))


def nearest_brute(rows, pts):
    """Per row, the lowest index of a nearest point: exact arithmetic on
    Python ints or Fractions, ||r - p||^2 written out."""
    out = []
    for r in rows:
        dist = [sum((a - b) ** 2 for a, b in zip(r, pt)) for pt in pts]
        out.append(dist.index(min(dist)))
    return out


@st.composite
def rows_and_points(draw, bounds=(3, 2**20, 2**28)):
    """Integer rows and points with forced ties: a repeated point, and the
    mirror 2 r - p of a point p through a row r, which is as near r as p.
    Entries are drawn within one of bounds; a mirror reaches three times it."""
    n = draw(st.integers(1, 4))
    bound = draw(st.sampled_from(bounds))
    vec = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
    rows = draw(st.lists(vec, min_size=1, max_size=6))
    pts = draw(st.lists(vec, min_size=1, max_size=6))
    index = st.integers(0, len(pts) - 1)
    extra = [pts[i] for i in draw(st.lists(index, max_size=2))]
    for r, i in draw(st.lists(st.tuples(st.sampled_from(rows), index), max_size=3)):
        extra.append([2 * a - b for a, b in zip(r, pts[i])])
    return rows, draw(st.permutations(pts + extra))


class TestExactNearest:
    """Exact stages rank points by ||p||^2 - 2 r.p, in float64 while every
    term stays below 2^53 and in int64 past it; that must pick what
    ||r - p||^2 in Python ints picks, ties to the lowest index."""

    @settings(max_examples=200)
    @given(rows_and_points())
    @example(([[0, 0]], [[1, 0], [0, 1], [-1, 0], [1, 0]]))
    def test_expanded_argmin_matches_python_ints(self, drawn):
        rows, pts = drawn
        r, p = np.array(rows, dtype=np.int64), np.array(pts, dtype=np.int64)
        got = nearest(r, p)
        assert got.tolist() == nearest_brute(rows, pts)

    @settings(max_examples=40)
    @given(
        n=st.integers(1, 3),
        gain=st.sampled_from([Fraction(2), Fraction(5, 2), Fraction(7, 4), Fraction(2**20 + 1)]),
        data=st.data(),
    )
    def test_rows_at_the_guard(self, n, gain, data):
        # Rows over the codebook's unit, codeword coordinates in {-1, 0, 1}:
        # reach = peak aden + 2 (anum + aden), and the guard admits it while
        # n (2 reach)^2 < 2^62
        cb = codebook(3, ((1,),) * n)
        params = ChannelParams(cross_gain=float(gain), power=1.0)
        top = math.isqrt((2**62 - 1) // (4 * n))
        peak = (top - 2 * (gain.numerator + gain.denominator)) // gain.denominator
        entry = st.integers(-peak, peak)
        coords = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=5))
        coords.append(data.draw(st.lists(st.sampled_from([-peak, peak]), min_size=n, max_size=n)))
        rows = PointGrid(cb.unit, coords)
        own, intf = decode_very_strong_batch(rows, cb, params)
        for row, i, j in zip(rows.points, own.tolist(), intf.tolist()):
            assert j == nearest_brute([row], [[gain * c for c in pt] for pt in cb.points])[0]
            rest = [v - gain * c for v, c in zip(row, cb.points[j])]
            assert i == nearest_brute([rest], cb.points)[0]
        coords[-1][0] = peak + 1
        with pytest.raises(BudgetExceeded):
            decode_very_strong_batch(PointGrid(cb.unit, coords), cb, params)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("gain", [Fraction(2), Fraction(5, 2), Fraction(2**20 + 1)])
    def test_rows_at_the_float_bound(self, monkeypatch, n, gain):
        # As in test_rows_at_the_guard, at 2^53: the largest peak with
        # n (2 reach)^2 < 2^53 scores in float64, one grid step more in int64
        cb = codebook(3, ((1,),) * n)
        params = ChannelParams(cross_gain=float(gain), power=1.0)
        top = math.isqrt((2**53 - 1) // (4 * n))
        below = (top - 2 * (gain.numerator + gain.denominator)) // gain.denominator
        seen = []
        decode = channel._decode_stages

        def spy(resid, stages):
            seen.append((resid.dtype, [(own.bound, intf.bound) for own, intf in stages]))
            return decode(resid, stages)

        monkeypatch.setattr(channel, "_decode_stages", spy)
        rng = np.random.default_rng(n)
        for peak, dtype in ((below, np.float64), (below + 1, np.int64)):
            reach = peak * gain.denominator + 2 * (gain.numerator + gain.denominator)
            assert (n * (2 * reach) ** 2 < 2**53) == (dtype == np.float64)
            corners = [[peak if (i >> j) & 1 else -peak for j in range(n)] for i in range(2**n)]
            inner = rng.integers(-peak, peak + 1, size=(4, n)).tolist()
            rows = PointGrid(cb.unit, corners + inner)
            del seen[:]
            own, intf = decode_very_strong_batch(rows, cb, params)
            assert seen == [(np.dtype(dtype), [(None, None)])]
            for row, i, j in zip(rows.points, own.tolist(), intf.tolist()):
                assert j == nearest_brute([row], [[gain * c for c in pt] for pt in cb.points])[0]
                rest = [v - gain * c for v, c in zip(row, cb.points[j])]
                assert i == nearest_brute([rest], cb.points)[0]

    @settings(max_examples=200)
    @given(rows_and_points(bounds=(3, 2**10, 2**22)))
    @example(([[0, 0]], [[1, 0], [0, 1], [-1, 0], [1, 0]]))
    @example(([[2**22]], [[2**22 - 1], [2**22 + 1], [-(2**22)]]))
    # one coordinate at the largest reach with 4 reach^2 < 2^53: a tie
    @example(([[47453131]], [[-47453132], [47453130], [47453132]]))
    def test_float64_scores_match_int64(self, drawn):
        # integer rows and points whose every score term stays below 2^53:
        # float64 and int64 scores pick the same index, ties included
        rows, pts = drawn
        reach = max(abs(v) for v in [*sum(rows, []), *sum(pts, [])])
        assume(len(rows[0]) * (2 * reach) ** 2 < 2**53)
        r, p = np.array(rows, dtype=np.int64), np.array(pts, dtype=np.int64)
        exact = channel._Candidates(p.astype(np.float64), exact=True)
        assert exact.bound is None
        got = _nearest(r.astype(np.float64), exact)
        assert got.tolist() == nearest(r, p).tolist() == nearest_brute(rows, pts)


class TestExactDecodeGridBound:
    """_exact_decode_grid takes reach from each grid's peak, and scans only
    where that reaches 2^53: at the 2^53 and 2^62 boundary rows, and for
    grids whose bound overestimates, it must choose what the bound of the
    scanned on-grid arrays chooses."""

    @staticmethod
    def scanned_choice(rows, cb, gain):
        _, (y, c) = lattices.on_grid(rows, cb)
        peak = [max(lattices._peak(a), 1) for a in (y, c)]
        reach = peak[0] * gain.denominator + 2 * (gain.numerator + gain.denominator) * peak[1]
        bound = y.shape[1] * (2 * reach) ** 2
        return None if bound >= 2**62 else np.dtype(np.float64 if bound < 2**53 else np.int64)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("gain", [Fraction(2), Fraction(5, 2), Fraction(2**20 + 1)])
    def test_dtype_at_the_boundaries(self, n, gain):
        # the rows of test_rows_at_the_float_bound and test_rows_at_the_guard:
        # the largest peak below each limit, and one grid step more
        cb = codebook(3, ((1,),) * n)
        choices = []
        for limit in (2**53, 2**62):
            top = math.isqrt((limit - 1) // (4 * n))
            below = (top - 2 * (gain.numerator + gain.denominator)) // gain.denominator
            for peak in (below, below + 1):
                rows = PointGrid(cb.unit, [[peak] * n, [-peak] + [0] * (n - 1)])
                want = self.scanned_choice(rows, cb, gain)
                choices.append(want)
                if want is None:
                    with pytest.raises(BudgetExceeded):
                        channel._exact_decode_grid(rows, cb, gain)
                    continue
                y, own, intf = channel._exact_decode_grid(rows, cb, gain)
                assert y.dtype == own.dtype == intf.dtype == want
        assert choices == [np.dtype(np.float64), np.dtype(np.int64), np.dtype(np.int64), None]

    @pytest.mark.parametrize("bound", [2**26, 2**40, 2**62])
    def test_a_loose_bound_decides_nothing(self, bound):
        # rows whose construction bound is far above their coordinates: the
        # bound alone would pick int64 or refuse; the scans pick float64
        cb = codebook(3, ((1,), (1,)))
        rows = PointGrid(cb.unit, [[1, -1], [0, 1]], _bound=bound)
        assert self.scanned_choice(rows, cb, Fraction(2)) == np.float64
        y, own, intf = channel._exact_decode_grid(rows, cb, Fraction(2))
        assert y.dtype == own.dtype == intf.dtype == np.float64
        assert y.tolist() == [[1, -1], [0, 1]] and intf.tolist() == (2 * cb.coords).tolist()


class TestInputsAreNotWritten:
    """on_grid hands back a grid's own coords when its unit is the common
    one, so no caller may write to what it gets: every input grid's coords
    keep their bytes through the exact entry points."""

    @staticmethod
    def snapshot(*grids):
        return [(g.coords.dtype, g.coords.shape, g.coords.tobytes()) for g in grids]

    def test_exact_entry_points(self):
        lat = ConstructionALattice(3, ((1, 0), (0, 1), (1, 2)), random_unimodular(3, [3, 7]), 1)
        cb = enumerate_codebook(lat)
        other = PointGrid(cb.unit / 2, [[1, -3, 2], [0, 5, -1]])
        rows = PointGrid(cb.unit, (cb.coords[:, None, :] + 4 * cb.coords).reshape(-1, 3))
        dither = lat.mod_coarse(PointGrid(Fraction(1, 7), [[1, 2, 3]]))
        grids = (cb, other, rows, dither)
        before = self.snapshot(*grids)
        table = lat.message_coords(np.arange(lat.num_cosets))
        assert noiseless_loopback(cb)["all_ok"]
        sum_structure(cb, cb)
        sum_structure(cb, other)
        sum_structure(other, other)
        quiet = ChannelParams(cross_gain=0.0, power=1.0, noise_var=0.0)
        decode_weak(rows, dither, quiet, lat)
        decode_weak(dither, dither, quiet, lat)
        own, intf = decode_very_strong_batch(rows, cb, ChannelParams(cross_gain=4.0, power=1.0))
        assert np.array_equal(own, np.repeat(np.arange(len(cb)), len(cb)))
        # a gain of 9/2 scales every on-grid array, so a write in place would show
        decode_very_strong_batch(other, cb, ChannelParams(cross_gain=4.5, power=1.0))
        decode_very_strong_batch(rows, cb, ChannelParams(cross_gain=4.5, power=1.0))
        layered = build_layered(lat, [(2, Fraction(1)), (1, Fraction(3))], [math.inf, math.inf])
        assert self.snapshot(*grids) == before
        assert np.array_equal(cb.coords, table) and np.array_equal(lat.message_table, table)
        for layer in layered.layers:
            assert np.array_equal(layer.coords, layer.lattice.message_coords(np.arange(len(layer))))


class TestFloatNearest:
    """Float stages rank points in chunks of rows, and uncertified rows by
    ||r - p||^2 in chunks of their own; the chunks must pick what one
    (rows, points, n) temporary picks, bit for bit."""

    @pytest.mark.parametrize("rows_per_chunk", [1, 7, 64])
    def test_chunked_argmin_matches_one_temporary(self, monkeypatch, rows_per_chunk):
        cb = codebook(3, ((1, 0), (0, 1), (1, 1)), Fraction(5, 3))
        pts = cb.float_matrix()
        rng = np.random.default_rng(12)
        rows = rng.normal(scale=2.0, size=(200, 3))
        rows[:8] = (pts[:8] + pts[1:]) / 2  # midpoints of two codewords: ties
        whole = ((rows[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        monkeypatch.setattr(lattices, "_GATHER_LIMIT", rows_per_chunk * pts.size)
        assert np.array_equal(nearest(rows, pts), whole)

    def test_chunked_decoding_matches_the_default_limit(self, monkeypatch):
        cb = codebook(3, ((1, 0), (0, 1)))
        params = ChannelParams(cross_gain=2.0, power=1.0)
        rows = np.random.default_rng(3).normal(scale=3.0, size=(300, 2))
        want = decode_very_strong_batch(rows, cb, params)
        monkeypatch.setattr(lattices, "_GATHER_LIMIT", 1)
        got = decode_very_strong_batch(rows, cb, params)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("rows_per_chunk", [1, 7, 64])
    def test_score_chunks_match_one_temporary(self, monkeypatch, rows_per_chunk):
        cb = codebook(3, ((1, 0), (0, 1), (1, 1)), Fraction(5, 3))
        params = ChannelParams(cross_gain=2.5, power=1.0)
        pts = cb.float_matrix()
        rows = np.random.default_rng(5).normal(scale=3.0, size=(200, 3))
        rows[:8] = (pts[:8] + pts[1:]) / 2  # ties, left to the float distance
        whole = float_distance_argmin(rows, pts)
        want = decode_very_strong_batch(rows, cb, params)
        monkeypatch.setattr(lattices, "_GATHER_LIMIT", rows_per_chunk * len(pts))
        assert np.array_equal(nearest(rows, pts), whole)
        got = decode_very_strong_batch(rows, cb, params)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def float_distance_argmin(rows, pts):
    """The float distance fl(sum_i (r_i - p_i)^2) over one (rows, points, n)
    temporary, ties to the lowest index; overflow gives inf, silently."""
    with np.errstate(over="ignore"):
        return ((rows[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)


def record_distance_rows(monkeypatch) -> list:
    """Spy on channel._nearest_by_distance: the list it returns collects the
    (rows, points) of every call, that is, the float rows _nearest left
    uncertified."""
    seen = []
    by_distance = channel._nearest_by_distance

    def spy(rows, pts):
        seen.append((rows.copy(), pts))
        return by_distance(rows, pts)

    monkeypatch.setattr(channel, "_nearest_by_distance", spy)
    return seen


def row_set(rows) -> set:
    return {tuple(r) for r in rows.tolist()}


def stated_bound(row, pts) -> float:
    """The gap bound of _nearest's docstring for a float row: k_s (P + 2 R M)
    + k_d (R^2 + P) + n 2^-1070, written out independently."""
    u = 2.0**-53
    n = len(row)

    def gamma(k):
        return k * u / (1 - k * u)

    slack = 1 + gamma(3 * n + 8)
    big_p = max(sum(v * v for v in p) for p in pts)
    m = max(abs(v) for p in pts for v in p)
    r = sum(abs(v) for v in row)
    score_term = 2 * gamma(n + 1) * slack * (big_p + 2 * r * m)
    distance_term = 4 * gamma(n + 2) * slack * (r * r + big_p)
    return score_term + distance_term + n * 2.0**-1070


@st.composite
def float_rows_and_points(draw):
    """Float rows and points: duplicate points, rows at midpoints of two
    points, and rows and points far out, where the scores or the distances
    overflow."""
    n = draw(st.integers(1, 4))
    scale = draw(st.sampled_from([1.0, 5 / 3, 2.5, 1e150]))
    vec = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    pts = [[scale * v for v in p] for p in draw(st.lists(vec, min_size=1, max_size=6))]
    index = st.integers(0, len(pts) - 1)
    pts += [pts[i] for i in draw(st.lists(index, max_size=2))]
    reach = draw(st.sampled_from([1.0, 1e150, 1e300]))
    coord = st.floats(-4, 4).map(lambda v: v * reach)
    rows = draw(st.lists(st.lists(coord, min_size=n, max_size=n), max_size=6))
    for i, j in draw(st.lists(st.tuples(index, index), max_size=3)):
        rows.append([(a + b) / 2 for a, b in zip(pts[i], pts[j])])
    pts = draw(st.permutations(pts))
    return np.array(rows, dtype=np.float64).reshape(-1, n), np.array(pts)


# lattices._GATHER_LIMIT as set, whose chunks here hold every row, and one
# entry, whose chunks hold one row: _nearest forms a float score block
# point-major where a chunk holds at least as many rows as points, else
# row-major, so the first takes both layouts as rows and points come and the
# second only row-major
SCORE_LIMITS = (lattices._GATHER_LIMIT, 1)


def nearest_at_limit(rows, pts, limit):
    """nearest(rows, pts) with lattices._GATHER_LIMIT set to limit."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattices, "_GATHER_LIMIT", limit)
        return nearest(rows, pts)


class TestCertifiedNearest:
    """Float rows are ranked by ||p||^2 - 2 r.p and keep that ranking only
    when its gap beats the bound in _nearest's docstring; every row must get
    the index the float distance ||r - p||^2 gives, ties to the lowest."""

    @settings(max_examples=300)
    @given(float_rows_and_points())
    @example((np.empty((0, 2)), np.array([[1.0, 0.0], [0.0, 1.0]])))
    @example((np.array([[0.5, 0.5]]), np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])))
    @example((np.array([[1e200]]), np.array([[1e200], [-1e200]])))
    @example((np.array([[3e300, -1e300]]), np.array([[1.0, 0.0], [0.0, 1.0]])))
    # the scores are finite and rank point 1 first, but both distances
    # overflow, which leaves point 0 first
    @example((np.array([[1e154]]), np.array([[-5e153], [-4e153]])))
    # a tie where the squares underflow: only the underflow term of the
    # bound keeps the row from a certified, wrong index
    @example((np.array([[(2 * 1.7e-158 + 1.7e-158) / 2]]), np.array([[2 * 1.7e-158], [1.7e-158]])))
    def test_matches_the_float_distance(self, drawn):
        # warnings are errors in this suite: scores that overflow must not warn
        rows, pts = drawn
        want = float_distance_argmin(rows, pts)
        for limit in SCORE_LIMITS:
            assert np.array_equal(nearest_at_limit(rows, pts, limit), want)

    def test_rows_near_ties_take_the_float_distance(self, monkeypatch):
        cb = codebook(3, ((1, 0), (0, 1), (1, 1)), Fraction(5, 3))
        a = 2.5
        params = ChannelParams(cross_gain=a, power=1.0)
        pts = cb.float_matrix()
        exact = [[Fraction(v) for v in p] for p in pts.tolist()]
        dist = [[sum((x - y) ** 2 for x, y in zip(pi, pj)) / 4 for pj in exact] for pi in exact]
        # midpoints of two codewords with no nearer codeword: genuine ties
        ties = []
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                mid = [(x + y) / 2 for x, y in zip(exact[i], exact[j])]
                if all(sum((x - y) ** 2 for x, y in zip(mid, q)) >= dist[i][j] for q in exact):
                    ties.append((pts[i] + pts[j]) / 2)
        assert len(ties) >= 4
        near = []
        for mid in ties:
            for steps in (-3, -1, 0, 1, 3):
                row = mid.copy()
                for _ in range(abs(steps)):
                    row = np.nextafter(row, math.copysign(math.inf, steps))
                near.append(row)
        near = np.array(near)
        # noiseless rows a p_k + p_m: far from every tie in both stages
        clean = np.array([a * pts[k] + pts[m] for k in range(len(pts)) for m in range(len(pts))])
        seen = record_distance_rows(monkeypatch)
        for stage_pts, ties in ((pts, near), (a * pts, a * near)):
            rows = np.concatenate([ties, clean])
            del seen[:]
            got = nearest(rows, stage_pts)
            assert np.array_equal(got, float_distance_argmin(rows, stage_pts))
            assert row_set(np.concatenate([r for r, _ in seen])) == row_set(ties)
        # decoding: the interferer stage leaves its ties to the float distance
        del seen[:]
        own, intf = decode_very_strong_batch(np.concatenate([a * near, clean]), cb, params)
        first, stage_pts = seen[0]
        assert np.array_equal(stage_pts, a * pts)
        assert row_set(first) == row_set(a * near)
        assert own[len(near) :].tolist() == [m for _ in range(len(pts)) for m in range(len(pts))]
        assert intf[len(near) :].tolist() == [k for k in range(len(pts)) for _ in range(len(pts))]

    def test_certified_exactly_past_the_stated_bound(self, monkeypatch):
        # ||p||^2 - 2 r.p is exact for these points, so a row's float gap is
        # its exact gap |1 - 2 r_1|; r_2 sets R, and with it each term's share
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        rows = []
        for r2 in (1.0, 3.0, 6.0):
            bound = stated_bound([0.5, r2], pts)
            for ratio in (0.3, 0.7, 0.93, 0.97, 1.03, 1.07, 1.5, 3.0):
                for side in (-1, 1):
                    rows.append([0.5 + side * ratio * bound / 2, r2])
        rows = np.array(rows)
        seen = record_distance_rows(monkeypatch)
        for limit in SCORE_LIMITS:
            del seen[:]
            got = nearest_at_limit(rows, pts, limit)
            fell_back = row_set(np.concatenate([part for part, _ in seen]))
            for row, index in zip(rows.tolist(), got.tolist()):
                ratio = abs(1 - 2 * Fraction(row[0])) / Fraction(stated_bound(row, pts))
                assert abs(ratio - 1) > 0.001
                assert (tuple(row) in fell_back) == (ratio < 1)
                assert index == (0 if row[0] < 0.5 else 1)

    def test_a_gap_at_the_stated_bound_is_not_certified(self, monkeypatch):
        # under the points of the test above, rows (1/2 - d, r_2) and
        # (1/2 + d, r_2) have the exact gap 2 d. For d a multiple of ulp(1/2)
        # near half the bound, r_2 is bisected to the least float whose bound
        # reaches 2 d: where the bound equals the gap, the row must fall back,
        # and at the float below that r_2 it is certified
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])

        def bits(x):
            return int(np.float64(x).view(np.int64))

        def value(b):
            return float(np.int64(b).view(np.float64))

        at, below = [], []
        for r2 in (1.0, 3.0, 6.0):
            for shift in range(-4, 5):
                d = math.ulp(0.5) * (round(stated_bound([0.5, r2], pts) / 2 / math.ulp(0.5)) + shift)
                for r1 in (0.5 - d, 0.5 + d):
                    lo, hi = bits(r2 - 0.5), bits(r2 + 0.5)
                    while hi - lo > 1:
                        mid = (lo + hi) // 2
                        lo, hi = (lo, mid) if stated_bound([r1, value(mid)], pts) >= 2 * d else (mid, hi)
                    if stated_bound([r1, value(hi)], pts) == 2 * d:
                        at.append([r1, value(hi)])
                        below.append([r1, value(lo)])
        assert len(at) >= 10
        rows = np.array(at + below)
        seen = record_distance_rows(monkeypatch)
        for limit in SCORE_LIMITS:
            del seen[:]
            got = nearest_at_limit(rows, pts, limit)
            assert row_set(np.concatenate([part for part, _ in seen])) == row_set(np.array(at))
            assert got.tolist() == [0 if r1 < 0.5 else 1 for r1, _ in at + below]

    def test_stages_are_prepared_once_per_run(self, monkeypatch):
        made = []
        init = channel._Candidates.__init__

        def spy(self, pts):
            made.append(pts.shape)
            init(self, pts)

        monkeypatch.setattr(channel._Candidates, "__init__", spy)
        cb = codebook(3, ((1, 0), (0, 1)))
        params = ChannelParams(cross_gain=4.0, power=1.0)
        very_strong_reliability(cb, params, 3 * TRIAL_BLOCK + 5, 1)
        assert made == [(9, 2), (9, 2)]
        del made[:]
        coarse = codebook(2, ((1, 0), (0, 1)), scale=2)
        fine = codebook(2, ((1, 0), (0, 1)))
        layered = LayeredCodebook(fine.lattice, [fine, coarse], [0.01, 0.001])
        layered_reliability(layered, ChannelParams(cross_gain=40.0, power=1.0), 2 * TRIAL_BLOCK, 2)
        assert made == [(4, 2)] * 4


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

    def test_negative_noise_rejected(self):
        # a negative noise variance used to satisfy stage 1 with required 0.8
        for powers in ([1.0], [math.inf]):
            with pytest.raises(ValidationError) as exc:
                stage_condition_witnesses(powers, 4.0, -5.0)
            assert exc.value.field == "noise_var"
            with pytest.raises(ValidationError):
                check_stage_conditions(powers, 4.0, -5.0)
        # an unscaled layer's power stays infinite
        assert stage_condition_witnesses([math.inf], 2.0, 0.0)[0]["required"] == math.inf

    @pytest.mark.parametrize("powers", [[1.0, -5.0], [0.0], [math.nan, 1.0], [math.inf, math.inf]])
    def test_bad_layer_powers_rejected(self, powers):
        # [1.0, -5.0] used to pass with stage 2 required -4.0, [nan, 1.0] to
        # report required nan, and [inf, inf], whose stage 1 ratio is
        # inf / inf, to fail with required nan
        for witness in (stage_condition_witnesses, check_stage_conditions):
            with pytest.raises(ValidationError) as exc:
                witness(powers, 4.0, 1.0)
            assert exc.value.field == "powers"

    @pytest.mark.parametrize("cross_gain,noise_var,field", [
        (math.inf, 1.0, "cross_gain"), (-math.inf, 1.0, "cross_gain"),
        (math.nan, 1.0, "cross_gain"),
        (4.0, math.inf, "noise_var"), (4.0, math.nan, "noise_var"),
    ])
    def test_non_finite_gain_and_noise_rejected(self, cross_gain, noise_var, field):
        # an infinite gain used to report required nan, and an infinite
        # noise variance made stage 1 of [inf] inf / inf; a NaN or infinite
        # gain then read "a^2 overflows a float"
        for witness in (stage_condition_witnesses, check_stage_conditions,
                        lambda _, a, nv: classify_regime(a, 1.0, nv)):
            with pytest.raises(ValidationError) as exc:
                witness([math.inf], cross_gain, noise_var)
            assert exc.value.field == field
            assert "finite" in str(exc.value) and "overflow" not in str(exc.value)

    def test_an_unscaled_layer_keeps_its_infinite_power(self):
        assert stage_condition_witnesses([math.inf], 2.0, 0.0)[0]["vacuous_zero_noise"]
        w = stage_condition_witnesses([math.inf], 2.0, 1.0)
        assert w[0]["required"] == math.inf and not w[0]["satisfied"]
        w = stage_condition_witnesses([1.0, math.inf], 2.0, 1.0)
        assert w[0]["required"] == 1.0 and w[1]["required"] == math.inf

    def test_passing_conditions_return_witnesses(self):
        w = check_stage_conditions([1.0, 1.0], 4.0, 1.0)
        assert all(entry["satisfied"] for entry in w)

    def test_overflowing_cross_gain_rejected(self):
        # a^2 overflows a float just above 1.3e154
        for a in (2e154, -2e154):
            with pytest.raises(ValidationError) as exc:
                stage_condition_witnesses([1.0], a)
            assert exc.value.field == "cross_gain"
            with pytest.raises(ValidationError):
                check_stage_conditions([1.0], a)
        assert stage_condition_witnesses([1.0], 1e154)[0]["a_squared"] == 1e154**2
        with pytest.raises(ValidationError, match=r"^cross gain 1e\+200: a\^2 overflows a float$"):
            stage_condition_witnesses([1.0], 1e200)
        with pytest.raises(ValidationError, match=r"^cross gain 1e\+200: a\^3 overflows a float$"):
            classify_regime(1e200, 1.0)


class TestLayeredDecoder:
    """Layered rows are decoded by the Monte Carlo runs over prepared float
    stages; with one layer that is the interference-first decoder."""

    def _single_layer(self):
        cb = codebook(3, ((1, 0), (0, 1)))
        return LayeredCodebook(cb.lattice, [cb], [float(cb.average_power)]), cb

    def test_single_layer_matches_interference_first_decoder(self):
        layered, cb = self._single_layer()
        params = ChannelParams(cross_gain=4.0, power=1.0)
        rng = np.random.default_rng(3)
        rows = rng.normal(scale=2.0, size=(12, 2))
        own_l, intf_l = _decode_stages(rows, _float_stages(layered.layers, params.cross_gain))
        own_s, intf_s = decode_very_strong_batch(rows, cb, params)
        assert np.array_equal(own_l[0], own_s)
        assert np.array_equal(intf_l[0], intf_s)

    def test_single_vector_rejected(self):
        _, cb = self._single_layer()
        params = ChannelParams(cross_gain=4.0, power=1.0)
        y = cb.coords[5] + 4 * cb.coords[2]
        # a PointGrid holds rows, so a single vector fails as it is formed
        with pytest.raises(DimensionMismatch):
            PointGrid(cb.unit, y)
        with pytest.raises(DimensionMismatch):
            decode_very_strong_batch(y * float(cb.unit), cb, params)
