"""Channel model, regime classification, and the three decoders."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    check_stage_conditions,
    classify_regime,
    decode_layered,
    decode_very_strong_batch,
    decode_weak,
    dither_rows,
    effective_noise_variance,
    enumerate_codebook,
    mmse_alpha,
    random_unimodular,
    stage_condition_witnesses,
    transmit,
    trial_rng,
)
from latsec import channel
from latsec.channel import (
    TRIAL_BLOCK,
    _fast_normals,
    _jumps,
    _limb_array,
    _mul_add,
    _reseed,
    _trial_blocks,
    _trial_draws,
    _trial_states,
    _xsl_rr,
)

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


def _reference_states(root_seed, indices):
    states = [trial_rng(root_seed, t).bit_generator.state["state"] for t in indices]
    return [(s["state"], s["inc"]) for s in states]


def _joined(limbs):
    """The integers that 32-bit limbs along axis 0 hold, least significant
    first, as nested lists over the other axes."""
    assert limbs.dtype == np.uint64 and limbs.shape[0] == 4
    assert not (limbs >> 32).any()
    return sum(limbs[k].astype(object) << 32 * k for k in range(4)).tolist()


def _joined_states(limbs):
    """(state, inc) per trial from the limbs _trial_states returns."""
    assert limbs.shape[1] == 2
    return list(zip(*_joined(limbs)))


# seeds of one to four 32-bit words: from three on, SeedSequence mixes words
# past its pool of four, for every index or only for those of two words
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, 2**64, 2**100 + 3]
TRIAL_INDICES = [0, 1023, 1024, 2**32 - 1, 2**32, 2**40]


class TestTrialStreams:
    def test_streams_reproducible_and_distinct(self):
        a = trial_rng(7, 3).random(4)
        b = trial_rng(7, 3).random(4)
        c = trial_rng(7, 4).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("root_seed", SEEDS)
    def test_block_states_match_trial_rng(self, root_seed):
        # one block mixes trial indices of one and of two words
        got = _joined_states(_trial_states(root_seed, TRIAL_INDICES))
        assert got == _reference_states(root_seed, TRIAL_INDICES)

    @given(
        st.integers(0, 2**130),
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    )
    def test_drawn_block_states_match_trial_rng(self, root_seed, indices):
        got = _joined_states(_trial_states(root_seed, indices))
        assert got == _reference_states(root_seed, indices)

    def test_negative_root_seed_raises_as_trial_rng_does(self):
        with pytest.raises(ValueError):
            trial_rng(-1, 0)
        with pytest.raises(ValueError):
            _trial_states(-1, [0])

    def test_reseeding_clears_a_buffered_uint32(self):
        # integers(3) draws half of a 64-bit output and buffers the other
        # half; the next trial must not start from that buffered word.
        bit_gen = np.random.PCG64(0)
        rng = np.random.Generator(bit_gen)
        rng.integers(3)
        for t, start in enumerate(_joined_states(_trial_states(9, range(1, 5))), 1):
            _reseed(bit_gen, *start)
            ref = trial_rng(9, t)
            assert rng.integers(3) == ref.integers(3)
            assert rng.integers(1000) == ref.integers(1000)
            assert np.array_equal(rng.standard_normal(3), ref.standard_normal(3))
            rng.integers(3)

    def test_dither_stays_in_coarse_cell_and_is_uniform(self):
        lat = ConstructionALattice(2, ((1,),), None, 1)
        rng = trial_rng(2026, 0)
        samples = dither_rows(lat, rng.random((20000, 1)))[:, 0].tolist()
        assert min(samples) >= -0.5
        assert max(samples) < 0.5
        chi2 = oracles.chi_square_uniform(samples, 16, -0.5, 0.5)
        assert chi2 < oracles.CHI2_CRIT_DF15_P001

    def test_dither_scales_with_coarse_cell(self):
        lat = ConstructionALattice(2, ((1,),), None, Fraction(3, 2))
        rng = trial_rng(2026, 1)
        samples = dither_rows(lat, rng.random((500, 1)))[:, 0].tolist()
        assert min(samples) >= -0.75
        assert max(samples) < 0.75

    def test_dither_rows_match_the_per_row_product(self):
        # Each row's dither is bit for bit the fold of basis @ t for that row
        # alone. At n >= 4 with a non-integer scale, uniforms @ basis.T
        # rounds differently on some rows.
        t = random_unimodular(5, seed=[5, 5])
        lat = ConstructionALattice(3, ((1,), (2,), (0,), (1,), (1,)), t, Fraction(5, 3))
        uniforms = np.random.default_rng(8).random((1000, 5))
        batch = dither_rows(lat, uniforms)
        basis = lat.coarse_basis_float()
        for row, got in zip(uniforms, batch):
            raw = basis @ row
            assert np.array_equal(got, lat.mod_coarse(raw[None])[0])


def _split(values):
    """The four 32-bit limbs of each integer in a nested list, least
    significant first, along a new axis 0 of a uint64 array."""
    values = np.array(values, dtype=object)
    return np.stack([values >> 32 * k & 0xFFFFFFFF for k in range(4)]).astype(np.uint64)


# 128-bit values anywhere, and near 2^128 - 1, where a carry out of the
# lowest limb runs through every limb above it
LIMB_VALUES = st.one_of(st.integers(0, 2**128 - 1), st.integers(2**128 - 2**40, 2**128 - 1))


class TestLimbArithmetic:
    @given(st.lists(st.tuples(LIMB_VALUES, LIMB_VALUES), min_size=1, max_size=4))
    @example([(2**128 - 1, 1), (1, 1)])
    @example([(2**128 - 1, 2**128 - 1)] * 4)
    def test_mul_add_matches_python_ints(self, terms):
        x, c = (_split(column)[..., None] for column in zip(*terms))
        got = _joined(np.array(_mul_add(x, c)))
        assert got == [sum(a * b for a, b in terms) % 2**128]

    def test_mul_add_broadcasts(self):
        x = [[3, 2**128 - 1], [2**127, 2**64 + 5]]
        c = [[2**96 - 1, 7, 2**128 - 3]] * 2
        got = _joined(np.array(_mul_add(_split(x)[..., None], _split(c)[:, :, None])))
        want = [[(x[0][r] * c[0][k] + x[1][r] * c[1][k]) % 2**128 for k in range(3)]
                for r in range(2)]
        assert got == want

    @given(LIMB_VALUES, LIMB_VALUES, st.integers(0, 12))
    def test_jumps_match_pcg64_steps(self, state, seq, steps):
        inc = (2 * seq + 1) % 2**128
        bit_gen = np.random.PCG64(0)
        _reseed(bit_gen, state, inc)
        jumps = _jumps(steps)
        assert len(jumps) == steps + 1
        for a, b in jumps:
            assert (a * state + b * inc) % 2**128 == bit_gen.state["state"]["state"]
            bit_gen.random_raw()

    @given(
        st.lists(st.tuples(LIMB_VALUES, LIMB_VALUES), min_size=1, max_size=3),
        st.integers(1, 12),
    )
    def test_jumped_outputs_match_random_raw(self, starts, steps):
        # the (4, 2, rows, 1) by (4, 2, 1, steps) multiply-add of _trial_blocks
        starts = [(state, (2 * seq + 1) % 2**128) for state, seq in starts]
        seeds = np.stack([_split(column) for column in zip(*starts)], axis=1)
        jumps = np.stack([_limb_array(ab) for ab in zip(*_jumps(steps)[1:])], axis=1)
        words = _xsl_rr(_mul_add(seeds[..., None], jumps[:, :, None]))
        bit_gen = np.random.PCG64(0)
        for row, start in zip(words, starts):
            _reseed(bit_gen, *start)
            assert row.tolist() == bit_gen.random_raw(steps).tolist()


class TestFastNormals:
    def check(self, outputs):
        normals, accepted = _fast_normals(np.array(outputs, dtype=np.uint64))
        for r, x, ok in zip(outputs, normals.tolist(), accepted.tolist()):
            want, one_output = oracles.normal_from_output(r)
            assert ok == one_output
            if ok:
                assert float.hex(x) == float.hex(want)

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
    def test_outputs_match_standard_normal(self, outputs):
        self.check(outputs)

    @pytest.mark.parametrize("sign", [0, 1])
    def test_acceptance_edges(self, sign):
        # rabs just below and at ki[idx] in every layer, with the bits above
        # rabs clear and set; layer 1 (ki = 0) rejects even rabs = 0
        outputs = []
        for idx in range(256):
            for rabs in {max(int(channel._ZIG_KI[idx]) - 1, 0), int(channel._ZIG_KI[idx])}:
                for top in (0, 7):
                    outputs.append(top << 61 | rabs << 9 | sign << 8 | idx)
        self.check(outputs)
        assert not _fast_normals(np.array([sign << 8 | 1], dtype=np.uint64))[1].any()


class TestTrialBlockPaths:
    @pytest.mark.parametrize("n, dithers", [(1, True), (6, False)])
    def test_rows_match_trial_rng_on_every_path(self, monkeypatch, n, dithers):
        # Lemire rejects a word of size 3 * 2^30 about one time in four, so
        # rows take all three paths: the fast one, their normals redrawn
        # from the state after the message and dither outputs, or all their
        # draws redrawn from their start state. The rows span a TRIAL_BLOCK
        # boundary and many limb chunks.
        sizes, seed, trials = (3 * 2**30, 5), 21, TRIAL_BLOCK + 37
        outputs = 2 + 2 * n * dithers + 3 * n
        assert channel._CHUNK_OUTPUTS // outputs < TRIAL_BLOCK // 2
        reseeds = []

        def spy(bit_gen, state, inc):
            reseeds.append(state)
            _reseed(bit_gen, state, inc)

        monkeypatch.setattr(channel, "_reseed", spy)
        blocks = list(_trial_blocks(trials, seed, sizes, n, dithers))
        m1, m2, noise = (np.concatenate([b[k] for b in blocks]) for k in (1, 2, 4))
        paths = []
        for t in range(trials):
            rng = trial_rng(seed, t)
            start = rng.bit_generator.state["state"]["state"]
            assert m1[t].tolist() == [rng.integers(size) for size in sizes]
            assert m2[t].tolist() == [rng.integers(size) for size in sizes]
            if dithers:
                block = blocks[t // TRIAL_BLOCK]
                assert np.array_equal(block[3][:, t % TRIAL_BLOCK], rng.random((2, n)))
            before_normals = rng.bit_generator.state["state"]["state"]
            assert np.array_equal(noise[t], rng.standard_normal(3 * n))
            paths.append(
                "redraw" if start in reseeds else "normals" if before_normals in reseeds else "fast"
            )
        counts = {path: paths.count(path) for path in ("fast", "normals", "redraw")}
        assert min(counts.values()) > 0
        assert counts["normals"] + counts["redraw"] == len(reseeds)


def _words_taken(start, state):
    """The 32-bit words a Generator took from the PCG64 (state, inc) start
    to the bit-generator state dict state: two per 64-bit output, less the
    one still buffered."""
    bit_gen = np.random.PCG64(0)
    _reseed(bit_gen, *start)
    steps = 0
    while bit_gen.state["state"]["state"] != state["state"]["state"]:
        bit_gen.random_raw()
        steps += 1
    return 2 * steps - state["has_uint32"]


def _check_draws(root_seed, indices, sizes, doubles):
    """Feed _trial_draws the first 64-bit outputs of each trial's stream and
    compare it row by row with the draws of trial_rng: a row is on the fast
    path exactly when numpy's integers took one 32-bit word per size above
    1, and then its messages and uniforms are trial_rng's. Returns the
    number of rows left to the fallback."""
    live = sum(size > 1 for size in sizes)
    width = (live + 1) // 2 + doubles
    raw = np.array(
        [trial_rng(root_seed, t).bit_generator.random_raw(width) for t in indices],
        dtype=np.uint64,
    ).reshape(len(indices), width)
    messages, uniforms, exact = _trial_draws(raw, sizes)
    assert messages.shape == (len(indices), len(sizes))
    assert uniforms.shape == (len(indices), doubles)
    fits = max(sizes, default=1) <= 2**32
    for i, t in enumerate(indices):
        rng = trial_rng(root_seed, t)
        start = rng.bit_generator.state["state"]
        ref_messages = [int(rng.integers(size)) for size in sizes]
        words = _words_taken((start["state"], start["inc"]), rng.bit_generator.state)
        assert exact[i] == (fits and words == live)
        if exact[i]:
            assert messages[i].tolist() == ref_messages
            assert np.array_equal(uniforms[i], rng.random(doubles))
    return int((~exact).sum())


# sizes below, at and above 2^32; at 2^31 + 1 and 3 * 2^30 numpy's Lemire
# method rejects a word with probability about 1/2 and 1/4
DRAW_SIZES = [1, 2, 3, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32, 2**32 + 1]
REJECTING = {2**31 + 1, 3 * 2**30}


def _blocks_digest(trials, root_seed, sizes, n, dithers):
    """sha256 over every block _trial_blocks yields: each block's start,
    then each array's dtype, shape, C-contiguity and values."""
    h = hashlib.sha256()
    for start, *arrays in _trial_blocks(trials, root_seed, sizes, n, dithers):
        h.update(f"start {start};".encode())
        for a in arrays:
            if a is None:
                h.update(b"none;")
            else:
                h.update(f"{a.dtype.str} {a.shape} {a.flags.c_contiguous};".encode())
                h.update(a.tobytes())
    return h.hexdigest()


# (trials, sizes, n, dithers): the layered_mc shape; a weak-scheme run with
# dithers; a layer numpy draws on its 64-bit integer path; and one whose
# Lemire method rejects a word about one time in four
BLOCK_RUNS = {
    "layered": (40_000, (9, 3), 3, False),
    "weak": (2_100, (9,), 4, True),
    "wide": (TRIAL_BLOCK + 37, (2**32 + 1, 5), 2, False),
    "rejecting": (TRIAL_BLOCK + 37, (3 * 2**30, 1, 2), 2, True),
}
BLOCK_SEEDS = [0, 1, 2**64 - 1, 2**100 + 3]
# digests of the draws as trial_rng makes them one generator per trial,
# taken before _trial_blocks computed them from limb arithmetic; a row on any
# path (fast, normals redrawn, fully redrawn) that moves one bit moves these
BLOCK_DIGESTS = {
    "layered": [
        "1936b746fb74fd4f95b2e90f82200e819a81a90dd8e9c505c09c6c3dc30b9c9d",
        "af77289a1abb07cdb6e7862263773b00391428622ef28558863fa723f784471a",
        "60fdd05b30201d7fb5e9b6a7de95221b58b55a18bd7c9f3d698136ea7afdbc70",
        "868cfbc473d013b8673fc03163270669d833c5def86ee6044a3505289351b5e5",
    ],
    "weak": [
        "23d09b9cd4eac3d3b1f37e299243936646121f8ee26c270dc57def26cf09b2c0",
        "436e33b681fa59e7dfa3ad62d59cc5cffec866697042086a2ad8bfb5f165d67d",
        "bfc71d38f9de9b072b96d809a05c0d23d6d3afb53ce6c6832a5a72fb5f528629",
        "e19552d460a972c9a8486ff835e7a76834e1cccfdadc57768a15f98dc42cb81b",
    ],
    "wide": [
        "3fcbe6060f4d9b2ea9f0bb8d31a0de644f7b65257252501797dcbfc636d768b1",
        "02c1221f263ee1fb8b9efd314f2258829ec8d4164de5ab4f320ee4480b1982f6",
        "5fb4a308acbe5a1aad44efa9905291c885888c44a913b0aaeb98465df15fdf35",
        "30d9feb7b7c5c5cda8f4c46ef78e2e4f350c5a04fc1839e0712a00d7d29930bf",
    ],
    "rejecting": [
        "41a5bc093797151cc4b57cd022addc3c0979f1363a67f42de01c958cfa209ef6",
        "fbb6e5af1b756ebaa9a53366fd72f4db30cfafaccd2f0413e13e2e4d6a447d4d",
        "6b2d903b4e71414a310efadefa0821b1601db6ffc571a3ab2086fa2f05678709",
        "6655730dad75976f641c28cf4f8b0f1ecc98c4e92778cd10fb747a218b374308",
    ],
}


@pytest.mark.parametrize("run", sorted(BLOCK_RUNS))
@pytest.mark.parametrize("seed_at", range(len(BLOCK_SEEDS)))
def test_trial_blocks_keep_their_pinned_digests(run, seed_at):
    trials, sizes, n, dithers = BLOCK_RUNS[run]
    got = _blocks_digest(trials, BLOCK_SEEDS[seed_at], sizes, n, dithers)
    assert got == BLOCK_DIGESTS[run][seed_at]


class TestTrialDraws:
    @pytest.mark.parametrize("size", DRAW_SIZES)
    def test_messages_match_generator_integers(self, size):
        fallback = _check_draws(5, range(2000), (size, size), 0)
        if size > 2**32:
            assert fallback == 2000
        elif size in REJECTING:
            assert 200 <= fallback < 2000
        else:
            assert fallback == 0

    @pytest.mark.parametrize("root_seed", SEEDS)
    @pytest.mark.parametrize("sizes", [(7, 1, 2), (1, 5), (2, 3, 5), (1,)])
    def test_layer_mixes_and_uniforms_match_trial_rng(self, root_seed, sizes):
        # odd and even counts of live draws, size-1 layers that draw nothing,
        # then the dither uniforms; indices on both sides of TRIAL_BLOCK
        indices = TRIAL_INDICES + list(range(TRIAL_BLOCK - 20, TRIAL_BLOCK + 20))
        assert _check_draws(root_seed, indices, sizes, 6) == 0

    @given(
        st.integers(0, 2**70),
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
        st.lists(st.integers(1, 2**32 + 1), max_size=5),
        st.integers(0, 5),
    )
    def test_drawn_blocks_match_trial_rng(self, root_seed, indices, sizes, doubles):
        _check_draws(root_seed, indices, sizes, doubles)


class TestTransmit:
    def test_noiseless_hand_example(self):
        params = ChannelParams(
            cross_gain=0.5, power=1.0, eve_gain=1.0, noise_var=0.0, eve_noise_var=0.0
        )
        y1, y2, z = transmit((1.0,), (2.0,), params, trial_rng(0, 0).standard_normal(3))
        assert y1 == pytest.approx([2.0])
        assert y2 == pytest.approx([2.5])
        assert z == pytest.approx([3.0])

    def test_consumes_exactly_three_noise_vectors(self):
        # One draw of 3n normals is the three n-vectors drawn one by one:
        # receiver 1's, receiver 2's, then the eavesdropper's.
        params = ChannelParams(cross_gain=0.5, power=1.0, noise_var=4.0, eve_noise_var=9.0)
        rng = trial_rng(0, 0)
        noise = rng.standard_normal(6)
        probe = rng.random()
        ref = trial_rng(0, 0)
        n1, n2, ne = (ref.standard_normal(2) for _ in range(3))
        assert probe == ref.random()
        x1, x2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        y1, y2, z = transmit(x1, x2, params, noise)
        assert np.array_equal(y1, x1 + 0.5 * x2 + n1 * 2.0)
        assert np.array_equal(y2, x2 + 0.5 * x1 + n2 * 2.0)
        assert np.array_equal(z, (x1 + x2) + ne * 3.0)
        with pytest.raises(DimensionMismatch):
            transmit(x1, x2, params, noise[:5])

    def test_rows_transmit_as_single_uses(self):
        params = ChannelParams(cross_gain=0.3, power=1.0, eve_gain=2.0)
        rng = np.random.default_rng(4)
        x1, x2, noise = rng.normal(size=(5, 2)), rng.normal(size=(5, 2)), rng.normal(size=(5, 6))
        batch = transmit(x1, x2, params, noise)
        for i in range(5):
            for got, want in zip(batch, transmit(x1[i], x2[i], params, noise[i])):
                assert np.array_equal(got[i], want)

    def test_eavesdropper_gain_scales_only_the_tap(self):
        params_b1 = ChannelParams(
            cross_gain=0.5, power=1.0, eve_gain=1.0, noise_var=0.0, eve_noise_var=0.0
        )
        params_b10 = ChannelParams(
            cross_gain=0.5, power=1.0, eve_gain=10.0, noise_var=0.0, eve_noise_var=0.0
        )
        noise = trial_rng(0, 0).standard_normal(3)
        y1a, y2a, za = transmit((1.0,), (2.0,), params_b1, noise)
        y1b, y2b, zb = transmit((1.0,), (2.0,), params_b10, noise)
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
            x = lat.mod_coarse(grid([tuple(a + b for a, b in zip(pt, u)) for pt in cb.points]))
            shifted = [tuple(a - b for a, b in zip(pt, u)) for pt in x.points]
            assert lat.mod_coarse(grid(shifted)).points == cb.points

    def test_float_dither_round_trips_through_the_channel(self):
        # One weak trial by hand: draws in their fixed order, encode by the
        # fold, then the channel; the folded signal minus the dither is the
        # codeword modulo the coarse lattice.
        cb = codebook(2, ((1, 0), (0, 1)))
        lat = cb.lattice
        params = ChannelParams(
            cross_gain=0.5, power=1.0, noise_var=0.0, eve_noise_var=0.0
        )
        rng = trial_rng(5, 0)
        m = [int(rng.integers(len(cb))), int(rng.integers(len(cb)))]
        u = dither_rows(lat, [rng.random(2), rng.random(2)])
        x = lat.mod_coarse(cb.float_matrix()[m] + u)
        assert ((-0.5 <= x) & (x < 0.5)).all()
        y1, y2, z = transmit(x[0], x[1], params, rng.standard_normal(6))
        assert y1 == pytest.approx(x[0] + 0.5 * x[1])
        assert y2 == pytest.approx(x[1] + 0.5 * x[0])
        assert z == pytest.approx(x[0] + x[1])
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

    def test_exact_entry_point_rows_take_python_ints(self, monkeypatch):
        # Fraction(alpha) has a denominator near 2^54: the MMSE-scaled rows
        # and their fold take Python ints; the quantised points, back over
        # scale / p, fold in int64
        cb = codebook(2, ((1, 0), (0, 1)))
        params = ChannelParams(cross_gain=0.3, power=1.0, noise_var=1.0)
        ys = [(Fraction(3, 8), Fraction(-1, 4)), (Fraction(-5, 6), Fraction(1, 2))]
        us = [(Fraction(1, 7), Fraction(2, 9)), (Fraction(0), Fraction(-1, 3))]
        seen = record_row_dtypes(monkeypatch)
        decode_weak(grid(ys), grid(us), params, cb.lattice)
        assert seen == [np.dtype(object), np.dtype(object), np.dtype(np.int64)]

    def test_reliability_improves_with_repetition_length(self):
        sigma = 0.2
        trials = 600
        rates = {}
        for n in (1, 2, 4):
            g = tuple((1,) for _ in range(n))
            cb = codebook(2, g)
            pts = cb.float_matrix()
            m = np.empty(trials, dtype=np.int64)
            y = np.empty((trials, n))
            for t in range(trials):
                rng = trial_rng(424242, t)
                m[t] = rng.integers(len(cb))
                y[t] = pts[m[t]] + rng.standard_normal(n) * sigma
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
        layered = LayeredCodebook(cb.lattice, [cb], [1.0])
        with pytest.raises(ValidationError):
            decode_layered(rows, layered, params)

    def test_exact_rows_past_int64_bound_raise(self):
        # A coordinate with a huge prime denominator makes the shared grid
        # so fine that squared distances would overflow int64.
        cb = codebook(2, ((1,),))
        params = ChannelParams(cross_gain=4.0, power=1.0)
        tiny = Fraction(1, 2**31 + 1)
        rows = grid([(Fraction(0) + tiny,), (Fraction(-5, 2) + tiny,)])
        with pytest.raises(BudgetExceeded):
            decode_very_strong_batch(rows, cb, params)
        layered = LayeredCodebook(cb.lattice, [cb], [1.0])
        with pytest.raises(BudgetExceeded):
            decode_layered(rows, layered, params)
        grid_rows = grid([(Fraction(0),), (Fraction(-5, 2),)])
        own_g, intf_g = decode_very_strong_batch(grid_rows, cb, params)
        assert own_g.tolist() == [0, 1] and intf_g.tolist() == [0, 1]


def nearest_brute(rows, pts):
    """Per row, the lowest index of a nearest point: exact arithmetic on
    Python ints or Fractions, ||r - p||^2 written out."""
    out = []
    for r in rows:
        dist = [sum((a - b) ** 2 for a, b in zip(r, pt)) for pt in pts]
        out.append(dist.index(min(dist)))
    return out


@st.composite
def rows_and_points(draw):
    """Integer rows and points with forced ties: a repeated point, and the
    mirror 2 r - p of a point p through a row r, which is as near r as p."""
    n = draw(st.integers(1, 4))
    bound = draw(st.sampled_from([3, 2**20, 2**28]))
    vec = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
    rows = draw(st.lists(vec, min_size=1, max_size=6))
    pts = draw(st.lists(vec, min_size=1, max_size=6))
    index = st.integers(0, len(pts) - 1)
    extra = [pts[i] for i in draw(st.lists(index, max_size=2))]
    for r, i in draw(st.lists(st.tuples(st.sampled_from(rows), index), max_size=3)):
        extra.append([2 * a - b for a, b in zip(r, pts[i])])
    return rows, draw(st.permutations(pts + extra))


class TestExactNearest:
    """Exact stages rank points by ||p||^2 - 2 r.p in int64; that must pick
    what ||r - p||^2 in Python ints picks, ties to the lowest index."""

    @settings(max_examples=200)
    @given(rows_and_points())
    @example(([[0, 0]], [[1, 0], [0, 1], [-1, 0], [1, 0]]))
    def test_expanded_argmin_matches_python_ints(self, drawn):
        rows, pts = drawn
        r, p = np.array(rows, dtype=np.int64), np.array(pts, dtype=np.int64)
        got = channel._nearest(r, p, (p * p).sum(axis=1))
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
            with pytest.raises(DimensionMismatch):
                decode(np.array([float(v) for v in y]), book, params)

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
        own_e, intf_e = decode_layered(grid(exact_rows), layered, params)
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
