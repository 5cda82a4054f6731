"""Two-user symmetric Gaussian interference channel with an eavesdropper.

Both receivers see their own signal plus a cross-gain copy of the other
user's signal; the eavesdropper sees a scaled sum. Encoding is dithered
modulo-lattice; decoding is regime specific: MMSE-scaled lattice decoding
when interference is weak, interference-first successive decoding when it
is very strong, and per-layer successive decoding for layered schemes.

Monte Carlo determinism: every trial owns the stream
numpy.random.default_rng([root_seed, trial_index]) and draws from it in a
fixed order, the same for all three schemes:

1. user 1's message for each layer, an integer below that layer's
   codebook size (the weak and very-strong schemes have one layer);
2. user 2's message for each layer, likewise;
3. weak scheme only: the 2n dither uniforms, in one call of shape (2, n)
   (the same values as n for dither 1, then n for dither 2);
4. the 3n standard normals of transmit, in one call.

trial_rng defines these streams, and _trial_blocks draws them for a
whole run without building a generator per trial. _trial_states derives
the PCG64 state that trial_rng starts from for a block of trial indices
at once. One reused PCG64, reseeded to each trial's state, hands over the
64-bit outputs that steps 1 to 3 consume (random_raw) and then draws the
normals of step 4. _trial_draws turns those outputs into messages and
uniforms as numpy does: its 32-bit Lemire method for integers below 2^32
(low half of an output first, then the buffered high half) and
(output >> 11) 2^-53 for random. A trial whose integers numpy would reject
and redraw is drawn again on the generator from its start state. Every
draw equals trial_rng's. Encoding, the channel and decoding then run on
rows of many trials at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    StageConditionViolated,
    UnityGain,
    ValidationError,
)
from .lattices import ConstructionALattice, PointGrid, _float_rows, on_grid


@dataclass(frozen=True)
class ChannelParams:
    """Symmetric interference channel with cross gain a and eavesdropper gain b.

    Receiver i sees X_i + a X_j + N_i, the eavesdropper sees
    b (X_1 + X_2) + N_e. Legitimate noise is white with per-dimension
    variance noise_var at both receivers.
    """

    cross_gain: float
    power: float
    eve_gain: float = 1.0
    noise_var: float = 1.0
    eve_noise_var: float = 1.0

    def __post_init__(self):
        if float(self.cross_gain) == 1.0:
            raise UnityGain("cross gain exactly 1 makes the channel degenerate")
        for name in ("cross_gain", "power", "eve_gain", "noise_var", "eve_noise_var"):
            if not math.isfinite(float(getattr(self, name))):
                raise ValidationError(name, f"{name} must be finite")
        if not (float(self.power) > 0):
            raise ValidationError("power", "transmit power must be positive")
        if float(self.noise_var) < 0 or float(self.eve_noise_var) < 0:
            raise ValidationError("noise_var", "noise variances must be nonnegative")


@dataclass(frozen=True)
class Regime:
    tag: str
    witness: dict = field(compare=False)


def _gain_power(cross_gain, k: int) -> float:
    """cross_gain ** k as a float, or ValidationError when that overflows."""
    try:
        return float(cross_gain) ** k
    except OverflowError:
        raise ValidationError(
            "cross_gain", f"cross gain {cross_gain!r}: a^{k} overflows a float"
        ) from None


def classify_regime(cross_gain: float, power: float, noise_var: float = 1.0) -> Regime:
    """Classify interference strength from the cross gain and power.

    very_strong: a^2 >= P + N, so interference can be decoded first.
    weak: |a + a^3 P| <= 1/2, so residual interference folds away.
    general: neither test passes; a layered scheme is needed.
    """
    ChannelParams(cross_gain, power, noise_var=noise_var)  # checks the arguments
    a, p, nv = float(cross_gain), float(power), float(noise_var)
    a2 = a * a
    very_strong = a2 >= p + nv
    weak_stat = abs(a + _gain_power(a, 3) * p)
    weak = weak_stat <= 0.5
    tag = "very_strong" if very_strong else ("weak" if weak else "general")
    witness = {
        "a_squared": a2,
        "very_strong_threshold": p + nv,
        "interference_power_threshold": (p + nv) ** 2 / p,
        "weak_statistic": weak_stat,
        "weak_threshold": 0.5,
    }
    return Regime(tag, witness)


def mmse_alpha(power: float, cross_gain: float, noise_var: float = 1.0) -> float:
    """Receiver scaling that minimizes the effective-noise variance."""
    p, a, nv = float(power), float(cross_gain), float(noise_var)
    return p / ((1 + a * a) * p + nv)


def effective_noise_variance(
    power: float, cross_gain: float, noise_var: float = 1.0
) -> float:
    """Per-dimension variance of the folded effective noise at the MMSE scaling."""
    p, a, nv = float(power), float(cross_gain), float(noise_var)
    return p * (a * a * p + nv) / ((1 + a * a) * p + nv)


def achievable_rate_weak(power: float, cross_gain: float, noise_var: float = 1.0) -> float:
    """Per-user rate 1/2 log2(1 + P / (a^2 P + N)) for the weak regime."""
    p, a, nv = float(power), float(cross_gain), float(noise_var)
    return 0.5 * math.log2(1 + p / (a * a * p + nv))


def trial_rng(root_seed: int, trial_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one Monte Carlo trial."""
    return np.random.default_rng([int(root_seed), int(trial_index)])


# numpy's SeedSequence hash (a pool of four uint32 words) and PCG64 seeding,
# as _trial_states reproduces them. No hash constant depends on the data.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_steps(const: int, mult: int):
    """SeedSequence's running hash constant, as (before, after) pairs of
    each step's multiplication by mult modulo 2^32."""
    while True:
        after = const * mult & _MASK32
        yield const, after
        const = after


def _hash(words, step):
    """One SeedSequence hash step on a uint32 array (wrapping arithmetic)."""
    before, after = step
    words = (words ^ before) * after
    return words ^ (words >> 16)


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _trial_states(root_seed: int, indices) -> list:
    """The (state, inc) pair of the PCG64 behind trial_rng(root_seed, t) for
    each trial index t below 2^64, all computed at once.

    SeedSequence([root_seed, t]) hashes the little-endian 32-bit words of
    root_seed then those of t: the first four words (zero-padded) fill the
    pool and are cross-mixed, later words are mixed in one at a time, and
    generate_state(4, uint64) hashes the pool into (seed, seq). PCG64 then
    sets inc = 2 seq + 1 and state = (inc + seed) M + inc modulo 2^128.
    Here each word position is a uint32 column over all trials; a column
    past a trial's own word count is zero in the pool, as the padding is,
    and skipped after it.
    """
    root = int(root_seed)
    if root < 0:
        raise ValueError("expected non-negative integer")
    head = [root & _MASK32]
    while root > _MASK32:
        root >>= 32
        head.append(root & _MASK32)
    t = np.asarray(indices, dtype=np.uint64)
    zero = np.zeros(len(t), dtype=np.uint32)
    cols = [np.full(len(t), w, dtype=np.uint32) for w in head]
    cols += [(t & _MASK32).astype(np.uint32), (t >> 32).astype(np.uint32)]
    lengths = len(head) + 1 + (t > _MASK32)
    steps = _hash_steps(_INIT_A, _MULT_A)
    pool = [_hash(cols[i] if i < len(cols) else zero, next(steps)) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], next(steps)))
    for src in range(_POOL, len(cols)):
        live = lengths > src
        for dst in range(_POOL):
            pool[dst] = np.where(live, _mix(pool[dst], _hash(cols[src], next(steps))), pool[dst])
    steps = _hash_steps(_INIT_B, _MULT_B)
    out = [_hash(pool[i % _POOL], next(steps)).astype(np.uint64) for i in range(8)]
    # little-endian pairs of words make the uint64s (seed_hi, seed_lo, seq_hi, seq_lo)
    words64 = [(out[i + 1] << 32 | out[i]).astype(object) for i in range(0, 8, 2)]
    seed, seq = words64[0] << 64 | words64[1], words64[2] << 64 | words64[3]
    inc = (seq << 1 | 1) & _MASK128
    state = ((inc + seed) * _PCG_MULT + inc) & _MASK128
    return list(zip(state.tolist(), inc.tolist()))


def _reseed(bit_gen, state: int, inc: int) -> None:
    """Set a PCG64 to (state, inc) with no buffered uint32, as a fresh
    PCG64 with that state would be."""
    bit_gen.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _draw_words(sizes) -> int:
    """64-bit outputs that one integers(size) per entry of sizes takes when
    no word is rejected: one 32-bit word per size above 1."""
    return -(-sum(int(size) > 1 for size in sizes) // 2)


def _trial_draws(raw, sizes):
    """The first draws of a Generator on each row's PCG64, computed for all
    rows at once from the 64-bit outputs the PCG64 gives first
    (random_raw): one integers(size) per entry of sizes, then random for
    each output left over.

    integers(size) for 1 < size <= 2^32 is numpy's 32-bit Lemire method: a
    uint32 w (the low half of an output, then the buffered high half) gives
    m = w size and the draw m >> 32, unless m mod 2^32 < (2^32 - size) mod
    size, which rejects w; a size of 1 draws nothing. random gives
    (output >> 11) 2^-53. Returns (messages, uniforms, exact): messages of
    shape (rows, len(sizes)), the uniforms from the outputs after the first
    _draw_words(sizes), and a mask of the rows where no w is rejected. Rows
    off the mask, and every row when some size is above 2^32 (numpy's
    64-bit path), hold no valid draws.
    """
    sizes = [int(s) for s in sizes]
    live = [j for j, size in enumerate(sizes) if size > 1]
    words = _draw_words(sizes)
    rows = len(raw)
    low_high = np.stack([raw[:, :words] & _MASK32, raw[:, :words] >> 32], axis=2)
    drawn = low_high.reshape(rows, 2 * words)[:, : len(live)]
    # a size above 2^32 takes numpy's 64-bit path, which no row here follows
    bounds = [min(sizes[j], 1 << 32) for j in live]
    m = drawn * np.array(bounds, dtype=np.uint64)
    thresholds = np.array([((1 << 32) - b) % b for b in bounds], dtype=np.uint64)
    exact = ((m & _MASK32) >= thresholds).all(axis=1) & (max(sizes, default=1) <= 1 << 32)
    messages = np.zeros((rows, len(sizes)), dtype=np.int64)
    messages[:, live] = m >> 32
    uniforms = (raw[:, words:] >> 11).astype(np.float64) * 2.0**-53
    return messages, uniforms, exact


# Monte Carlo trials are encoded and decoded in blocks of this many rows,
# which bounds the memory of a run whatever its trial count.
TRIAL_BLOCK = 1024


def _trial_blocks(trials, root_seed, sizes, n, dithers=False):
    """The per-trial draws of a Monte Carlo run, in blocks of TRIAL_BLOCK
    trials, in the order this module documents. sizes holds each layer's
    codebook size. Yields (start, m1, m2, uniforms, noise) per block: the
    first trial's index, both users' messages of shape (rows, layers), the
    dither uniforms of shape (2, rows, n) when dithers is set (else None)
    and the channel normals of shape (rows, 3n).
    """
    layers = len(sizes)
    both_users = (*sizes, *sizes)
    doubles = 2 * n if dithers else 0
    width = _draw_words(both_users) + doubles
    bit_gen = np.random.PCG64(0)
    rng = np.random.Generator(bit_gen)
    for start in range(0, trials, TRIAL_BLOCK):
        rows = min(TRIAL_BLOCK, trials - start)
        states = _trial_states(root_seed, np.arange(start, start + rows))
        raw = np.empty((rows, width), dtype=np.uint64)
        noise = np.empty((rows, 3 * n), dtype=np.float64)
        for i, state in enumerate(states):
            _reseed(bit_gen, *state)
            raw[i] = bit_gen.random_raw(width)
            rng.standard_normal(out=noise[i])
        messages, uniforms, exact = _trial_draws(raw, both_users)
        for i in np.flatnonzero(~exact).tolist():
            _reseed(bit_gen, *states[i])
            messages[i] = [rng.integers(size) for size in both_users]
            uniforms[i] = rng.random(doubles)
            rng.standard_normal(out=noise[i])
        if dithers:
            # dither_rows keeps getting C-contiguous (rows, n) arrays, as it always has
            uniforms = np.ascontiguousarray(uniforms.reshape(rows, 2, n).transpose(1, 0, 2))
        else:
            uniforms = None
        yield start, messages[:, :layers], messages[:, layers:], uniforms, noise


def dither_rows(lattice: ConstructionALattice, uniforms) -> np.ndarray:
    """Dithers uniform on the coarse fundamental cell, one per row of
    uniform draws on [0, 1)^n: the parallelepiped point, then the fold."""
    t = np.asarray(uniforms, dtype=np.float64)
    # the stacked product rounds as each row's basis @ t does; t @ basis.T does not
    raw = (lattice.coarse_basis_float()[None] @ t[:, :, None])[:, :, 0]
    return lattice.mod_coarse(raw)


def transmit(x1, x2, params: ChannelParams, noise):
    """One channel use per row, given each row's 3n standard normals: the
    first n for receiver 1, the next n for receiver 2, the last n for the
    eavesdropper."""
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    n = x1.shape[-1]
    if noise.shape[-1] != 3 * n:
        raise DimensionMismatch(f"need 3n = {3 * n} normals per row, got {noise.shape[-1]}")
    a, b = float(params.cross_gain), float(params.eve_gain)
    n1 = noise[..., :n] * math.sqrt(params.noise_var)
    n2 = noise[..., n : 2 * n] * math.sqrt(params.noise_var)
    ne = noise[..., 2 * n :] * math.sqrt(params.eve_noise_var)
    y1 = x1 + a * x2 + n1
    y2 = x2 + a * x1 + n2
    z = b * (x1 + x2) + ne
    return y1, y2, z


def decode_weak(y, dither, params: ChannelParams, lattice: ConstructionALattice) -> PointGrid:
    """MMSE-scale each row, subtract its dither, fold, then decode to the
    nearest fine point and fold again. Returns the codeword estimates as a
    PointGrid over scale / p.

    y is a float array of shape (rows, n) with float dithers, or a PointGrid
    with a PointGrid of dithers; a single dither row applies to every row.
    Exact rows are scaled by the exact rational value of the float MMSE
    factor.
    """
    alpha = mmse_alpha(params.power, params.cross_gain, params.noise_var)
    if isinstance(y, PointGrid):
        unit, (ay, u) = on_grid(PointGrid(Fraction(alpha) * y.unit, y.coords), dither)
        v = PointGrid(unit, ay - u)
    else:
        v = alpha * _float_rows(y) - _float_rows(np.atleast_2d(dither))
    fine = lattice.quantize_fine(lattice.mod_coarse(v))
    return lattice.mod_coarse(fine)


def decode_very_strong_batch(received, codebook, params: ChannelParams):
    """Interference-first decoding of many rows at once.

    Finds each row's interfering codeword at gain a, strips it, then
    decodes the own codeword; this is successive decoding with one layer.
    Returns (own_indices, interferer_indices). Ties resolve to the lowest
    message index. The very-strong regime test is the caller's; no stage
    condition is checked here.
    """
    own, intf = _successive_decode(received, [codebook], params.cross_gain)
    return own[0], intf[0]


def _exact_decode_grid(received, codebooks, gain: Fraction):
    """Put received rows and every layer's codebook on one integer grid.

    Returns (y_grid, [(own_grid, intf_grid), ...]) of int64 arrays over the
    common unit divided by gain.denominator. Raises BudgetExceeded when a
    squared distance between them could overflow int64.
    """
    _, (y_int, *layers) = on_grid(received, *codebooks)
    anum, aden = gain.numerator, gain.denominator
    peak = [max(int(np.abs(a).max(initial=0)), 1) for a in (y_int, *layers)]
    reach = peak[0] * aden + 2 * (abs(anum) + aden) * sum(peak[1:])
    if y_int.shape[1] * (2 * reach) ** 2 >= 2**62:
        raise BudgetExceeded(
            f"exact decoding distances reach {reach} grid steps; int64 overflows"
        )
    return y_int * aden, [(c * aden, c * anum) for c in layers]


def _nearest(rows, pts):
    """Index of the nearest point of pts to each row; ties go to the lowest."""
    return ((rows[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)


def _successive_decode(received, codebooks, gain):
    """Per-layer successive decoding, interference first inside each stage.

    A PointGrid of rows is decoded in int64 on one grid shared with the
    codebooks (see _exact_decode_grid); anything else is a float batch of
    shape (rows, n). Each stage finds the nearest interferer at the gain,
    strips it, then finds and strips the nearest own codeword. Returns
    (own_indices, interferer_indices), one array per layer.
    """
    if isinstance(received, PointGrid):
        resid, stages = _exact_decode_grid(received, codebooks, Fraction(gain))
    else:
        resid = _float_rows(received)
        if not np.isfinite(resid).all():
            raise ValidationError("rows", "rows must be finite")
        a = float(gain)
        stages = [(pts, a * pts) for pts in (cb.float_matrix() for cb in codebooks)]
    own_all, intf_all = [], []
    for own_pts, intf_pts in stages:
        j = _nearest(resid, intf_pts)
        resid = resid - intf_pts[j]
        i = _nearest(resid, own_pts)
        resid = resid - own_pts[i]
        own_all.append(i.astype(np.int64))
        intf_all.append(j.astype(np.int64))
    return tuple(own_all), tuple(intf_all)


def stage_condition_witnesses(powers, cross_gain: float, noise_var: float = 1.0):
    """Per-stage decodability witnesses for layered successive decoding.

    Stage i (interference layer i decoded before own layer i) requires
    a^2 >= 1 + P_i / ((1 + a^2) * sum_{j>i} P_j + noise_var). The condition
    models later layers plus channel noise as Gaussian clutter; with zero
    noise and no later layers there is no clutter at all, so the stage is
    recorded as vacuously feasible rather than dividing by zero.
    """
    if not float(noise_var) >= 0:
        raise ValidationError("noise_var", "noise variance must be nonnegative")
    a2 = _gain_power(cross_gain, 2)
    ps = [float(p) for p in powers]
    out = []
    for i, p_i in enumerate(ps):
        tail = sum(ps[i + 1 :])
        clutter = (1 + a2) * tail + float(noise_var)
        vacuous = clutter == 0.0
        required = math.inf if vacuous else 1 + p_i / clutter
        out.append(
            {
                "stage": i + 1,
                "a_squared": a2,
                "required": required,
                "satisfied": True if vacuous else a2 >= required,
                "vacuous_zero_noise": vacuous,
            }
        )
    return out


def check_stage_conditions(powers, cross_gain: float, noise_var: float = 1.0):
    witnesses = stage_condition_witnesses(powers, cross_gain, noise_var)
    for w in witnesses:
        if not w["satisfied"]:
            raise StageConditionViolated(
                w["stage"],
                f"stage {w['stage']}: a^2 = {w['a_squared']:.6g} < required "
                f"{w['required']:.6g}",
            )
    return witnesses


def decode_layered(y, layered, params: ChannelParams):
    """Successive decoding of a batch of rows across layers, after checking
    every stage condition. A PointGrid of rows is decoded in exact
    arithmetic. Returns (own_indices, interferer_indices) as per-layer
    tuples of arrays.
    """
    check_stage_conditions(layered.powers, params.cross_gain, params.noise_var)
    return _successive_decode(y, layered.layers, params.cross_gain)
