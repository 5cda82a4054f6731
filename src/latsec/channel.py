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
the PCG64 state and increment that trial_rng starts from for a block of
trial indices at once, as 32-bit limbs in uint64 arrays. A PCG64 step
takes a state s to M s + inc modulo 2^128, so k steps take it to M^k s +
(1 + M + ... + M^(k-1)) inc. Limb multiply-adds by those constants give
the state behind every 64-bit output that a trial consumes, for many
trials at once, and PCG64's output function (XSL-RR) turns each state
into its output. As numpy does, _trial_draws turns the first outputs
into messages and uniforms: its 32-bit Lemire method for integers below
2^32 (low half of an output first, then the buffered high half) and
(output >> 11) 2^-53 for random. _fast_normals turns the rest into
normals on the fast path of numpy's ziggurat, one output per normal. Two
kinds of row fall back to a PCG64 set to a state of the row's own
stream: a row with a normal that fast path rejects draws its normals on
numpy from its state after the message and dither outputs, and a row
whose integers numpy would reject and redraw (every row, when some size
is above 2^32) draws everything on numpy from its start state. Every
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
from .lattices import ConstructionALattice, PointGrid, _float_rows, _peak, on_grid


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


def _finite(value: float, formula: str, **inputs) -> float:
    """value, or ValidationError when the closed form `formula` overflows a
    float: the error names its input of largest magnitude."""
    if math.isfinite(value):
        return value
    field = max(inputs, key=lambda name: abs(inputs[name]))
    shown = ", ".join(f"{name}={v!r}" for name, v in inputs.items())
    raise ValidationError(field, f"{formula} overflows a float at {shown}")


def classify_regime(cross_gain: float, power: float, noise_var: float = 1.0) -> Regime:
    """Classify interference strength from the cross gain and power.

    very_strong: a^2 >= P + N, so interference can be decoded first.
    weak: |a + a^3 P| <= 1/2, so residual interference folds away.
    general: neither test passes; a layered scheme is needed.
    A witness that overflows a float raises ValidationError.
    """
    ChannelParams(cross_gain, power, noise_var=noise_var)  # checks the arguments
    a, p, nv = float(cross_gain), float(power), float(noise_var)
    a2 = a * a
    threshold = _finite(p + nv, "P + N", power=p, noise_var=nv)
    very_strong = a2 >= threshold
    weak_stat = _finite(abs(a + _gain_power(a, 3) * p), "|a + a^3 P|", cross_gain=a, power=p)
    weak = weak_stat <= 0.5
    tag = "very_strong" if very_strong else ("weak" if weak else "general")
    try:
        interference = threshold**2 / p
    except OverflowError:
        interference = math.inf
    witness = {
        "a_squared": a2,
        "very_strong_threshold": threshold,
        "interference_power_threshold": _finite(
            interference, "(P + N)^2 / P", power=p, noise_var=nv
        ),
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
    """Per-dimension variance of the folded effective noise at the MMSE
    scaling; ValidationError when it overflows a float."""
    p, a, nv = float(power), float(cross_gain), float(noise_var)
    return _finite(
        p * (a * a * p + nv) / ((1 + a * a) * p + nv),
        "P (a^2 P + N) / ((1 + a^2) P + N)", power=p, cross_gain=a, noise_var=nv,
    )


def achievable_rate_weak(power: float, cross_gain: float, noise_var: float = 1.0) -> float:
    """Per-user rate 1/2 log2(1 + P / (a^2 P + N)) for the weak regime: inf
    with neither interference nor noise, ValidationError when the rate of a
    finite channel overflows a float."""
    p, a, nv = float(power), float(cross_gain), float(noise_var)
    if a == 0 and nv == 0:
        return math.inf
    den = a * a * p + nv  # 0 here only where a^2 P underflows
    rate = 0.5 * math.log2(1 + p / den) if den else math.inf
    return _finite(rate, "1/2 log2(1 + P / (a^2 P + N))", power=p, cross_gain=a, noise_var=nv)


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


def _limb_array(values) -> np.ndarray:
    """The 32-bit limbs of each integer in values modulo 2^128, as a uint64
    array of shape (4, len(values)), least significant limb first."""
    return np.array([[v >> 32 * k & _MASK32 for k in range(4)] for v in values], dtype=np.uint64).T


def _mul_add(x, c) -> list:
    """The products x c summed over axis 1, modulo 2^128, as four 32-bit
    limbs in uint64, least significant first. x and c hold four limbs along
    axis 0 and broadcast together. Each limb product is split into its
    32-bit halves before it is summed, so no column sum comes near 2^64
    before the carries run."""
    cols = [np.uint64(0)] * 4
    for i in range(4):
        for j in range(4 - i):
            product = x[i] * c[j]
            cols[i + j] = cols[i + j] + (product & _MASK32)
            if i + j < 3:
                cols[i + j + 1] = cols[i + j + 1] + (product >> 32)
    limbs, carry = [], np.uint64(0)
    for col in cols:
        col = col.sum(axis=0) + carry
        limbs.append(col & _MASK32)
        carry = col >> 32
    return limbs


# state = M seed + (M + 1) inc: the multipliers of seed and inc
_SEEDING = _limb_array([_PCG_MULT, _PCG_MULT + 1])


def _trial_states(root_seed: int, indices):
    """The state and inc of the PCG64 behind trial_rng(root_seed, t) for
    each trial index t below 2^64, all computed at once: a uint64 array of
    shape (4, 2, len(indices)) of 32-bit limbs, least significant first,
    with each trial's state then its inc along axis 1.

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
    # the uint64s are (seed_hi, seed_lo, seq_hi, seq_lo), each from two
    # little-endian words
    seed = [out[2], out[3], out[0], out[1]]
    seq = [out[6], out[7], out[4], out[5]]
    inc = [(seq[k] << 1 | (seq[k - 1] >> 31 if k else 1)) & _MASK32 for k in range(4)]
    state = _mul_add(np.stack([seed, inc], axis=1), _SEEDING[:, :, None])
    return np.stack([state, inc], axis=1)


def _seed_ints(seeds) -> list:
    """The start states and incs that 32-bit limbs of shape (4, 2, rows)
    hold, least significant first, as two lists of Python ints."""
    high = (seeds[3] << 32 | seeds[2]).tolist()
    low = (seeds[1] << 32 | seeds[0]).tolist()
    return [[h << 64 | w for h, w in zip(hs, ws)] for hs, ws in zip(high, low)]


def _jumps(steps: int) -> list:
    """(M^k, sum of M^j over j < k) modulo 2^128 for k = 0 to steps: k
    PCG64 steps take a state s with increment inc to M^k s + (that sum) inc."""
    jumps = [(1, 0)]
    for _ in range(steps):
        a, b = jumps[-1]
        jumps.append((a * _PCG_MULT & _MASK128, (b * _PCG_MULT + 1) & _MASK128))
    return jumps


def _xsl_rr(limbs):
    """PCG64's 64-bit output for each 128-bit state given in 32-bit limbs:
    the xor of its halves rotated right by its top six bits."""
    value = (limbs[3] << 32 | limbs[2]) ^ (limbs[1] << 32 | limbs[0])
    rot = limbs[3] >> 26
    return value >> rot | value << (64 - rot & 63)


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


# numpy's ziggurat for standard_normal (Marsaglia and Tsang) on its fast
# path: a 64-bit output r gives idx = r & 0xff, sign = (r >> 8) & 1 and
# rabs = (r >> 9) & (2^52 - 1), and the normal is x = +-rabs _ZIG_WI[idx]
# when rabs < _ZIG_KI[idx]. _ZIG_KI[1] is 0, so layer 1 always goes on to
# the slow path. tests/test_numpy_contract.py re-derives both tables from
# numpy's own draws.
_ZIG_KI = np.array([int(word, 16) for word in """
ef33d8025ef6a 0000000000000 c08be98fbc6a8 da354fabd8142 e51f67ec1eeea eb255e9d3f77e eef4b817ecab9
f19470afa44aa f37ed61ffcb18 f4f469561255c f61a5e41ba396 f707a755396a4 f7cb2ec28449a f86f10c6357d3
f8fa6578325de f9724c74dd0da f9da907dbf509 fa360f581fa74 fa86fde5b4bf8 facf160d354dc fb0fb6718b90f
fb49f8d5374c6 fb7ec2366fe77 fbaece9a1e50e fbdab9d040bed fc03060ff6c57 fc2821037a248 fc4a67ae25bd1
fc6a2977aee31 fc87aa92896a4 fca325e4bde85 fcbcce902231a fcd4d12f839c4 fceb54d8fec99 fd007bf1dc930
fd1464dd6c4e6 fd272a8e2f450 fd38e4ff0c91e fd49a9990b478 fd598b8920f53 fd689c08e99ec fd76ea9c8e832
fd848547b08e8 fd9178bad2c8c fd9dd07a7add2 fda9970105e8c fdb4d5dc02e20 fdbf95c5bfcd0 fdc9debb99a7d
fdd3b8118729d fddd288342f90 fde6364369f64 fdeee708d514e fdf7401a6b42e fdff46599ed40 fe06fe4bc24f2
fe0e6c225a258 fe1593c28b84c fe1c78cbc3f99 fe231e9db1caa fe29885da1b91 fe2fb8fb54186 fe35b33558d4a
fe3b799d0002a fe410e99ead7f fe46746d47734 fe4bad34c095c fe50baed29524 fe559f74ebc78 fe5a5c8e41212
fe5ef3e138689 fe6366fd91078 fe67b75c6d578 fe6be661e11aa fe6ff55e5f4f2 fe73e5900a702 fe77b823e9e39
fe7b6e37070a2 fe7f08d774243 fe8289053f08c fe85efb35173a fe893dc840864 fe8c741f0cebc fe8f9387d4ef6
fe929cc879b1d fe95909d388ea fe986fb939aa2 fe9b3ac714866 fe9df2694b6d5 fea0973abe67c fea329cf166a4
fea5aab32952c fea81a6d5741a feaa797de1cf0 feacc85f3d920 feaf07865e63c feb13762fec13 feb3585fe2a4a
feb56ae3162b4 feb76f4e284fa feb965fe62014 febb4f4cf9d7c febd2b8f449d0 febefb16e2e3e fec0be31ebde8
fec2752b15a15 fec42049dafd3 fec5bfd29f196 fec75406ceef4 fec8dd2500cb4 feca5b6911f12 fecbcf0c427fe
fecd38454fb15 fece97488c8b3 fecfec47f91b7 fed1377358528 fed278f844903 fed3b10242f4c fed4dfbad586e
fed605498c3dd fed721d414fe8 fed8357e4a982 fed9406a42cc8 feda42b85b704 fedb3c8746ab4 fedc2df416652
fedd171a46e52 feddf813c8ad3 feded0f909980 fedfa1e0fd414 fee06ae124bc4 fee12c0d95a06 fee1e579006e0
fee29734b6524 fee34150ae4bc fee3e3db89b3c fee47ee2982f4 fee51271db086 fee59e9407f41 fee623528b42e
fee6a0b5897f1 fee716c3e077a fee7858327b82 fee7ecf7b06ba fee84d2484ab2 fee8a60b66343 fee8f7accc851
fee94207e25da fee9851a829ea fee9c0e13485c fee9f557273f4 feea22762ccae feea4836b42ac feea668fc2d71
feea7d76ed6fa feea8ce04fa0a feea94be8333b feea950296410 feea8d9c0075e feea7e7897654 feea678481d24
feea48aa29e83 feea21d22e4da fee9f2e352024 fee9bbc26af2e fee97c524f2e4 fee93473c0a3a fee8e40557516
fee88ae369c7a fee828e7f3dfd fee7bdea7b888 fee749bff37ff fee6cc3a9bd5e fee64529e007e fee5b45a32888
fee51994e57b6 fee474a0006cf fee3c53e12c50 fee30b2e02ad8 fee2462ad8205 fee175eb83c5a fee09a22a1447
fedfb27e349cc fedebea76216c feddbe422047e fedcb0ece39d3 fedb964042cf4 feda6dce938c9 fed937237e98d
fed7f1c38a836 fed69d2b9c02b fed538d06ae00 fed3c41dea422 fed23e76a2fd8 fed0a732fe644 fecefda07fe34
fecd4100eb7b8 fecb708956eb4 fec98b61230c1 fec790a0da978 fec57f50f31fe fec356686c962 fec114cb4b335
febeb948e6fd0 febc429a0b692 feb9af5ee0cdc feb6fe1c98542 feb42d3ad1f9e feb13b00b2d4b feae2591a02e9
feaaeae992257 fea788d8ee326 fea3fcffd73e5 fea044c8dd9f6 fe9c5d62f563b fe9843ba947a4 fe93f471d4728
fe8f6bd76c5d6 fe8aa5dc4e8e6 fe859e07ab1ea fe804f690a940 fe7ab488233c0 fe74c751f6aa5 fe6e8102aa202
fe67da0b6abd8 fe60c9f38307e fe5947338f742 fe51470977280 fe48bd436f458 fe3f9bffd1e37 fe35d35eeb19c
fe2b5122fe4fe fe20003995557 fe13c82788314 fe068c4ee67b0 fdf82b02b71aa fde87c57efeaa fdd7509c63bfd
fdc46e529bf13 fdaf8f82e0282 fd985e1b2ba75 fd7e6ef48cf04 fd613adbd650b fd40149e2f012 fd1a1a7b4c7ac
fcee204761f9e fcba8d85e11b2 fc7d26ecd2d22 fc32b2f1e22ed fbd6581c0b83a fb606c4005434 fac40582a2874
f9e971e014598 f89fa48a41dfc f66c5f7f0302c f1a5a4b331c4a
""".split()], dtype=np.uint64)
_ZIG_WI = np.array([float.fromhex(word) for word in """
0x1.f493b7815d979p-51 0x1.b8d0be3fdf6c6p-55 0x1.250af3c2c5bb4p-54 0x1.57cb938443b61p-54
0x1.801fce82fa70cp-54 0x1.a230c2e4cd0bcp-54 0x1.c004d2f3861f7p-54 0x1.dac2f5a747274p-54
0x1.f32482d4cd5c3p-54 0x1.04d32278ebbadp-53 0x1.0f5053b025d43p-53 0x1.192a697413677p-53
0x1.227a28f7a1af5p-53 0x1.2b52e3863d880p-53 0x1.33c3fc05791f5p-53 0x1.3bd9ec1a2b12fp-53
0x1.439ef8dff9b55p-53 0x1.4b1bb363dfea7p-53 0x1.52575621ad374p-53 0x1.59580a707ce96p-53
0x1.60231cfd97eeap-53 0x1.66bd261a37c3dp-53 0x1.6d2a292000570p-53 0x1.736dad346f8a6p-53
0x1.798ad10b32a77p-53 0x1.7f845ad46f543p-53 0x1.855cc53430a77p-53 0x1.8b1649e7b769ap-53
0x1.90b2ea94ecf98p-53 0x1.96347822c1eeap-53 0x1.9b9c98e38c546p-53 0x1.a0eccdca4a72cp-53
0x1.a62676d77cd59p-53 0x1.ab4ad6e101630p-53 0x1.b05b16d136c9cp-53 0x1.b558487427a29p-53
0x1.ba4368e529f3ap-53 0x1.bf1d62abf8232p-53 0x1.c3e70f9594ef3p-53 0x1.c8a13a5323b61p-53
0x1.cd4c9fe72268bp-53 0x1.d1e9f0e80b748p-53 0x1.d679d29e41f10p-53 0x1.dafce0023b8c3p-53
0x1.df73aa9f17653p-53 0x1.e3debb5d2edfep-53 0x1.e83e9337a6f00p-53 0x1.ec93abdf982cep-53
0x1.f0de784f06226p-53 0x1.f51f654d8f688p-53 0x1.f956d9e87d7aep-53 0x1.fd8537dfa2eacp-53
0x1.00d56e04234ecp-52 0x1.02e40f5398f9ap-52 0x1.04eea9e16a5fcp-52 0x1.06f565b72a010p-52
0x1.08f869071f40bp-52 0x1.0af7d84bc6113p-52 0x1.0cf3d664bcc7fp-52 0x1.0eec84b16086bp-52
0x1.10e20329515eep-52 0x1.12d4707310fbep-52 0x1.14c3e9f8e9141p-52 0x1.16b08bfc4201ep-52
0x1.189a71a78da34p-52 0x1.1a81b51ee6d88p-52 0x1.1c666f8f82acbp-52 0x1.1e48b93e0d42ep-52
0x1.2028a9940a09fp-52 0x1.2206572c4c6e9p-52 0x1.23e1d7de9c31fp-52 0x1.25bb40ca96bfbp-52
0x1.2792a661dd37fp-52 0x1.29681c719d71bp-52 0x1.2b3bb62b82edap-52 0x1.2d0d862e1b853p-52
0x1.2edd9e8cba98ep-52 0x1.30ac10d6e48d7p-52 0x1.3278ee1f4b930p-52 0x1.3444470265ea1p-52
0x1.360e2baca52d5p-52 0x1.37d6abe05586ap-52 0x1.399dd6fb2b264p-52 0x1.3b63bbfb83d03p-52
0x1.3d28698561de0p-52 0x1.3eebede725a83p-52 0x1.40ae571e09e74p-52 0x1.426fb2da6745dp-52
0x1.44300e83c30a4p-52 0x1.45ef773cac75dp-52 0x1.47adf9e66c336p-52 0x1.496ba32488f2fp-52
0x1.4b287f602415dp-52 0x1.4ce49acb311dcp-52 0x1.4ea001638a605p-52 0x1.505abef5e5562p-52
0x1.5214df20a8b5ap-52 0x1.53ce6d56a664fp-52 0x1.558774e1bb2c8p-52 0x1.574000e555f78p-52
0x1.58f81c60e8514p-52 0x1.5aafd23241b59p-52 0x1.5c672d17d733dp-52 0x1.5e1e37b2f8cd3p-52
0x1.5fd4fc89f5e38p-52 0x1.618b860a31fc3p-52 0x1.6341de8a2b0a2p-52 0x1.64f8104b7260bp-52
0x1.66ae257c99672p-52 0x1.6864283b13137p-52 0x1.6a1a22950b2b1p-52 0x1.6bd01e8b343bbp-52
0x1.6d8626128d352p-52 0x1.6f3c43161f854p-52 0x1.70f27f78b68ebp-52 0x1.72a8e516914c6p-52
0x1.745f7dc70eedcp-52 0x1.7616535e5731fp-52 0x1.77cd6faeff449p-52 0x1.7984dc8babd93p-52
0x1.7b3ca3c8b1409p-52 0x1.7cf4cf3db22fbp-52 0x1.7ead68c73dee7p-52 0x1.80667a486ea1fp-52
0x1.82200dac88676p-52 0x1.83da2ce899f15p-52 0x1.8594e1fd1f5bdp-52 0x1.875036f7a7ec5p-52
0x1.890c35f47f72dp-52 0x1.8ac8e9205c043p-52 0x1.8c865aba10c9cp-52 0x1.8e44951446a27p-52
0x1.9003a2973b58fp-52 0x1.91c38dc288347p-52 0x1.9384612ef0afcp-52 0x1.954627903a28ap-52
0x1.9708ebb70d5eep-52 0x1.98ccb892e2a31p-52 0x1.9a919933f99bfp-52 0x1.9c5798cd5d92cp-52
0x1.9e1ec2b6f7411p-52 0x1.9fe7226fad24ap-52 0x1.a1b0c39f93692p-52 0x1.a37bb21a2c85bp-52
0x1.a547f9e0bbb88p-52 0x1.a715a724aa9a4p-52 0x1.a8e4c64a0313dp-52 0x1.aab563e9ff108p-52
0x1.ac878cd5af5cep-52 0x1.ae5b4e18bb336p-52 0x1.b030b4fc3a11ap-52 0x1.b207cf09a985bp-52
0x1.b3e0aa0e00c00p-52 0x1.b5bb541ce3d03p-52 0x1.b797db93f8927p-52 0x1.b9764f1e5f73cp-52
0x1.bb56bdb85256ep-52 0x1.bd3936b2ec0a2p-52 0x1.bf1dc9b81ae83p-52 0x1.c10486cec16a0p-52
0x1.c2ed7e5f07a2dp-52 0x1.c4d8c136e0d1cp-52 0x1.c6c6608ec8705p-52 0x1.c8b66e0eba617p-52
0x1.caa8fbd36a2abp-52 0x1.cc9e1c73bd690p-52 0x1.ce95e3068e037p-52 0x1.d0906328b8f6ep-52
0x1.d28db1037ef20p-52 0x1.d48de1533c647p-52 0x1.d691096e7f123p-52 0x1.d8973f4d7fba5p-52
0x1.daa0999206e70p-52 0x1.dcad2f8fc490ep-52 0x1.debd195522e37p-52 0x1.e0d06fb49d21cp-52
0x1.e2e74c4ea46f6p-52 0x1.e501c99c1d188p-52 0x1.e72002f97fe25p-52 0x1.e94214b2abf0ap-52
0x1.eb681c0f76f08p-52 0x1.ed9237610a73ap-52 0x1.efc086101eca9p-52 0x1.f1f328ac25321p-52
0x1.f42a40fb74d6dp-52 0x1.f665f20c90168p-52 0x1.f8a6604899782p-52 0x1.faebb187122bfp-52
0x1.fd360d22fe785p-52 0x1.ff859c118f60bp-52 0x1.00ed447d3a075p-51 0x1.021a8028fc947p-51
0x1.034a983a902abp-51 0x1.047da4e3ef5c7p-51 0x1.05b3bf6adb37ep-51 0x1.06ed023a72668p-51
0x1.082988f632e17p-51 0x1.0969708e8a254p-51 0x1.0aacd7571c0c4p-51 0x1.0bf3dd1eed448p-51
0x1.0d3ea34aa3d30p-51 0x1.0e8d4cf116593p-51 0x1.0fdffefa69fb6p-51 0x1.1136e04207041p-51
0x1.129219bbb5d35p-51 0x1.13f1d69c4096dp-51 0x1.1556448602e3bp-51 0x1.16bf93b9deef3p-51
0x1.182df74d21261p-51 0x1.19a1a564eebacp-51 0x1.1b1ad777f2f8ep-51 0x1.1c99ca971a694p-51
0x1.1e1ebfbe4ae39p-51 0x1.1fa9fc2e2d901p-51 0x1.213bc9d04cc81p-51 0x1.22d477a6fd3eep-51
0x1.24745a4ac9c24p-51 0x1.261bcc77658e0p-51 0x1.27cb2faa8592ep-51 0x1.2982ecd770e78p-51
0x1.2b437532a0a52p-51 0x1.2d0d43196db97p-51 0x1.2ee0db1a978f5p-51 0x1.30becd256aeeep-51
0x1.32a7b5e68a4a3p-51 0x1.349c405ae12a3p-51 0x1.369d27a33a840p-51 0x1.38ab39256410ap-51
0x1.3ac7570ae88fap-51 0x1.3cf27b31704a6p-51 0x1.3f2dbaa60f475p-51 0x1.417a49cb9e5dap-51
0x1.43d9815545e94p-51 0x1.464ce44a73a15p-51 0x1.48d62759c43bcp-51 0x1.4b7739d6b5a27p-51
0x1.4e3250dcd8902p-51 0x1.5109f53e9ac41p-51 0x1.54011523a7e42p-51 0x1.571b1a94ae41bp-51
0x1.5a5c08b718dd9p-51 0x1.5dc8a243ad0fep-51 0x1.61669cf861e4cp-51 0x1.653ce7b006aeap-51
0x1.69540be9fe5c3p-51 0x1.6db6b8d09e232p-51 0x1.72728f05f7a34p-51 0x1.7799556090673p-51
0x1.7d42df4d6ce8cp-51 0x1.839030529f234p-51 0x1.8ab0fbfaa7c14p-51 0x1.92ee0946f4496p-51
0x1.9cbee014057abp-51 0x1.a8fdc7894775ap-51 0x1.b981f3878fdb1p-51 0x1.d3bb48209ad33p-51
""".split()])


def _fast_normals(raw):
    """numpy's standard normal for each 64-bit output in raw, one output per
    normal, and a mask of the outputs its fast path accepts. A rejected
    output's normal is not valid: numpy goes on to its slow path there."""
    idx = (raw & 0xFF).astype(np.intp)
    rabs = (raw >> 9) & ((1 << 52) - 1)
    normals = rabs.astype(np.float64) * _ZIG_WI[idx]
    np.negative(normals, out=normals, where=(raw >> 8 & 1).astype(bool))
    return normals, rabs < _ZIG_KI[idx]


# Monte Carlo trials are encoded and decoded in blocks of this many rows,
# which bounds the memory of a run whatever its trial count.
TRIAL_BLOCK = 1024
# A block's PCG64 outputs are computed in chunks of whole rows, at most this
# many outputs (or one row) each: the limb temporaries stay small, where a
# whole block at once would raise a run's peak memory.
_CHUNK_OUTPUTS = 2048


def _trial_blocks(trials, root_seed, sizes, n, dithers=False):
    """The per-trial draws of a Monte Carlo run, in blocks of TRIAL_BLOCK
    trials, in the order this module documents. sizes holds each layer's
    codebook size. Yields (start, m1, m2, uniforms, noise) per block: the
    first trial's index, both users' messages of shape (rows, layers), the
    dither uniforms of shape (2, rows, n) when dithers is set (else None)
    and the channel normals of shape (rows, 3n).

    Every row's first width + 3n PCG64 outputs come from its start state by
    jump-ahead, all rows and outputs at once; the first width feed
    _trial_draws and the rest _fast_normals. A row with a rejected normal is
    set to its state after width outputs and draws its normals on numpy; a
    row that _trial_draws rejects draws everything on numpy from its start.
    """
    layers = len(sizes)
    both_users = (*sizes, *sizes)
    doubles = 2 * n if dithers else 0
    width = _draw_words(both_users) + doubles
    outputs = width + 3 * n
    jumps = _jumps(outputs)
    # (4, 2, 1, outputs): the multipliers of the start state and of inc
    jump_limbs = np.stack([_limb_array(ab) for ab in zip(*jumps[1:])], axis=1)[:, :, None]
    chunk = max(1, _CHUNK_OUTPUTS // outputs)
    bit_gen = np.random.PCG64(0)
    rng = np.random.Generator(bit_gen)
    for start in range(0, trials, TRIAL_BLOCK):
        rows = min(TRIAL_BLOCK, trials - start)
        seeds = _trial_states(root_seed, np.arange(start, start + rows))
        raw = np.empty((rows, width), dtype=np.uint64)
        noise = np.empty((rows, 3 * n), dtype=np.float64)
        normals_ok = np.empty(rows, dtype=bool)
        for lo in range(0, rows, chunk):
            part = slice(lo, lo + chunk)
            words = _xsl_rr(_mul_add(seeds[:, :, part, None], jump_limbs))
            raw[part] = words[:, :width]
            noise[part], accepted = _fast_normals(words[:, width:])
            normals_ok[part] = accepted.all(axis=1)
        messages, uniforms, exact = _trial_draws(raw, both_users)
        a, b = jumps[width]
        refill = np.flatnonzero(exact & ~normals_ok)
        for i, s, c in zip(refill.tolist(), *_seed_ints(seeds[:, :, refill])):
            _reseed(bit_gen, (a * s + b * c) & _MASK128, c)
            rng.standard_normal(out=noise[i])
        redraw = np.flatnonzero(~exact)
        for i, s, c in zip(redraw.tolist(), *_seed_ints(seeds[:, :, redraw])):
            _reseed(bit_gen, s, c)
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
    decoding distance could overflow int64.

    Every residual a stage meets and every candidate point lies within
    reach of the origin in each coordinate, so ||r - c||^2 <= n (2 reach)^2,
    and the expanded terms _nearest ranks by, ||c||^2 and 2 |r.c|, add up
    to at most 3 n reach^2: the one guard n (2 reach)^2 < 2^62 covers both.
    """
    _, (y_int, *layers) = on_grid(received, *codebooks)
    anum, aden = gain.numerator, gain.denominator
    peak = [max(_peak(a), 1) for a in (y_int, *layers)]
    reach = peak[0] * aden + 2 * (abs(anum) + aden) * sum(peak[1:])
    if y_int.shape[1] * (2 * reach) ** 2 >= 2**62:
        raise BudgetExceeded(
            f"exact decoding distances reach {reach} grid steps; int64 overflows"
        )
    return y_int * aden, [(c * aden, c * anum) for c in layers]


def _nearest(rows, pts, norms=None):
    """Index of the nearest point of pts to each row; ties go to the lowest.

    Float rows rank the points by ||r - p||^2. Exact int64 rows come with
    norms, each point's ||p||^2, and rank them by ||p||^2 - 2 r.p, which
    differs from ||r - p||^2 by ||r||^2, the same for every point: the
    order and its ties are the same, with no (rows, points, n) temporary.
    """
    if norms is None:
        return ((rows[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
    return (norms - 2 * (rows @ pts.T)).argmin(axis=1)


def _successive_decode(received, codebooks, gain):
    """Per-layer successive decoding, interference first inside each stage.

    A PointGrid of rows is decoded in int64 on one grid shared with the
    codebooks (see _exact_decode_grid), each stage's squared norms computed
    once; anything else is a float batch of shape (rows, n). Each stage
    finds the nearest interferer at the gain, strips it, then finds and
    strips the nearest own codeword. Returns (own_indices,
    interferer_indices), one array per layer.
    """
    if isinstance(received, PointGrid):
        resid, layers = _exact_decode_grid(received, codebooks, Fraction(gain))
        stages = [
            (own, (own * own).sum(axis=1), intf, (intf * intf).sum(axis=1))
            for own, intf in layers
        ]
    else:
        resid = _float_rows(received)
        if not np.isfinite(resid).all():
            raise ValidationError("rows", "rows must be finite")
        a = float(gain)
        stages = [(pts, None, a * pts, None) for pts in (cb.float_matrix() for cb in codebooks)]
    own_all, intf_all = [], []
    for own_pts, own_norms, intf_pts, intf_norms in stages:
        j = _nearest(resid, intf_pts, intf_norms)
        resid = resid - intf_pts[j]
        i = _nearest(resid, own_pts, own_norms)
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
