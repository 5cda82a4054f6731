"""Two-user symmetric Gaussian interference channel with an eavesdropper.

Both receivers see their own signal plus a cross-gain copy of the other
user's signal; the eavesdropper sees a scaled sum. Encoding is dithered
modulo-lattice; decoding is regime specific: MMSE-scaled lattice decoding
when interference is weak, interference-first successive decoding when it
is very strong, and per-layer successive decoding for layered schemes.

Monte Carlo determinism: every trial owns the stream
numpy.random.default_rng([root_seed, trial_index]), and each helper
consumes a fixed number of draws in a fixed order.
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
from .lattices import ConstructionALattice, PointGrid, exact_vector, on_grid


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


def classify_regime(cross_gain: float, power: float, noise_var: float = 1.0) -> Regime:
    """Classify interference strength from the cross gain and power.

    very_strong: a^2 >= P + N, so interference can be decoded first.
    weak: |a + a^3 P| <= 1/2, so residual interference folds away.
    general: neither test passes; a layered scheme is needed.
    """
    a, p, nv = float(cross_gain), float(power), float(noise_var)
    if a == 1.0:
        raise UnityGain("cross gain exactly 1 makes the channel degenerate")
    for name, value in (("cross_gain", a), ("power", p), ("noise_var", nv)):
        if not math.isfinite(value):
            raise ValidationError(name, f"{name} must be finite")
    if not p > 0:
        raise ValidationError("power", "power must be positive")
    a2 = a * a
    very_strong = a2 >= p + nv
    weak_stat = abs(a + a**3 * p)
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


def dither_sample(lattice: ConstructionALattice, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the coarse fundamental cell (parallelepiped then fold)."""
    t = rng.random(lattice.n)
    raw = lattice.coarse_basis_float() @ t
    return lattice.mod_coarse(raw)


def encode_dithered(point, dither, lattice: ConstructionALattice):
    """Transmit signal [point + dither] mod coarse lattice.

    Exact in, exact out; float dither yields a float signal.
    """
    if isinstance(dither, np.ndarray):
        raw = np.array([float(c) for c in point], dtype=np.float64) + dither
        return lattice.mod_coarse(raw)
    s = tuple(a + b for a, b in zip(exact_vector(point), exact_vector(dither)))
    return lattice.mod_coarse(s)


@dataclass(frozen=True)
class Transcript:
    """Everything one dithered round produced, for replay and diagnostics."""

    message1: int
    message2: int
    codeword1: tuple
    codeword2: tuple
    dither1: np.ndarray
    dither2: np.ndarray
    signal1: np.ndarray
    signal2: np.ndarray
    received1: np.ndarray
    received2: np.ndarray
    eavesdropped: np.ndarray


def transmit(x1, x2, params: ChannelParams, rng: np.random.Generator):
    """One channel use. Consumes exactly 3n normal draws, in a fixed order."""
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    n = x1.shape[0]
    a, b = float(params.cross_gain), float(params.eve_gain)
    n1 = rng.standard_normal(n) * math.sqrt(params.noise_var)
    n2 = rng.standard_normal(n) * math.sqrt(params.noise_var)
    ne = rng.standard_normal(n) * math.sqrt(params.eve_noise_var)
    y1 = x1 + a * x2 + n1
    y2 = x2 + a * x1 + n2
    z = b * (x1 + x2) + ne
    return y1, y2, z


def dithered_round(
    codebook,
    params: ChannelParams,
    rng: np.random.Generator,
    messages=None,
) -> Transcript:
    """Draw messages and dithers, encode both users, push through the channel.

    Draw order is fixed: message1, message2, dither1, dither2, then the
    three noise vectors inside transmit.
    """
    lat = codebook.lattice
    size = len(codebook)
    if messages is None:
        m1 = int(rng.integers(size))
        m2 = int(rng.integers(size))
    else:
        m1, m2 = int(messages[0]), int(messages[1])
    l1 = codebook.points[m1]
    l2 = codebook.points[m2]
    u1 = dither_sample(lat, rng)
    u2 = dither_sample(lat, rng)
    x1 = encode_dithered(l1, u1, lat)
    x2 = encode_dithered(l2, u2, lat)
    y1, y2, z = transmit(x1, x2, params, rng)
    return Transcript(m1, m2, l1, l2, u1, u2, x1, x2, y1, y2, z)


def decode_weak(y, dither, params: ChannelParams, lattice: ConstructionALattice):
    """MMSE-scale, subtract the dither, fold, then decode to the nearest
    fine point and fold again. Returns the exact codeword estimate.

    Exact y and dither (neither an ndarray) are scaled by the exact rational
    value of the float MMSE factor; otherwise the scaling is in floats.
    """
    alpha = mmse_alpha(params.power, params.cross_gain, params.noise_var)
    if isinstance(y, np.ndarray) or isinstance(dither, np.ndarray):
        v = alpha * np.asarray(y, dtype=np.float64) - np.asarray(dither, dtype=np.float64)
    else:
        af = Fraction(alpha)
        v = tuple(af * yi - ui for yi, ui in zip(exact_vector(y), exact_vector(dither)))
    folded = lattice.mod_coarse(v)
    fine = lattice.quantize_fine(folded)
    return lattice.mod_coarse(fine)


def _is_exact_rows(y) -> bool:
    return isinstance(y, PointGrid) or (
        isinstance(y, (tuple, list))
        and len(y) > 0
        and isinstance(y[0], (tuple, list))
    )


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

    Exact rows (a list of exact points or a PointGrid) are decoded in int64
    on one grid shared with the codebooks (see _exact_decode_grid); anything
    else is a float batch of shape (rows, n). Each stage finds the nearest
    interferer at the gain, strips it, then finds and strips the nearest own
    codeword. Returns (own_indices, interferer_indices), one array per layer.
    """
    if _is_exact_rows(received):
        resid, stages = _exact_decode_grid(received, codebooks, Fraction(gain))
    else:
        resid = np.array(received, dtype=np.float64)
        if resid.ndim != 2:
            raise DimensionMismatch(f"expected a batch of rows, got shape {resid.shape}")
        a = float(gain)
        stages = [(pts, a * pts) for pts in (cb.float_matrix() for cb in codebooks)]
    own_all, intf_all = [], []
    for own_pts, intf_pts in stages:
        j = _nearest(resid, intf_pts)
        resid -= intf_pts[j]
        i = _nearest(resid, own_pts)
        resid -= own_pts[i]
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
    a2 = float(cross_gain) ** 2
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
    every stage condition. Exact rows (a list of exact points or a
    PointGrid) are decoded in exact arithmetic. Returns
    (own_indices, interferer_indices) as per-layer tuples of arrays.
    """
    check_stage_conditions(layered.powers, params.cross_gain, params.noise_var)
    return _successive_decode(y, layered.layers, params.cross_gain)
