"""Two-user symmetric Gaussian interference channel with an eavesdropper.

Both receivers see their own signal plus a cross-gain copy of the other
user's signal; the eavesdropper sees a scaled sum. Encoding is dithered
modulo-lattice; decoding is regime specific: MMSE-scaled lattice decoding
when interference is weak, interference-first successive decoding when it
is very strong, and per-layer successive decoding for layered schemes.
Successive decoding runs over prepared stages, one (own, interferer) pair
of candidates per layer (_decode_stages): decode_very_strong_batch builds
its one stage from exact or float rows, and the Monte Carlo runs build
theirs once per run from float rows (_float_stages).

Monte Carlo determinism: trials come in blocks of TRIAL_BLOCK. Block b
holds trials b TRIAL_BLOCK to (b + 1) TRIAL_BLOCK - 1 and draws from the
stream numpy.random.default_rng([root_seed, b]) in whole-block calls, in
this order, the same for all three schemes:

1. the messages, one integers(0, size, size=TRIAL_BLOCK) per layer with
   that layer's codebook size, user 1's layers, then user 2's (the weak
   and very-strong schemes have one layer);
2. weak scheme only, the dither uniforms, random((2, TRIAL_BLOCK, n)):
   user 1's rows, then user 2's;
3. receiver 1's normals, standard_normal((TRIAL_BLOCK, n)).

A run's last block draws whole blocks too and keeps its first rows, so the
first M trials of a run do not depend on the trial count. A dither is
float(scale) (u - 1/2) for a row u of uniforms, uniform on the cube
float(scale) [-1/2, 1/2)^n: because T is unimodular, the coarse lattice is
scale Z^n and that cube is its cell, up to the rounding of scale. The
encoder folds codeword plus dither, so a dither needs no fold of its own.
The runs read receiver 1 only, so they draw its normals alone and form its
rows alone (_received_1, which transmit also uses for y1); receiver 2's
and the eavesdropper's normals are not drawn.

The weak run encodes, transmits and decodes each block's rows at once.
The successive-decoding runs (very strong and layered) decode rounds of
whole blocks instead (_trial_rounds): each block is drawn as above, and
a round stacks _ROUND_TRIALS // TRIAL_BLOCK of them in order, so
encoding, receiver 1, decoding and the error counts run once per round.
The round size moves no count: every step decides each row on that row's
values alone. The encodes, receiver 1 and each stage's strip are
elementwise, and _nearest gives every row the least float distance D^ to
a point, ties to the lowest: a certified row is the unique argmin of D^,
and an uncertified row takes _nearest_by_distance, whose sum for a row
does not depend on the chunk it is taken in.
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
from . import lattices
from .lattices import (
    _ROUNDOFF,
    ConstructionALattice,
    PointGrid,
    _float_rows,
    _on_grid,
    _peak,
)


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


# Monte Carlo trials are drawn, encoded and decoded in blocks of this many
# rows, which bounds the memory of a run whatever its trial count. Block b
# draws from default_rng([root_seed, b]), so the size is part of the draws.
TRIAL_BLOCK = 1024


def _trial_blocks(trials, root_seed, sizes, n, dithers=False):
    """The draws of a Monte Carlo run, one block of TRIAL_BLOCK trials at a
    time, as this module documents them. sizes holds each layer's codebook
    size. Yields (start, m1, m2, uniforms, noise) per block: the first
    trial's index, both users' messages of shape (layers, rows), one
    contiguous row per layer, the dither uniforms of shape (2, rows, n)
    when dithers is set (else None) and receiver 1's normals of shape
    (rows, n).
    """
    layers, bounds = len(sizes), (*sizes, *sizes)
    for block, start in enumerate(range(0, trials, TRIAL_BLOCK)):
        rows = min(TRIAL_BLOCK, trials - start)
        rng = np.random.default_rng([int(root_seed), block])
        messages = np.stack([rng.integers(0, bound, size=TRIAL_BLOCK) for bound in bounds])[:, :rows]
        uniforms = rng.random((2, TRIAL_BLOCK, n))[:, :rows] if dithers else None
        noise = rng.standard_normal((TRIAL_BLOCK, n))[:rows]
        yield start, messages[:layers], messages[layers:], uniforms, noise


# The successive-decoding runs decode this many trials at once: whole blocks
# of _trial_blocks stacked in one round, so that the hundred or so numpy
# calls that encode and decode a round are paid once per round rather than
# once per block. The round size is not part of the draws. Four blocks: in
# a sweep of 1 to 32, the layered_mc workload ran as fast at 4 as at 8 and
# slower at 16 and 32, and a 40 000-trial layered run's traced peak is 1.3
# MiB against 2.2 MiB at 8 (CHANGES.md). A round holds its messages and
# receiver 1's normals, so its memory is bounded whatever the trial count.
_ROUND_TRIALS = 4 * TRIAL_BLOCK


def _trial_rounds(trials, root_seed, sizes, n):
    """The draws of a successive-decoding run, in rounds of _ROUND_TRIALS
    trials: the blocks of _trial_blocks, drawn as they are and stacked in
    order, the last round cut to the trials left. Yields (m1, m2, normals)
    per round: both users' messages of shape (layers, rows), one contiguous
    row per layer, and receiver 1's normals of shape (rows, n).
    """
    layers = len(sizes)
    blocks = _trial_blocks(trials, root_seed, sizes, n)
    for start in range(0, trials, _ROUND_TRIALS):
        rows = min(_ROUND_TRIALS, trials - start)
        m1 = np.empty((layers, rows), dtype=np.int64)
        m2 = np.empty((layers, rows), dtype=np.int64)
        normals = np.empty((rows, n))
        for at in range(0, rows, TRIAL_BLOCK):
            _, b1, b2, _, noise = next(blocks)
            part = slice(at, at + len(noise))
            m1[:, part], m2[:, part], normals[part] = b1, b2, noise
        yield m1, m2, normals


def dither_rows(lattice: ConstructionALattice, uniforms) -> np.ndarray:
    """Dithers uniform on the cube float(scale) [-1/2, 1/2)^n, the coarse
    cell up to the rounding of scale, one per row of uniform draws on
    [0, 1)^n."""
    return float(lattice.scale) * (np.asarray(uniforms, dtype=np.float64) - 0.5)


def transmit(x1, x2, params: ChannelParams, noise):
    """One channel use per row, given each row's 3n standard normals: the
    first n for receiver 1, the next n for receiver 2, the last n for the
    eavesdropper. Returns (y1, y2, z). The Monte Carlo runs read y1 only:
    they draw receiver 1's n normals per row alone and form y1 through
    _received_1, the function that forms it here from the first n."""
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    n = x1.shape[-1]
    if noise.shape[-1] != 3 * n:
        raise DimensionMismatch(f"need 3n = {3 * n} normals per row, got {noise.shape[-1]}")
    a, b = float(params.cross_gain), float(params.eve_gain)
    n2 = noise[..., n : 2 * n] * math.sqrt(params.noise_var)
    ne = noise[..., 2 * n :] * math.sqrt(params.eve_noise_var)
    y1 = _received_1(x1, x2, params, noise[..., :n])
    y2 = x2 + a * x1 + n2
    z = b * (x1 + x2) + ne
    return y1, y2, z


def _received_1(x1, x2, params: ChannelParams, noise):
    """Receiver 1's rows, x1 + a x2 + n1, from float64 signals and each row's
    n normals: transmit's y1, which the Monte Carlo runs form alone from
    the normals they draw for it, as they read no other output."""
    n1 = noise * math.sqrt(params.noise_var)
    return x1 + float(params.cross_gain) * x2 + n1


def _of_width(rows, n):
    """rows, or DimensionMismatch when they are not a batch of width n."""
    if rows.ndim != 2 or rows.shape[1] != n:
        raise DimensionMismatch(f"expected rows of width {n}, got shape {rows.shape}")
    return rows


def decode_weak(y, dither, params: ChannelParams, lattice: ConstructionALattice) -> PointGrid:
    """MMSE-scale each row, subtract its dither, decode to the nearest fine
    point and fold it into the coarse cell. Returns the codeword estimates
    as a PointGrid over scale / p.

    This is mod_coarse(quantize_fine(mod_coarse(v))) with one fold fewer.
    In units of scale / p, a coarse point is lambda = p m for an integer
    vector m, and mod_coarse(v) = v - lambda for one such lambda. For each
    residue r, quantize_fine takes near_r(t) = r + p floor((t - r) / p +
    1/2) and the residual t - near_r(t) in every coordinate, and picks a
    codeword by (distance, lexicographic residual) over those residuals.
    Since floor(z - m + 1/2) = floor(z + 1/2) - m for an integer m,
    near_r(t - p m) = near_r(t) - p m, so every residual, every distance
    and so the codeword picked are the same for v - lambda as for v, and
    each coset point moves by -lambda: quantize_fine(v - lambda) =
    quantize_fine(v) - lambda. mod_coarse is unchanged by a coarse shift,
    for the same reason, so the final fold of either is the same point.
    Float rows are decided on the value of v itself rather than on the
    float its fold rounds to; each decision is exact either way (see
    quantize_fine).

    y is a float array of shape (rows, n) with float dithers, or a PointGrid
    with a PointGrid of dithers; a single dither row applies to every row.
    Exact rows are scaled by the exact rational value of the float MMSE
    factor. Rows or dithers of another width, or a dither count other than
    1 or the row count, raise DimensionMismatch.
    """
    alpha = mmse_alpha(params.power, params.cross_gain, params.noise_var)
    if isinstance(y, PointGrid):
        # alpha is 0 where a^2 overflows or the factor underflows: alpha y is
        # then the origin, put on the dither's unit as a grid needs a positive one
        scaled = (PointGrid(Fraction(alpha) * y.unit, y.coords, _bound=y.peak) if alpha
                  else PointGrid(getattr(dither, "unit", y.unit), np.zeros_like(y.coords), _bound=0))
        unit, (ay, u), peaks = _on_grid((scaled, dither))
    else:
        unit, ay, u = None, alpha * _float_rows(y), _float_rows(np.atleast_2d(dither))
    _of_width(ay, lattice.n)
    if len(_of_width(u, lattice.n)) not in (1, len(ay)):
        raise DimensionMismatch(f"expected 1 or {len(ay)} dither rows, got {len(u)}")
    # |ay - u| <= |ay| + |u|: the sum of the two grids' bounds on the common unit
    v = ay - u if unit is None else PointGrid(unit, ay - u, _bound=sum(peaks))
    return lattice.mod_coarse(lattice.quantize_fine(v))


def decode_very_strong_batch(received, codebook, params: ChannelParams):
    """Interference-first decoding of many rows at once: successive decoding
    with one layer. Finds each row's interfering codeword at gain a, strips
    it, then decodes the own codeword.

    A PointGrid of rows is decoded exactly on one integer grid shared with
    the codebook (see _exact_decode_grid); anything else is a float batch of
    shape (rows, n), decided as _nearest documents. Returns (own_indices,
    interferer_indices). Ties resolve to the lowest message index. Rows of
    another width raise DimensionMismatch. The very-strong regime test is
    the caller's; no stage condition is checked here.
    """
    gain = params.cross_gain
    if isinstance(received, PointGrid):
        _of_width(received.coords, codebook.n)
        y, own, intf = _exact_decode_grid(received, codebook, Fraction(gain))
        stages = [(_Candidates(own, exact=True), _Candidates(intf, exact=True))]
    else:
        y = _of_width(_float_rows(received), codebook.n)
        stages = _float_stages([codebook], gain)
    (own,), (intf,) = _decode_stages(y, stages)
    return own, intf


def _exact_decode_grid(received, codebook, gain: Fraction):
    """Put received rows and a codebook on one integer grid.

    Returns (y, own, intf): the rows, the codewords and gain times the
    codewords, integer arrays over the common unit divided by
    gain.denominator: float64 when the bound n (2 reach)^2 below is under
    2^53, int64 otherwise. Raises BudgetExceeded when a decoding distance
    could overflow int64.

    Every residual decoding meets and every candidate point lies within
    reach of the origin in each coordinate, so ||r - c||^2 <= n (2 reach)^2,
    and the expanded terms _nearest ranks by, ||c||^2 and 2 |r.c|, add up
    to at most 3 n reach^2: the one guard n (2 reach)^2 < 2^62 covers both.
    Below 2^53 the same bound holds every coordinate, product, partial sum,
    norm, score and residual to an integer of magnitude under 2^53, which
    float64 holds exactly (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 2): the float64 scores then equal the int64 ones, in
    any summation order, and BLAS forms them. reach is taken from each
    grid's peak times its factor onto the common unit, a proven bound that
    may overestimate; where it reaches 2^53, scans of the on-grid arrays
    decide the dtype and the guard, so both are as a scan makes them.
    """
    _, (y_int, c), peaks = _on_grid((received, codebook))
    anum, aden = gain.numerator, gain.denominator

    def reach_and_bound(peak_y, peak_c):
        reach = max(peak_y, 1) * aden + 2 * (abs(anum) + aden) * max(peak_c, 1)
        return reach, y_int.shape[1] * (2 * reach) ** 2

    reach, bound = reach_and_bound(*peaks)
    if bound >= 2**53:
        reach, bound = reach_and_bound(_peak(y_int), _peak(c))
    if bound >= 2**62:
        raise BudgetExceeded(
            f"exact decoding distances reach {reach} grid steps; int64 overflows"
        )
    dtype = np.float64 if bound < 2**53 else np.int64
    return (
        np.asarray(y_int * aden, dtype),
        np.asarray(c * aden, dtype),
        np.asarray(c * anum, dtype),
    )


# Entries of the (rows, points) score matrix that _nearest forms at once: it
# takes rows in chunks, so its memory does not grow with the codebook.
_SCORE_LIMIT = 1 << 14

# _nearest certifies no float row with fl(||r||_1^2 + max ||p||^2) at or
# past this: below it no score, distance or bound term overflows.
_SCORE_REACH = 2.0**1000


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff of float64."""
    return k * _ROUNDOFF / (1 - k * _ROUNDOFF)


class _Candidates:
    """One stage's candidate points, prepared once per run for _nearest: the
    points, twice the points and each point's squared norm, all int64 or all
    float64. Float candidates that are not exact also hold the constants of
    _nearest's bound: the largest computed ||p||^2, the largest |p_i|, the
    coefficients k_s and k_d and the underflow term; and the tally of
    lattices._marks, rows (1, ..., 1) and (0, 1, ...). exact marks float64
    points of an exact grid (see _exact_decode_grid), whose scores need no
    certificate; int64 points are exact whatever it says."""

    def __init__(self, pts, exact=False):
        self.pts = pts
        with np.errstate(over="ignore", invalid="ignore"):
            self.twice = 2 * pts
            self.norms = (pts * pts).sum(axis=1)
        self.bound = None
        if pts.dtype == np.float64 and not exact:
            n = pts.shape[1]
            slack = 1 + _gamma(3 * n + 8)
            self.bound = (
                self.norms.max(),
                np.abs(pts).max(),
                2 * _gamma(n + 1) * slack,
                4 * _gamma(n + 2) * slack,
                n * 2.0**-1070,
            )
            self.tally = np.stack([np.ones(len(pts)), np.arange(len(pts), dtype=np.float64)])


def _nearest(rows, points):
    """Index of the nearest of one stage's candidate points, a _Candidates,
    to each row; ties go to the lowest.

    Rows rank the points by the score s = ||p||^2 - 2 r.p, which differs
    from D = ||r - p||^2 by ||r||^2, the same for every point: the order
    and its ties are those of D. Rows are taken in chunks whose (rows,
    points) score matrix holds at most _SCORE_LIMIT entries (or one row).
    Int64 rows and points (see _exact_decode_grid) score exactly.

    A float row must get the index that the float distance
    D^ = fl(sum_i fl(r_i - p_i)^2) gives, ties to the lowest, and its scores
    decide it only when they prove that they agree. With u the unit
    roundoff, gamma_k = k u / (1 - k u), eta = 2^-1075 the absolute error of
    a product that underflows (a sum or difference that underflows is
    exact), R = ||r||_1, P = max ||p||^2 and M = max |p_i| over the points:

    Score. s^ = fl(fl(||p||^2) - fl(r.(2p))), both inner products summed in
    any order, fused multiply-adds or not (a BLAS product). Each is within
    gamma_n of the sum of its terms' magnitudes, plus n eta, and the
    subtraction adds u |s^|; so |s^ - s| <= E_s = gamma_{n+1} (P + 2 R M)
    + 3 n eta, as gamma_n + u (1 + gamma_n) <= gamma_{n+1} (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 3).

    Distance. Each term of D^ meets a subtraction, a squaring and at most
    n - 1 additions, in whatever order the sum takes them, so |D^ - D| <=
    E_d = gamma_{n+2} D + 2 n eta, and D <= 2 (||r||^2 + ||p||^2)
    <= 2 (R^2 + P).

    Decision. Let s^_1 <= s^_2 be a row's two least scores, s^_1 first at
    point c. If s^_2 - s^_1 > 2 E_s + 2 E_d, every other point q has
    s_q - s_c = D_q - D_c > 2 E_d, so D^_q > D^_c: c is the unique least
    D^, and a certified row never has a tie. The test is
    fl(s^_2 - s^_1) > B = k_s (P + 2 R M) + k_d (R^2 + P) + n 2^-1070,
    evaluated in float64 from R = fl(sum_i |r_i|) and the stage's computed
    P, with k_s = 2 gamma_{n+1} and k_d = 4 gamma_{n+2}, each times
    1 + gamma_{3n+8}. That factor covers the rounding of R, P, B, the gap
    and the constants themselves, at most 2n + 9 roundings along any one
    chain, and n 2^-1070 = 32 n eta covers the 10 n eta above and every
    underflow of B. It is applied by lattices._marks with margin B, which
    marks every point q with fl(s^_q - s^_1) <= B: its docstring shows that
    c is the only point marked exactly when fl(s^_2 - s^_1) > B, and the
    tally then gives c. A row with fl(R^2 + P) >= _SCORE_REACH, where no
    term is sure not to overflow, is not certified. Every row left
    uncertified, such as one whose scores overflow, takes the float
    distance in _nearest_by_distance; no overflow here raises a warning.

    Layout. B is formed once for all rows. Each chunk's float scores form a
    (points, rows) block whose longer axis is contiguous: 2P @ rows.T when
    the chunk holds at least as many rows as points, else the transposed
    view of rows @ (2P).T. So _marks takes the least score and the marks
    over points across contiguous rows, or along each contiguous row, never
    one short row at a time, and its one tally product counts each row's
    marks and sums their indices. Exact candidates keep the row-major block
    and its argmin.
    """
    best = np.empty(len(rows), dtype=np.intp)
    step = max(1, _SCORE_LIMIT // len(points.pts))
    chunks = [slice(start, start + step) for start in range(0, len(rows), step)]
    with np.errstate(over="ignore", invalid="ignore"):
        if points.bound is None:
            for part in chunks:
                scores = rows[part] @ points.twice.T
                np.subtract(points.norms, scores, out=scores)
                best[part] = scores.argmin(axis=1)
            return best
        p2, p_max, score_k, dist_k, tiny = points.bound
        size = np.abs(rows) @ np.ones(rows.shape[1])
        reach = size * size + p2
        margin = score_k * (p2 + 2 * p_max * size) + dist_k * reach + tiny
        # each row's count of marks and the sum of their indices
        tallies = np.empty((2, len(rows)))
        for part in chunks:
            chunk = rows[part]
            if len(chunk) >= len(points.pts):
                gaps = points.twice @ chunk.T
            else:
                gaps = (chunk @ points.twice.T).T
            np.subtract(points.norms[:, None], gaps, out=gaps)
            tallies[:, part] = lattices._marks(gaps, margin[part], points.tally)
        count, index = tallies
        best[:] = index
        sure = (count == 1) & (reach < _SCORE_REACH)
        if not sure.all():
            best[~sure] = _nearest_by_distance(rows[~sure], points.pts)
    return best


def _nearest_by_distance(rows, pts):
    """Index of the nearest point of float pts to each float row by the float
    distance fl(sum_i (r_i - p_i)^2), ties to the lowest, in chunks of rows
    whose (rows, points, n) temporary holds at most lattices._GATHER_LIMIT
    entries (or one row)."""
    best = np.empty(len(rows), dtype=np.intp)
    for part in lattices._row_chunks(len(rows), pts.size):
        best[part] = ((rows[part, None, :] - pts[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
    return best


def _float_stages(codebooks, gain):
    """Each layer's (own, interferer) candidates for float rows, prepared
    once per run: the codewords' floats, and float(gain) times them."""
    a = float(gain)
    floats = (cb.float_matrix() for cb in codebooks)
    return [(_Candidates(pts), _Candidates(a * pts)) for pts in floats]


def _decode_stages(resid, stages):
    """Successive decoding of rows over prepared stages, one (own,
    interferer) pair of _Candidates per layer: each stage finds the nearest
    interferer point, strips it, then finds the nearest own codeword, which
    every stage but the last strips for the next. Rows must be finite.
    Returns (own_indices, interferer_indices), one array per layer.
    """
    if not np.isfinite(resid).all():
        raise ValidationError("rows", "rows must be finite")
    own_all, intf_all = [], []
    for layer, (own, intf) in enumerate(stages, 1):
        j = _nearest(resid, intf)
        resid = resid - np.take(intf.pts, j, axis=0)
        i = _nearest(resid, own)
        if layer < len(stages):  # no later stage reads the last residual
            resid -= np.take(own.pts, i, axis=0)
        own_all.append(i.astype(np.int64, copy=False))
        intf_all.append(j.astype(np.int64, copy=False))
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
