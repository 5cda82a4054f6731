"""Verification suites: exact lemma and theorem checks over seeded lattice
grids, layered-codebook checks, the structured-versus-random comparison,
Monte Carlo reliability runs, and the regime pipeline that ties them to a
channel configuration.

Every suite is a pure function of its inputs plus explicit seeds, and
reports are emitted in configuration order, so repeated runs produce
identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import (
    ChannelParams,
    Regime,
    check_stage_conditions,
    classify_regime,
    decode_layered,
    decode_very_strong_batch,
    decode_weak,
    dithered_round,
    effective_noise_variance,
    encode_dithered,
    mmse_alpha,
    achievable_rate_weak,
    transmit,
    trial_rng,
)
from .codebooks import (
    BinnedCodebook,
    Codebook,
    LayeredCodebook,
    build_layered,
    enumerate_codebook,
    scale_to_power,
)
from .errors import BudgetExceeded, ValidationError
from .infotheory import (
    entropy_from_counts,
    joint_bin_sum,
    mutual_info_sum,
    sum_structure,
    unique_rows,
)
from .lattices import (
    GRID_LIMIT,
    ConstructionALattice,
    PointGrid,
    random_code_matrix,
    random_unimodular,
)

ONEBIT_TOL = 1e-9


# ----------------------------------------------------------------------
# seeded configuration grids


@dataclass(frozen=True)
class GridPoint:
    """One seeded lattice configuration of the verification grid."""

    p: int
    k: int
    n: int
    draw: int

    @property
    def label(self) -> str:
        return f"p{self.p}_k{self.k}_n{self.n}_d{self.draw}"

    def build_lattice(self, scale=1) -> ConstructionALattice:
        g = random_code_matrix(self.p, self.k, self.n, seed=[self.p, self.k, self.n, self.draw, 11])
        t = random_unimodular(self.n, seed=[self.p, self.k, self.n, self.draw, 13])
        return ConstructionALattice(self.p, g, t, scale)


def standard_grid(p_values=(2, 3, 5, 7), n_max=6, coset_limit=512, draws=5):
    """The default verification grid: primes x dimensions x code ranks,
    several independent seeded draws each, capped by codebook size."""
    points = []
    for p in p_values:
        for n in range(1, n_max + 1):
            for k in range(1, n + 1):
                if p**k <= coset_limit:
                    for d in range(draws):
                        points.append(GridPoint(p, k, n, d))
    return tuple(points)


def _labeled_lattices(items):
    out = []
    for item in items:
        if isinstance(item, GridPoint):
            out.append((item.label, item.build_lattice()))
        elif isinstance(item, ConstructionALattice):
            out.append((f"p{item.p}_k{item.k}_n{item.n}", item))
        else:
            label, lat = item
            out.append((str(label), lat))
    return out


# ----------------------------------------------------------------------
# sum-set and one-bit lemma suite


@dataclass(frozen=True)
class LemmaReport:
    label: str
    p: int
    k: int
    n: int
    size: int
    sum_size: int
    sum_bound: int
    support_pass: bool
    entropy_bits: float
    entropy_bound_bits: float
    entropy_pass: bool
    mi_bits: float
    mi_per_dim: float
    onebit_pass: bool
    skipped: str | None = None

    @property
    def passed(self) -> bool:
        if self.skipped is not None:
            return True
        return self.support_pass and self.entropy_pass and self.onebit_pass


def _skipped_lemma_report(label, lat, reason) -> LemmaReport:
    return LemmaReport(
        label, lat.p, lat.k, lat.n, lat.num_cosets, 0, 0, False,
        0.0, 0.0, False, 0.0, 0.0, False, skipped=reason,
    )


def run_lemma_suite(items, budget=10**6):
    """Exact sum-support, sum-entropy, and one-bit mutual-information checks.

    Per configuration: |C+C| <= 2^n |C|, H(X1+X2) <= log2|C| + n, and
    (1/n) I(X1; X1+X2) <= 1, all from one exact pair-sum enumeration.
    A configuration over budget is reported as skipped, not failed.
    """
    reports = []
    for label, lat in _labeled_lattices(items):
        try:
            cb = enumerate_codebook(lat, budget)
            sums = sum_structure(cb, cb, budget)
        except BudgetExceeded as exc:
            reports.append(_skipped_lemma_report(label, lat, str(exc)))
            continue
        size = len(cb)
        sum_size = sums.num_sums
        sum_bound = (2**lat.n) * size
        h_sum = entropy_from_counts(sums.counts(), size * size)
        h_bound = math.log2(size) + lat.n
        mi = h_sum - math.log2(size)
        reports.append(
            LemmaReport(
                label, lat.p, lat.k, lat.n, size,
                sum_size, sum_bound, sum_size <= sum_bound,
                h_sum, h_bound, h_sum <= h_bound + ONEBIT_TOL,
                mi, mi / lat.n, mi / lat.n <= 1 + ONEBIT_TOL,
            )
        )
    return reports


def suite_passed(reports) -> bool:
    return all(r.passed for r in reports)


# ----------------------------------------------------------------------
# binned secrecy reports


@dataclass(frozen=True)
class SecrecyReport:
    """One-bit secrecy bookkeeping for a binned codebook against a known
    interferer codebook, computed on the noiseless sum statistic."""

    label: str
    dim: int
    codebook_size: int
    num_bins: int
    rate_per_dim: float
    bin_rate_per_dim: float
    leakage_per_dim: float
    equivocation_per_dim: float
    onebit_pass: bool
    sum_gap_bits: float


def make_secrecy_report(
    binned: BinnedCodebook, other, budget=10**6, label="", structure=None
) -> SecrecyReport:
    joint = joint_bin_sum(binned, other, budget, structure=structure)
    n = binned.codebook.n
    leak_per_dim = joint.mutual_info_bits() / n
    rhat = binned.bin_rate_per_dim
    return SecrecyReport(
        label=label,
        dim=n,
        codebook_size=len(binned.codebook),
        num_bins=binned.num_bins,
        rate_per_dim=binned.rate_per_dim,
        bin_rate_per_dim=rhat,
        leakage_per_dim=leak_per_dim,
        equivocation_per_dim=rhat - leak_per_dim,
        onebit_pass=leak_per_dim <= 1 + ONEBIT_TOL,
        sum_gap_bits=2 * leak_per_dim,
    )


def run_theorem1_suite(items, bin_seed=0, budget=10**6):
    """Binned leakage checks: for each configuration, every divisor bin
    count p^0 .. p^k against the identical codebook at the other user."""
    reports = []
    for label, lat in _labeled_lattices(items):
        cb = enumerate_codebook(lat, budget)
        structure = sum_structure(cb, cb, budget)
        for j in range(lat.k + 1):
            num_bins = lat.p**j
            binned = BinnedCodebook(cb, num_bins, bin_seed)
            reports.append(
                make_secrecy_report(
                    binned, cb, budget,
                    label=f"{label}_b{num_bins}", structure=structure,
                )
            )
    return reports


def theorem_suite_passed(reports) -> bool:
    return all(r.onebit_pass for r in reports)


# ----------------------------------------------------------------------
# layered (superposition) suite


@dataclass(frozen=True)
class LayeredReport:
    label: str
    n: int
    layer_sizes: tuple
    powers: tuple
    sum_size: int
    pair_sum_size: int
    support_bound: int
    support_pass: bool
    entropy_bits: float
    entropy_bound_bits: float
    entropy_pass: bool
    tv_to_uniform: float

    @property
    def passed(self) -> bool:
        return self.support_pass and self.entropy_pass


def _layer_sum_distribution(layered: LayeredCodebook, budget):
    """The sum set of the layers (a PointGrid) and each sum's multiplicity."""
    sums = layered.layers[0]
    counts = np.ones(len(sums), dtype=np.int64)
    for cb in layered.layers[1:]:
        sums = sum_structure(sums, cb, budget)
        counts = sums.weighted_counts(counts, np.ones(len(cb), dtype=np.int64))
    return sums, counts


def run_layered_suite(items, budget=10**6):
    """Sum-support and sum-entropy checks for layered codebooks.

    The sum codebook is the Minkowski sum of the layers; the check is the
    same support/entropy pair as the single-codebook lemma, applied to two
    independent layered transmissions. The total-variation distance of the
    layer-sum distribution to uniform on its support is reported as a
    diagnostic only, never gated.
    """
    reports = []
    for item in items:
        if isinstance(item, LayeredCodebook):
            label, layered = f"layers{len(item)}", item
        else:
            label, layered = item
        sums, counts = _layer_sum_distribution(layered, budget)
        sum_size = len(sums)
        pairs = sum_structure(sums, sums, budget)
        pair_counts = pairs.weighted_counts(counts, counts)
        total = int(counts.sum())
        h = entropy_from_counts(pair_counts, total * total)
        bound = math.log2(sum_size) + layered.n
        # sum |c / total - 1 / sum_size| / 2, over one integer denominator
        tv = Fraction(int(np.abs(counts * sum_size - total).sum()), 2 * total * sum_size)
        reports.append(
            LayeredReport(
                label=label,
                n=layered.n,
                layer_sizes=tuple(len(cb) for cb in layered.layers),
                powers=layered.powers,
                sum_size=sum_size,
                pair_sum_size=pairs.num_sums,
                support_bound=(2**layered.n) * sum_size,
                support_pass=pairs.num_sums <= (2**layered.n) * sum_size,
                entropy_bits=h,
                entropy_bound_bits=bound,
                entropy_pass=h <= bound + ONEBIT_TOL,
                tv_to_uniform=float(tv),
            )
        )
    return reports


_TOWER_SHAPES = (
    (2, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 1), (2, 2, 2, 2),
    (2, 3, 2, 1), (2, 3, 3, 2),
    (3, 1, 1, 1), (3, 2, 1, 1), (3, 2, 2, 1), (3, 2, 2, 2),
    (3, 3, 2, 1), (3, 3, 2, 2),
)


def standard_layered_set(budget=10**6):
    """Twelve two-layer towers with adjacent coarse scales (ratio exactly p),
    which keeps every layer inside the shared fine lattice by construction."""
    out = []
    for p, n, k1, k2 in _TOWER_SHAPES:
        g = random_code_matrix(p, k1, n, seed=[p, n, k1, k2, 17])
        t = random_unimodular(n, seed=[p, n, k1, k2, 19])
        base = ConstructionALattice(p, g, t, 1)
        layered = build_layered(
            base,
            [(k1, Fraction(1)), (k2, Fraction(p))],
            [math.inf, math.inf],
            budget,
        )
        out.append((f"tower_p{p}_n{n}_k{k1}{k2}", layered))
    return tuple(out)


# ----------------------------------------------------------------------
# structured-versus-random comparison

GRID_STEP_SCALE = 2**-10
GRID_HALF_STEPS = 1773  # floor(sqrt(3) / 2**-10): cube edge in step units


@dataclass(frozen=True)
class BaselineRow:
    seed: int
    random_leak_bits: float
    random_leak_per_dim: float
    lattice_leak_bits: float
    lattice_leak_per_dim: float


@dataclass(frozen=True)
class BaselineComparison:
    codebook_size: int
    random_dim: int
    lattice_dim: int
    power: float
    grid_step: float
    grid_half_steps: int
    rows: tuple

    @property
    def fraction_random_above_one(self) -> float:
        hits = sum(1 for r in self.rows if r.random_leak_per_dim > 1)
        return hits / len(self.rows)

    @property
    def fraction_lattice_within_one(self) -> float:
        hits = sum(
            1 for r in self.rows if r.lattice_leak_per_dim <= 1 + ONEBIT_TOL
        )
        return hits / len(self.rows)


def _matched_lattice_shape(size: int):
    """size as p^k for prime p, or None when no Construction-A codebook
    can match the size exactly."""
    if size < 2:
        return None
    p = 2
    while p * p <= size:
        if size % p == 0:
            k = 0
            m = size
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
        p += 1
    return (size, 1)


def random_codebook_baseline(size, dim, power, seeds, budget=10**6):
    """Exact leakage of i.i.d. random codebooks versus matched lattice ones.

    Random side: `size` points drawn uniformly from the step-delta grid
    inside the centered cube whose continuous uniform has per-dimension
    power P; leakage I(X1; X1+X2) is computed exactly on the step grid.
    Lattice side: a seeded Construction-A codebook of the same size (built
    at dimension k since p^k points need code rank k), leakage per
    dimension computed by the identical exact procedure.
    """
    size = int(size)
    dim = int(dim)
    if size * size > budget:
        raise BudgetExceeded(f"{size}^2 pair sums exceed budget {budget}")
    shape = _matched_lattice_shape(size)
    if shape is None:
        raise ValidationError("size", f"no prime power matches codebook size {size}")
    p, k = shape
    rows = []
    for seed in seeds:
        rng = np.random.default_rng([int(seed), 0xBA5E])
        draws = rng.integers(-GRID_HALF_STEPS, GRID_HALF_STEPS + 1, size=(size, dim))
        sums = (draws[:, None, :] + draws[None, :, :]).reshape(-1, dim)
        sum_counts = np.bincount(unique_rows(sums)[1])
        point_counts = np.bincount(unique_rows(draws)[1])
        h_sum = entropy_from_counts(sum_counts, size * size)
        h_x = entropy_from_counts(point_counts, size)
        random_leak = h_sum - h_x
        g = random_code_matrix(p, k, k, seed=[int(seed), 0x1A77])
        t = random_unimodular(k, seed=[int(seed), 0x7A11])
        lat = ConstructionALattice(p, g, t, 1)
        cb = enumerate_codebook(lat, budget)
        lattice_leak = mutual_info_sum(cb, cb, budget)
        rows.append(
            BaselineRow(
                seed=int(seed),
                random_leak_bits=random_leak,
                random_leak_per_dim=random_leak / dim,
                lattice_leak_bits=lattice_leak,
                lattice_leak_per_dim=lattice_leak / k,
            )
        )
    return BaselineComparison(
        codebook_size=size,
        random_dim=dim,
        lattice_dim=k,
        power=float(power),
        grid_step=GRID_STEP_SCALE * math.sqrt(float(power)),
        grid_half_steps=GRID_HALF_STEPS,
        rows=tuple(rows),
    )


# ----------------------------------------------------------------------
# Monte Carlo reliability runs


def weak_reliability(codebook: Codebook, params: ChannelParams, trials, root_seed):
    """Dithered modulo-lattice rounds with MMSE-scaled lattice decoding.

    Also measures the unfolded effective noise alpha*Y - U - L + Q per
    trial; its variance has the closed-form prediction exactly, with no
    folding bias, because Q is the actual coarse point removed by the
    encoder fold.
    """
    lat = codebook.lattice
    floats = codebook.float_matrix()
    alpha = mmse_alpha(params.power, params.cross_gain, params.noise_var)
    trials = int(trials)
    errors = 0
    trial_means = np.empty(trials, dtype=np.float64)
    for t in range(trials):
        rng = trial_rng(root_seed, t)
        tr = dithered_round(codebook, params, rng)
        l1 = floats[tr.message1]
        q1 = l1 + tr.dither1 - tr.signal1
        residual = alpha * tr.received1 - tr.dither1 - l1 + q1
        trial_means[t] = float((residual * residual).mean())
        estimate = decode_weak(tr.received1, tr.dither1, params, lat)
        if estimate != tr.codeword1:
            errors += 1
    variance = float(trial_means.mean())
    stderr = (
        float(trial_means.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    )
    return {
        "scheme": "weak",
        "trials": trials,
        "errors": errors,
        "error_rate": errors / trials,
        "residual_variance": variance,
        "residual_stderr": stderr,
        "predicted_variance": effective_noise_variance(
            params.power, params.cross_gain, params.noise_var
        ),
        "mmse_alpha": alpha,
    }


def very_strong_reliability(codebook: Codebook, params: ChannelParams, trials, root_seed):
    """Uncoded-codeword rounds decoded interference first, in one batch."""
    trials = int(trials)
    size = len(codebook)
    pts = codebook.float_matrix()
    n = codebook.n
    m1 = np.empty(trials, dtype=np.int64)
    m2 = np.empty(trials, dtype=np.int64)
    received = np.empty((trials, n), dtype=np.float64)
    for t in range(trials):
        rng = trial_rng(root_seed, t)
        m1[t] = rng.integers(size)
        m2[t] = rng.integers(size)
        y1, _, _ = transmit(pts[m1[t]], pts[m2[t]], params, rng)
        received[t] = y1
    own, interferer = decode_very_strong_batch(received, codebook, params)
    return {
        "scheme": "very_strong",
        "trials": trials,
        "errors": int((own != m1).sum()),
        "error_rate": float((own != m1).mean()),
        "interferer_error_rate": float((interferer != m2).mean()),
    }


def layered_reliability(layered: LayeredCodebook, params: ChannelParams, trials, root_seed):
    """Per-layer successive decoding rounds; a trial errs if any layer errs."""
    check_stage_conditions(layered.powers, params.cross_gain, params.noise_var)
    trials = int(trials)
    sizes = [len(cb) for cb in layered.layers]
    mats = [cb.float_matrix() for cb in layered.layers]
    n = layered.n
    own_true = np.empty((trials, len(sizes)), dtype=np.int64)
    received = np.empty((trials, n), dtype=np.float64)
    for t in range(trials):
        rng = trial_rng(root_seed, t)
        x1 = np.zeros(n, dtype=np.float64)
        x2 = np.zeros(n, dtype=np.float64)
        for li, size in enumerate(sizes):
            m = int(rng.integers(size))
            own_true[t, li] = m
            x1 += mats[li][m]
        for li, size in enumerate(sizes):
            x2 += mats[li][int(rng.integers(size))]
        y1, _, _ = transmit(x1, x2, params, rng)
        received[t] = y1
    own, _ = decode_layered(received, layered, params)
    per_layer = [float((own[li] != own_true[:, li]).mean()) for li in range(len(sizes))]
    block_err = np.zeros(trials, dtype=bool)
    for li in range(len(sizes)):
        block_err |= own[li] != own_true[:, li]
    return {
        "scheme": "layered",
        "trials": trials,
        "errors": int(block_err.sum()),
        "error_rate": float(block_err.mean()),
        "per_layer_error_rate": per_layer,
    }


# ----------------------------------------------------------------------
# noiseless loopback


def engineered_gain(codebook: Codebook) -> int:
    """Smallest convenient integer cross gain that provably separates the
    interference copy from everything else at zero noise: a^2 dmin^2 >
    4 max_norm^2 guarantees the interference-first argmin is exact.

    Both squared lengths carry the factor unit^2, so the ratio is taken on
    the integer coordinates, which lie in [-p/2, p/2)."""
    c = codebook.coords
    if len(c) == 1:
        return 2
    if codebook.n * codebook.lattice.p**2 >= GRID_LIMIT:
        raise BudgetExceeded(f"p={codebook.lattice.p} overflows int64 squared distances")
    max_norm2 = int((c * c).sum(axis=1).max())
    dmin2 = min(int(((c[i + 1 :] - c[i]) ** 2).sum(axis=1).min()) for i in range(len(c) - 1))
    a = math.isqrt(4 * max_norm2 // dmin2) + 1
    return max(a, 2)


def noiseless_loopback(codebook: Codebook):
    """Check exact recovery of every message combination for all three
    schemes at zero noise, in exact arithmetic end to end.

    The weak scheme runs at zero cross gain (its effective noise contains
    the interference term, so exactness requires a = 0); the successive
    schemes run at an engineered very-strong integer gain.
    """
    lat = codebook.lattice
    size = len(codebook)
    n = codebook.n
    quiet = ChannelParams(
        cross_gain=0.0, power=1.0, noise_var=0.0, eve_noise_var=0.0
    )
    dither = lat.mod_coarse(tuple(Fraction(i + 1, 2 * n + 1) for i in range(n)))
    weak_ok = True
    for point in codebook.points:
        x = encode_dithered(point, dither, lat)
        estimate = decode_weak(x, dither, quiet, lat)
        if estimate != point:
            weak_ok = False
            break
    gain = engineered_gain(codebook)
    strong = ChannelParams(
        cross_gain=float(gain), power=1.0, noise_var=0.0, eve_noise_var=0.0
    )
    c = codebook.coords
    # row m1 * size + m2 is codeword m1 plus gain times codeword m2
    rows = PointGrid(codebook.unit, (c[:, None, :] + gain * c[None, :, :]).reshape(-1, n))
    expected_own = np.repeat(np.arange(size, dtype=np.int64), size)
    expected_intf = np.tile(np.arange(size, dtype=np.int64), size)
    own, intf = decode_very_strong_batch(rows, codebook, strong)
    strong_ok = bool((own == expected_own).all() and (intf == expected_intf).all())
    layered = LayeredCodebook(lat, [codebook], [math.inf])
    own_l, intf_l = decode_layered(rows, layered, strong)
    layered_ok = bool(
        (own_l[0] == expected_own).all() and (intf_l[0] == expected_intf).all()
    )
    return {
        "size": size,
        "gain": gain,
        "weak_ok": weak_ok,
        "very_strong_ok": strong_ok,
        "layered_ok": layered_ok,
        "all_ok": weak_ok and strong_ok and layered_ok,
    }


def run_loopback_suite(items, budget=10**6, size_limit=64):
    """Noiseless exact-recovery check over every configuration small enough
    to enumerate all message combinations."""
    results = []
    for label, lat in _labeled_lattices(items):
        if lat.num_cosets > size_limit:
            continue
        cb = enumerate_codebook(lat, budget)
        entry = noiseless_loopback(cb)
        entry["label"] = label
        results.append(entry)
    return results


# ----------------------------------------------------------------------
# regime pipeline


@dataclass(frozen=True)
class PipelineResult:
    regime: Regime
    secrecy: SecrecyReport
    reliability: dict | None
    references: dict
    notes: tuple


def run_regime_pipeline(
    codebook: Codebook,
    params: ChannelParams,
    num_bins: int,
    trials: int,
    root_seed: int,
    bin_seed: int = 0,
    budget: int = 10**6,
    layered: LayeredCodebook | None = None,
    label: str = "pipeline",
) -> PipelineResult:
    """Classify the regime, scale the codebook to the power budget, compute
    the exact secrecy report on the sum statistic, and run the matching
    decoder's Monte Carlo reliability measurement.

    The leakage fields depend only on the codebook and binning, never on
    the eavesdropper gain or noise; those enter the reference numbers only.
    """
    regime = classify_regime(params.cross_gain, params.power, params.noise_var)
    cb = scale_to_power(codebook, params.power)
    binned = BinnedCodebook(cb, num_bins, bin_seed)
    secrecy = make_secrecy_report(binned, cb, budget, label=label)
    notes = []
    reliability = None
    if trials > 0:
        if regime.tag == "weak":
            reliability = weak_reliability(cb, params, trials, root_seed)
        elif regime.tag == "very_strong":
            reliability = very_strong_reliability(cb, params, trials, root_seed)
        elif layered is not None:
            reliability = layered_reliability(layered, params, trials, root_seed)
        else:
            notes.append(
                "general regime needs an explicit layered configuration; "
                "reliability run skipped"
            )
    else:
        notes.append("reliability run skipped (trials = 0)")
    b = float(params.eve_gain)
    p2 = 2 * float(params.power)
    if params.eve_noise_var > 0:
        mac_bound = 0.5 * math.log2(1 + b * b * p2 / float(params.eve_noise_var))
    else:
        mac_bound = math.inf
    references = {
        "mmse_alpha": mmse_alpha(params.power, params.cross_gain, params.noise_var),
        "effective_noise_variance": effective_noise_variance(
            params.power, params.cross_gain, params.noise_var
        ),
        "achievable_rate_weak": achievable_rate_weak(
            params.power, params.cross_gain, params.noise_var
        ),
        "eavesdropper_mac_sum_rate_bound": mac_bound,
    }
    return PipelineResult(
        regime=regime,
        secrecy=secrecy,
        reliability=reliability,
        references=references,
        notes=tuple(notes),
    )
