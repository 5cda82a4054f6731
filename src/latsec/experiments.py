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
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .channel import (
    ChannelParams,
    Regime,
    _decode_stages,
    _finite,
    _float_stages,
    _received_1,
    _trial_blocks,
    _trial_rounds,
    check_stage_conditions,
    classify_regime,
    decode_very_strong_batch,
    decode_weak,
    dither_rows,
    effective_noise_variance,
    mmse_alpha,
    stage_condition_witnesses,
    achievable_rate_weak,
)
from .codebooks import (
    BinnedCodebook,
    Codebook,
    LayeredCodebook,
    build_layered,
    check_coset_budget,
    enumerate_codebook,
    scale_to_power,
)
from .errors import BudgetExceeded, ValidationError
from .gfp import is_prime
from .infotheory import (
    check_pair_budget,
    entropy_from_counts,
    joint_bin_sum,
    mutual_info_sum,
    sum_structure,
)
from .lattices import (
    GRID_LIMIT,
    ConstructionALattice,
    PointGrid,
    _on_grid,
    random_code_matrix,
    random_unimodular,
)

ONEBIT_TOL = 1e-9


# ----------------------------------------------------------------------
# seeded configuration grids


@dataclass(frozen=True)
class GridPoint:
    """One seeded lattice configuration of the verification grid.

    The point object owns its build: its lattice is drawn on first use,
    and the codebook and self pair sums of the exact suites are made on
    first use (see _build); all three are kept on the point. Every suite
    given this object reuses them for as long as the caller holds it, and
    they are freed with it; an equal point made elsewhere, as by another
    standard_grid call, shares nothing.
    """

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

    @cached_property
    def lattice(self) -> ConstructionALattice:
        """build_lattice() at scale 1, drawn once per point object."""
        return self.build_lattice()


def iter_grid(p_values=(2, 3, 5, 7), n_max=6, coset_limit=512, draws=5):
    """The points of standard_grid one at a time, each a new object, so a
    caller that drops each point after use holds one build at a time."""
    for p in p_values:
        for n in range(1, n_max + 1):
            for k in range(1, n + 1):
                if p**k <= coset_limit:
                    for d in range(draws):
                        yield GridPoint(p, k, n, d)


def standard_grid(p_values=(2, 3, 5, 7), n_max=6, coset_limit=512, draws=5):
    """The default verification grid: primes x dimensions x code ranks,
    several independent seeded draws each, capped by codebook size."""
    return tuple(iter_grid(p_values, n_max, coset_limit, draws))


def _labeled_lattices(items):
    """(label, lattice, owner) per item, one at a time. The owner keeps the
    item's build: a GridPoint itself (with its kept lattice), else the
    lattice of a (label, lattice) pair."""
    for item in items:
        if isinstance(item, GridPoint):
            yield item.label, item.lattice, item
        else:
            label, lat = item
            yield str(label), lat, lat


def _build(lat, owner, budget):
    """A configuration's codebook and self pair sums: every exact report's
    one build. The budget is checked on every call, before the build is
    looked up, with enumerate_codebook's and sum_structure's messages. The
    build is made on the first call that fits and kept in the owner's
    attributes, so it lives as long as the caller holds the owner. A
    lattice that owns its build is referenced back by the codebook, so
    that build is freed by the cycle collector rather than at once."""
    check_coset_budget(lat, budget)
    check_pair_budget(lat.num_cosets, lat.num_cosets, budget)
    kept = vars(owner)
    if "exact_build" not in kept:
        cb = enumerate_codebook(lat, budget)
        kept["exact_build"] = cb, sum_structure(cb, cb, budget)
    return kept["exact_build"]


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


def _lemma_report(label, lat, owner, budget):
    """One configuration's lemma report from its _build; a configuration
    over budget is reported as skipped."""
    try:
        cb, sums = _build(lat, owner, budget)
    except BudgetExceeded as exc:
        return LemmaReport(
            label, lat.p, lat.k, lat.n, lat.num_cosets, 0, 0, False,
            0.0, 0.0, False, 0.0, 0.0, False, skipped=str(exc),
        )
    size = len(cb)
    sum_size = sums.num_sums
    sum_bound = (2**lat.n) * size
    h_sum = sums.entropy_bits
    h_bound = math.log2(size) + lat.n
    mi = h_sum - math.log2(size)
    return LemmaReport(
        label, lat.p, lat.k, lat.n, size,
        sum_size, sum_bound, sum_size <= sum_bound,
        h_sum, h_bound, h_sum <= h_bound + ONEBIT_TOL,
        mi, mi / lat.n, mi / lat.n <= 1 + ONEBIT_TOL,
    )


def run_lemma_suite(items, budget=10**6):
    """Exact sum-support, sum-entropy, and one-bit mutual-information checks.

    Per configuration: |C+C| <= 2^n |C|, H(X1+X2) <= log2|C| + n, and
    (1/n) I(X1; X1+X2) <= 1, all from one exact pair-sum enumeration.
    A configuration over budget is reported as skipped, not failed. Each
    item is a GridPoint or a (label, lattice) pair; its build is kept on
    it for any later suite given the same object (see _build).
    """
    return [_lemma_report(*item, budget) for item in _labeled_lattices(items)]


def suite_passed(reports) -> bool:
    return all(r.passed for r in reports)


# ----------------------------------------------------------------------
# binned secrecy reports


@dataclass(frozen=True)
class SecrecyReport:
    """One-bit secrecy bookkeeping for a binned codebook against the same
    codebook at the other user, computed on the noiseless sum statistic."""

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
    binned: BinnedCodebook, budget=10**6, label="", structure=None
) -> SecrecyReport:
    joint = joint_bin_sum(binned, budget, structure=structure)
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


def _theorem1_reports(label, lat, owner, bin_seed, budget):
    """One configuration's theorem-1 reports from its _build. Every binning
    shuffles with bin_seed, so the shuffle is drawn once, and only when a
    binning between 1 and |C| bins (k >= 2) reads it: the closed forms of
    joint_bin_sum read none."""
    cb, sums = _build(lat, owner, budget)
    shuffle = None
    if lat.k > 1:
        shuffle = np.random.default_rng(int(bin_seed)).permutation(len(cb))
    return [
        make_secrecy_report(
            BinnedCodebook(cb, lat.p**j, bin_seed, _shuffle=shuffle), budget,
            label=f"{label}_b{lat.p**j}", structure=sums,
        )
        for j in range(lat.k + 1)
    ]


def run_theorem1_suite(items, bin_seed=0, budget=10**6):
    """Binned leakage checks: for each configuration, every divisor bin
    count p^0 .. p^k against the identical codebook at the other user.
    Each item is a GridPoint or a (label, lattice) pair, and reuses the
    build kept on it by an earlier suite (see _build); a configuration
    over budget raises BudgetExceeded."""
    reports = []
    for item in _labeled_lattices(items):
        reports.extend(_theorem1_reports(*item, bin_seed, budget))
    return reports


def equivocation_identity_exact(reports) -> bool:
    """Whether equivocation = bin rate - leakage holds exactly in every report."""
    return all(
        r.equivocation_per_dim == r.bin_rate_per_dim - r.leakage_per_dim for r in reports
    )


def theorem_suite_passed(reports) -> bool:
    """Every report within one bit per dimension and exact in its equivocation."""
    return all(r.onebit_pass for r in reports) and equivocation_identity_exact(reports)


def run_sweep(items, bin_seed=0, budget=10**6):
    """One (LemmaReport, theorem-1 reports) pair per item, both from one
    _build. The theorem-1 reports are None when bin_seed is None or the
    configuration is over budget (its lemma report then says skipped)."""
    out = []
    for item in _labeled_lattices(items):
        lemma = _lemma_report(*item, budget)
        if lemma.skipped is not None or bin_seed is None:
            out.append((lemma, None))
        else:
            out.append((lemma, _theorem1_reports(*item, bin_seed, budget)))
    return out


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
    """Sum-support and sum-entropy checks for (label, LayeredCodebook) pairs.

    The sum codebook is the Minkowski sum of the layers; the check is the
    same support/entropy pair as the single-codebook lemma, applied to two
    independent layered transmissions. The total-variation distance of the
    layer-sum distribution to uniform on its support is reported as a
    diagnostic only, never gated.
    """
    reports = []
    for label, layered in items:
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
    for k in range(size.bit_length(), 0, -1):
        p = round(size ** (1 / k))
        if p**k == size and is_prime(p):
            return p, k
    return None


def _check_ints(*checks) -> None:
    """Raise ValidationError unless each (field, value, low) names an
    integer value >= low; a bool is not an integer here."""
    for field, value, low in checks:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
            raise ValidationError(field, f"{field} must be an integer >= {low}, got {value!r}")


def random_codebook_baseline(size, dim, power, seeds, budget=10**6):
    """Exact leakage of i.i.d. random codebooks versus matched lattice ones.

    Random side: for each seed, `size` points drawn uniformly from the
    step-delta grid inside the centered cube whose continuous uniform has
    per-dimension power P; leakage I(X1; X1+X2) is computed exactly on the
    step grid. Lattice side: the Construction-A codebook of size p^k at
    dimension k (p^k points need code rank k), leakage per dimension by the
    identical exact procedure. It is one number for every seed, built once
    from the identity code: a full-rank k x k code spans GF(p)^k and a
    unimodular T maps that space onto itself, so every such codebook is the
    point set {-floor(p/2), ..., ceil(p/2) - 1}^k over the unit 1/p. And
    mutual_info_sum depends only on that set: sum_structure picks its build
    from the set's key space and pair count, every build returns its counts
    in lexicographic order of the sums, so entropy_from_counts adds the same
    terms in the same order, and a codebook's rows are distinct, so
    np.unique gives H(X2) = log2|C| whatever the message order.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ValidationError("seeds", "seeds must not be empty")
    _check_ints(("size", size, 1), ("dim", dim, 1), *(("seeds", s, 0) for s in seeds))
    # a bool is not a number here, as in _check_ints
    if (
        isinstance(power, bool)
        or not isinstance(power, numbers.Real)
        or not (math.isfinite(power) and power > 0)
    ):
        raise ValidationError("power", f"power must be finite and positive, got {power!r}")
    size = int(size)
    dim = int(dim)
    check_pair_budget(size, size, budget)
    shape = _matched_lattice_shape(size)
    if shape is None:
        raise ValidationError("size", f"no prime power matches codebook size {size}")
    p, k = shape
    cb = enumerate_codebook(ConstructionALattice(p, np.eye(k, dtype=int)), budget)
    lattice_leak = mutual_info_sum(cb, budget)
    rows = []
    for seed in seeds:
        rng = np.random.default_rng([int(seed), 0xBA5E])
        draws = rng.integers(-GRID_HALF_STEPS, GRID_HALF_STEPS + 1, size=(size, dim))
        random_leak = mutual_info_sum(PointGrid(1, draws), budget)
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


def _checked_trials(trials, root_seed, least=1) -> int:
    """trials as an int, once trials is checked to be an integer >= least
    and root_seed an integer >= 0."""
    _check_ints(("trials", trials, least), ("root_seed", root_seed, 0))
    return int(trials)


def weak_reliability(codebook: Codebook, params: ChannelParams, trials, root_seed):
    """Dithered modulo-lattice rounds with MMSE-scaled lattice decoding.

    Also measures the unfolded effective noise alpha*Y - U - L + Q per
    trial; its variance has the closed-form prediction exactly, with no
    folding bias, because Q is the actual coarse point removed by the
    encoder fold. Each block of TRIAL_BLOCK trials draws its messages,
    dither uniforms and receiver 1's normals from its own stream (see
    latsec.channel) and is encoded, transmitted and decoded at once.
    """
    trials = _checked_trials(trials, root_seed)
    lat = codebook.lattice
    n = codebook.n
    floats = codebook.float_matrix()
    alpha = mmse_alpha(params.power, params.cross_gain, params.noise_var)
    errors = 0
    trial_means = np.empty(trials, dtype=np.float64)
    blocks = _trial_blocks(trials, root_seed, [len(codebook)], n, dithers=True)
    for start, m1, m2, uniforms, noise in blocks:
        m1, m2 = m1[0], m2[0]
        u1 = dither_rows(lat, uniforms[0])
        u2 = dither_rows(lat, uniforms[1])
        l1 = np.take(floats, m1, axis=0)
        sent1 = l1 + u1
        x1 = lat.mod_coarse(sent1)
        x2 = lat.mod_coarse(np.take(floats, m2, axis=0) + u2)
        y1 = _received_1(x1, x2, params, noise)
        q1 = sent1 - x1
        residual = alpha * y1 - u1 - l1 + q1
        trial_means[start : start + len(m1)] = (residual * residual).mean(axis=1)
        estimate = decode_weak(y1, u1, params, lat)
        errors += int((estimate.coords != np.take(codebook.coords, m1, axis=0)).any(axis=1).sum())
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


def _successive_errors(layers, params: ChannelParams, trials, root_seed):
    """Successive-decoding rounds over the given layer codebooks: each user
    sends the sum of one codeword per layer. Returns per-layer counts of own
    and interferer decoding errors, and the count of trials in which some
    own layer errs. The decoding stages are prepared once per run.

    Trials are drawn block by block and decoded in rounds of whole blocks
    (channel._trial_rounds). Every step decides each row on its own values:
    the encodes, receiver 1 and the strips are elementwise, and _nearest
    gives a row the least float distance to a point, ties to the lowest,
    whether it certifies the row or not. So the counts do not depend on
    the round size.
    """
    mats = [cb.float_matrix() for cb in layers]
    stages = _float_stages(layers, params.cross_gain)
    own_errors = np.zeros(len(layers), dtype=np.int64)
    intf_errors = np.zeros(len(layers), dtype=np.int64)
    trial_errors = 0
    rounds = _trial_rounds(trials, root_seed, [len(cb) for cb in layers], layers[0].n)
    for m1, m2, normals in rounds:
        x1, x2 = (np.take(mats[0], m[0], axis=0) for m in (m1, m2))
        for li, mat in enumerate(mats[1:], 1):
            x1 += np.take(mat, m1[li], axis=0)
            x2 += np.take(mat, m2[li], axis=0)
        own, intf = _decode_stages(_received_1(x1, x2, params, normals), stages)
        wrong = np.zeros(len(normals), dtype=bool)
        for li, (i, j) in enumerate(zip(own, intf)):
            own_wrong = i != m1[li]
            own_errors[li] += np.count_nonzero(own_wrong)
            intf_errors[li] += np.count_nonzero(j != m2[li])
            wrong |= own_wrong
        trial_errors += int(np.count_nonzero(wrong))
    return own_errors, intf_errors, trial_errors


def very_strong_reliability(codebook: Codebook, params: ChannelParams, trials, root_seed):
    """Uncoded-codeword rounds decoded interference first: successive
    decoding with one layer."""
    trials = _checked_trials(trials, root_seed)
    own_errors, intf_errors, errors = _successive_errors([codebook], params, trials, root_seed)
    return {
        "scheme": "very_strong",
        "trials": trials,
        "errors": errors,
        "error_rate": errors / trials,
        "interferer_error_rate": int(intf_errors[0]) / trials,
    }


def layered_reliability(layered: LayeredCodebook, params: ChannelParams, trials, root_seed):
    """Per-layer successive decoding rounds; a trial errs if any layer errs."""
    trials = _checked_trials(trials, root_seed)
    check_stage_conditions(layered.powers, params.cross_gain, params.noise_var)
    own_errors, _, errors = _successive_errors(layered.layers, params, trials, root_seed)
    return {
        "scheme": "layered",
        "trials": trials,
        "errors": errors,
        "error_rate": errors / trials,
        "per_layer_error_rate": [int(e) / trials for e in own_errors],
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
    if codebook.n * codebook.lattice.p**2 >= GRID_LIMIT:
        raise BudgetExceeded(f"p={codebook.lattice.p} overflows int64 squared distances")
    norms = (c * c).sum(axis=1)
    max_norm2 = int(norms.max())
    dist2 = norms[:, None] + norms[None, :] - 2 * (c @ c.T)
    np.fill_diagonal(dist2, np.iinfo(np.int64).max)
    dmin2 = int(dist2.min())
    a = math.isqrt(4 * max_norm2 // dmin2) + 1
    return max(a, 2)


def noiseless_loopback(codebook: Codebook):
    """Check exact recovery of every message combination for all three
    schemes at zero noise, in exact arithmetic end to end.

    The weak scheme runs at zero cross gain (its effective noise contains
    the interference term, so exactness requires a = 0); the successive
    schemes run at an engineered very-strong integer gain. The rows are
    decoded once, by decode_very_strong_batch: layered decoding of the
    one-layer codebook at power inf is the same successive decode, so
    layered_ok is that decode plus the stage conditions for [inf] at zero
    noise.
    """
    lat = codebook.lattice
    size = len(codebook)
    n = codebook.n
    quiet = ChannelParams(
        cross_gain=0.0, power=1.0, noise_var=0.0, eve_noise_var=0.0
    )
    # the dither's coords are 1, ..., n, so n bounds them
    dither = lat.mod_coarse(
        PointGrid(Fraction(1, 2 * n + 1), [list(range(1, n + 1))], _bound=n)
    )
    unit, (c, u), peaks = _on_grid((codebook, dither))
    # |c + u| <= |c| + |u|: the sum of the two grids' bounds on the common unit
    signal = lat.mod_coarse(PointGrid(unit, c + u, _bound=sum(peaks)))
    estimate = decode_weak(signal, dither, quiet, lat)
    weak_ok = bool((estimate.coords == codebook.coords).all())
    gain = engineered_gain(codebook)
    strong = ChannelParams(
        cross_gain=float(gain), power=1.0, noise_var=0.0, eve_noise_var=0.0
    )
    c = codebook.coords
    # row m1 * size + m2 is codeword m1 plus gain times codeword m2
    rows = PointGrid(
        codebook.unit, (c[:, None, :] + gain * c[None, :, :]).reshape(-1, n),
        _bound=(1 + gain) * codebook.peak,
    )
    own, intf = decode_very_strong_batch(rows, codebook, strong)
    messages = np.arange(size)
    strong_ok = bool(
        (own.reshape(size, size) == messages[:, None]).all()
        and (intf.reshape(size, size) == messages).all()
    )
    witnesses = stage_condition_witnesses([math.inf], gain, 0.0)
    layered_ok = strong_ok and all(w["satisfied"] for w in witnesses)
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
    # These lattices keep no build, so all are drawn before any is decoded:
    # interleaving the draws with the decodes measured 5-8% slower.
    for label, lat, _ in list(_labeled_lattices(items)):
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
) -> PipelineResult:
    """Classify the regime, scale the codebook to the power budget, compute
    the exact secrecy report (label "pipeline") on the sum statistic, and
    run the matching decoder's Monte Carlo reliability measurement.

    Only the weak and very-strong regimes have a single-codebook decoder;
    in the general regime the reliability run is skipped with a note (the
    layered kind measures layered reliability). The leakage fields depend
    only on the codebook and binning, never on the eavesdropper gain or
    noise; those enter the reference numbers only. trials must be an
    integer >= 0 (0 skips the reliability run) and root_seed an integer >= 0.
    The closed forms come first: one that overflows a float raises
    ValidationError before any trial runs.
    """
    trials = _checked_trials(trials, root_seed, least=0)
    regime = classify_regime(params.cross_gain, params.power, params.noise_var)
    b, ne = float(params.eve_gain), float(params.eve_noise_var)
    p2 = 2 * float(params.power)
    if ne > 0:
        mac_bound = _finite(
            0.5 * math.log2(1 + b * b * p2 / ne), "1/2 log2(1 + 2 b^2 P / N_e)",
            eve_gain=b, power=float(params.power), eve_noise_var=ne,
        )
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
    cb = scale_to_power(codebook, params.power)
    binned = BinnedCodebook(cb, num_bins, bin_seed)
    secrecy = make_secrecy_report(binned, budget, label="pipeline")
    notes = []
    reliability = None
    if trials > 0:
        if regime.tag == "weak":
            reliability = weak_reliability(cb, params, trials, root_seed)
        elif regime.tag == "very_strong":
            reliability = very_strong_reliability(cb, params, trials, root_seed)
        else:
            notes.append(
                "general regime needs an explicit layered configuration; "
                "reliability run skipped"
            )
    else:
        notes.append("reliability run skipped (trials = 0)")
    return PipelineResult(
        regime=regime,
        secrecy=secrecy,
        reliability=reliability,
        references=references,
        notes=tuple(notes),
    )
