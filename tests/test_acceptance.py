"""Acceptance gate: the ten primary checks at their stated tolerances.

Each criterion is one test. On success the test prints a single PASS line
(visible with `pytest -s`); `pytest -v` shows one pass or fail line per
criterion through the test names either way.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from latsec import (
    ChannelParams,
    ConstructionALattice,
    effective_noise_variance,
    enumerate_codebook,
    mmse_alpha,
    parse_config,
    random_codebook_baseline,
    render,
    run,
    run_lemma_suite,
    run_loopback_suite,
    run_layered_suite,
    run_theorem1_suite,
    standard_grid,
    standard_layered_set,
    weak_reliability,
)

THREE_ONE_ONE_MI_BITS = 0.612197222702993


def report_pass(num, name):
    print(f"acceptance criterion {num:02d} ({name}): PASS")


@pytest.fixture(scope="module")
def grid():
    return standard_grid()


@pytest.fixture(scope="module")
def lemma_run(grid):
    start = time.perf_counter()
    reports = run_lemma_suite(grid)
    elapsed = time.perf_counter() - start
    return reports, elapsed


@pytest.fixture(scope="module")
def theorem_reports(grid):
    return run_theorem1_suite(grid)


def test_criterion_01_pair_sum_support_bound(lemma_run):
    reports, elapsed = lemma_run
    assert len(reports) == 355
    assert all(r.skipped is None for r in reports)
    assert all(r.sum_size <= r.sum_bound for r in reports)
    assert all(r.support_pass for r in reports)
    assert elapsed < 60.0
    report_pass(1, f"support bound, {len(reports)} configs in {elapsed:.1f}s")


def test_criterion_02_normalized_sum_information(lemma_run):
    reports, _ = lemma_run
    assert all(r.mi_per_dim <= 1.0 for r in reports)
    assert all(r.onebit_pass for r in reports)
    binary_spots = [r for r in reports if r.label.startswith("p2_k1_n1_")]
    ternary_spots = [r for r in reports if r.label.startswith("p3_k1_n1_")]
    assert len(binary_spots) == 5 and len(ternary_spots) == 5
    for r in binary_spots:
        assert r.mi_bits == 0.5
    for r in ternary_spots:
        assert r.mi_bits == pytest.approx(THREE_ONE_ONE_MI_BITS, abs=1e-9)
    report_pass(2, "normalized sum information at most one bit per dimension")


def test_criterion_03_binned_leakage_and_equivocation(grid, theorem_reports):
    assert len(theorem_reports) == sum(gp.k + 1 for gp in grid)
    assert all(r.onebit_pass for r in theorem_reports)
    assert max(r.leakage_per_dim for r in theorem_reports) <= 1.0
    for r in theorem_reports:
        assert r.equivocation_per_dim == r.bin_rate_per_dim - r.leakage_per_dim
    report_pass(3, f"binned leakage over {len(theorem_reports)} bin choices")


def test_criterion_04_two_layer_entropy_bound():
    towers = standard_layered_set()
    assert len(towers) >= 10
    reports = run_layered_suite(towers)
    assert all(r.entropy_bits <= r.entropy_bound_bits for r in reports)
    assert all(r.entropy_pass and r.support_pass for r in reports)
    distances = [r.tv_to_uniform for r in reports]
    assert all(d >= 0.0 for d in distances)
    report_pass(
        4,
        f"{len(reports)} two-layer towers, max dither distance "
        f"{max(distances):.3g}",
    )


def test_criterion_05_mmse_scaling_is_optimal():
    rng = np.random.default_rng(20260819)
    alphas = np.arange(1, 2000, dtype=np.float64) * 1e-3
    for _ in range(100):
        power, gain, noise = rng.uniform(0.1, 10.0, size=3)
        star = mmse_alpha(power, gain, noise)
        clutter = gain * gain * power + noise

        def variance(alpha):
            return (1 - alpha) ** 2 * power + alpha**2 * clutter

        target = variance(star)
        assert float(variance(alphas).min()) >= target - 1e-6
        predicted = effective_noise_variance(power, gain, noise)
        assert predicted == pytest.approx(target, rel=1e-12)
    report_pass(5, "scaling optimal on 100 random channel triples")


def test_criterion_06_weak_scheme_residual_variance():
    scale = Fraction(34641016151377546, 10**16)
    lattice = ConstructionALattice(2, ((1,), (0,)), None, scale)
    codebook = enumerate_codebook(lattice, 10**6)
    power = float(scale * scale / 12)
    assert power == 1.0
    params = ChannelParams(cross_gain=0.3, power=power, noise_var=1.0)
    out = weak_reliability(codebook, params, 100_000, 20260819)
    diff = abs(out["residual_variance"] - out["predicted_variance"])
    assert out["predicted_variance"] == pytest.approx(0.5215, abs=5e-4)
    assert diff <= 3 * out["residual_stderr"]
    report_pass(
        6,
        f"residual variance {out['residual_variance']:.6f} within three "
        f"standard errors of {out['predicted_variance']:.6f}",
    )


def test_criterion_07_noiseless_loopback(grid):
    entries = run_loopback_suite(grid, size_limit=64)
    assert len(entries) == 290
    for entry in entries:
        assert entry["weak_ok"] and entry["very_strong_ok"] and entry["layered_ok"]
        assert entry["all_ok"]
    report_pass(7, f"all three schemes exact on {len(entries)} configurations")


def test_criterion_08_random_versus_lattice_separation():
    start = time.perf_counter()
    comparison = random_codebook_baseline(16, 2, 1.0, seeds=range(100))
    elapsed = time.perf_counter() - start
    assert len(comparison.rows) == 100
    assert comparison.fraction_random_above_one >= 0.95
    assert comparison.fraction_lattice_within_one == 1.0
    assert elapsed < 120.0
    report_pass(
        8,
        f"random above one in {comparison.fraction_random_above_one:.0%}, "
        f"lattice within one in all seeds, {elapsed:.1f}s",
    )


def test_criterion_09_eavesdropper_parameter_invariance():
    base = "kind=pipeline\na=0.3\nnum_bins=2\ntrials=10\npower_samples=2000\n"
    leakage_fields = set()
    secrecy_blobs = set()
    for b in ("0.1", "1.0", "10"):
        for ne in ("0", "1"):
            envelope = run(parse_config(base + f"b={b}\nne={ne}\n"))
            doc = json.loads(render(envelope, "json"))
            leakage_fields.add(
                json.dumps(doc["results"]["secrecy"]["leakage_per_dim"])
            )
            secrecy_blobs.add(json.dumps(doc["results"]["secrecy"], sort_keys=True))
    assert len(leakage_fields) == 1
    assert len(secrecy_blobs) == 1
    report_pass(9, "leakage field byte-identical across eavesdropper settings")


def test_criterion_10_byte_determinism():
    pipeline = "kind=pipeline\na=0.3\nnum_bins=2\ntrials=20\npower_samples=2000\n"
    first = render(run(parse_config(pipeline)), "json")
    second = render(run(parse_config(pipeline)), "json")
    assert first == second

    sweep = "kind=sweep\np_values=2,3\nn_max=2\ndraws=2\n"
    assert render(run(parse_config(sweep)), "csv") == render(
        run(parse_config(sweep)), "csv"
    )
    report_pass(10, "repeat runs byte-identical")
