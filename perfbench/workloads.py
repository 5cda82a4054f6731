"""The four benchmark workloads: seeded inputs, the timed calls into latsec,
and the checks on latsec's outputs.

Every input comes from (workload seed, episode index); latsec itself only
sees the generated GridPoints and configs. Import this module only after
the checkout's `src` directory is on sys.path.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, is_dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

import latsec

BUDGET = 10**6
# Draw indices per grid shape. digests.json pins the report of every
# (shape, draw) pair, so a run can check any seed's inputs byte for byte.
DRAWS = 8
GRID_SHAPES = tuple(
    (p, k, n)
    for p in (2, 3, 5, 7)
    for n in range(1, 7)
    for k in range(1, n + 1)
    if p**k <= 512
)
LOOPBACK_LIMIT = 64
LOOPBACK_SHAPES = tuple(s for s in GRID_SHAPES if s[0] ** s[1] <= LOOPBACK_LIMIT)
WEAK_TRIALS = 500
WEAK_POWER_SAMPLES = 5000
LAYERED_TRIALS = 40_000
# A correct run lands beyond 3 standard errors for 1 seed in 370; at 5 the
# chance is about 6e-7, so a failure means a defect, not an unlucky seed.
Z_LIMIT = 5.0


def episode_rng(seed: int, episode: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, episode, 0xBE7C])


class Checks:
    """Counts output checks and keeps a message for each one that fails."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _plain(value):
    """JSON-ready form that keeps every digit: rationals as num/den, floats
    as repr strings."""
    if is_dataclass(value) and not isinstance(value, type):
        value = asdict(value)
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None or isinstance(value, str):
        return value
    return repr(value)


def digest(value) -> str:
    text = json.dumps(_plain(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def grid_points(shapes, seed: int, episode: int):
    """One GridPoint per shape. The seed orders each shape's draws; episode e
    takes the e-th of them, so the episodes of one run never repeat a draw
    (until DRAWS episodes) and their costs vary less than independent picks."""
    rng = np.random.default_rng([seed % 2**64, 0xD7A5])
    order = rng.permuted(np.tile(np.arange(DRAWS), (len(shapes), 1)), axis=1)
    draws = order[:, episode % DRAWS]
    return [latsec.GridPoint(p, k, n, int(d)) for (p, k, n), d in zip(shapes, draws)]


def _check_envelope(envelope, text, kind, checks: Checks) -> None:
    checks.expect(envelope["verdict"] == "pass", f"{kind} verdict is {envelope['verdict']}")
    rendered = json.loads(text)
    checks.expect(
        rendered["kind"] == kind and rendered["verdict"] == envelope["verdict"],
        "rendered report disagrees with the envelope",
    )


# ----------------------------------------------------------------------
# grid_exact: lemma then theorem-1 suite over one seeded draw per shape


def grid_run(points):
    lemmas = latsec.run_lemma_suite(points, BUDGET)
    theorems = latsec.run_theorem1_suite(points, 0, BUDGET)
    return lemmas, theorems


def _grid_configs(points, out):
    """(GridPoint, lemma report, its k+1 theorem-1 reports) per config."""
    lemmas, theorems = out
    rest = iter(theorems)
    for gp, lemma in zip(points, lemmas):
        yield gp, lemma, [next(rest) for _ in range(gp.k + 1)]


def grid_digests(points, out) -> dict:
    """Digest of each config's lemma report and its theorem-1 reports."""
    return {gp.label: digest([lemma, group]) for gp, lemma, group in _grid_configs(points, out)}


def grid_check(points, out, pinned, checks: Checks) -> None:
    lemmas, theorems = out
    checks.expect(len(lemmas) == len(points), f"{len(lemmas)} lemma reports for {len(points)} configs")
    expected = sum(gp.k + 1 for gp in points)
    checks.expect(len(theorems) == expected, f"{len(theorems)} theorem-1 reports, expected {expected}")
    if len(lemmas) != len(points) or len(theorems) != expected:
        return
    for gp, lemma, group in _grid_configs(points, out):
        checks.expect(
            lemma.label == gp.label and lemma.skipped is None and lemma.passed,
            f"{gp.label}: lemma suite verdict",
        )
        checks.expect(
            all(
                r.onebit_pass
                and r.equivocation_per_dim == r.bin_rate_per_dim - r.leakage_per_dim
                for r in group
            ),
            f"{gp.label}: theorem-1 suite verdict",
        )
        checks.expect(
            digest([lemma, group]) == pinned.get(gp.label),
            f"{gp.label}: digest differs from the pinned one",
        )


# ----------------------------------------------------------------------
# exact_loopback: noiseless recovery in exact arithmetic


def loopback_run(points):
    return latsec.run_loopback_suite(points, BUDGET, LOOPBACK_LIMIT)


def loopback_digests(points, out) -> dict:
    return {entry["label"]: digest(entry) for entry in out}


def loopback_check(points, out, pinned, checks: Checks) -> None:
    labels = [entry["label"] for entry in out]
    checks.expect(labels == [gp.label for gp in points], "loopback configs differ from the inputs")
    for entry in out:
        checks.expect(entry["all_ok"], f"{entry['label']}: loopback verdict")
    for label, value in loopback_digests(points, out).items():
        checks.expect(value == pinned.get(label), f"{label}: digest differs from the pinned one")


# ----------------------------------------------------------------------
# weak_mc and layered_mc: one CLI-level run each; statistics are checked,
# not digits, because batching may change float rounding


def _mc_seed(seed: int, episode: int) -> int:
    return int(episode_rng(seed, episode).integers(2**31))


def weak_config(seed: int, episode: int):
    # scale=4 makes the coarse cell's second moment (16/12) exceed the power
    # budget, so scale_to_power really rescales and the residual variance
    # prediction, which assumes dither power == power, applies.
    return latsec.parse_config(
        "kind=pipeline\na=0.3\np=3\nk=2\nn=4\nscale=4\nnum_bins=3\n"
        f"trials={WEAK_TRIALS}\npower_samples={WEAK_POWER_SAMPLES}\n"
        f"seed={_mc_seed(seed, episode)}\n"
    )


def layered_config(seed: int, episode: int):
    return latsec.parse_config(
        "kind=layered\np=3\nn=3\nk1=2\nk2=1\na=6\n"
        f"trials={LAYERED_TRIALS}\nseed={_mc_seed(seed, episode)}\n"
    )


def cli_run(config):
    envelope = latsec.run(config)
    return envelope, latsec.render(envelope, "json")


def weak_check(config, out, pinned, checks: Checks) -> None:
    envelope, text = out
    _check_envelope(envelope, text, "pipeline", checks)
    results = envelope["results"]
    checks.expect(results["regime"]["tag"] == "weak", "regime is not weak")
    rel = results["reliability"]
    checks.expect(rel["scheme"] == "weak" and rel["trials"] == WEAK_TRIALS, "weak run trial count")
    z = (rel["residual_variance"] - rel["predicted_variance"]) / rel["residual_stderr"]
    checks.expect(abs(z) <= Z_LIMIT, f"residual variance {z:+.2f} standard errors from the prediction")


def layered_check(config, out, pinned, checks: Checks) -> None:
    envelope, text = out
    _check_envelope(envelope, text, "layered", checks)
    results = envelope["results"]
    checks.expect(all(r["support_pass"] and r["entropy_pass"] for r in results["reports"]), "layered suite verdict")
    rel = results["reliability"]
    checks.expect(rel["scheme"] == "layered" and rel["trials"] == LAYERED_TRIALS, "layered run trial count")
    errors = rel["errors"]
    per_layer = [round(r * LAYERED_TRIALS) for r in rel["per_layer_error_rate"]]
    checks.expect(errors == round(rel["error_rate"] * LAYERED_TRIALS), "error count disagrees with error rate")
    checks.expect(
        max(per_layer) <= errors <= min(LAYERED_TRIALS, sum(per_layer)),
        "block errors outside [max, sum] of the per-layer errors",
    )


class Workload(NamedTuple):
    name: str
    items: int  # configs or trials per episode
    inputs: Callable  # (seed, episode) -> inputs
    run: Callable  # inputs -> output; the timed calls
    check: Callable  # (inputs, output, pinned digests, Checks) -> None
    digests: Callable | None = None  # (inputs, output) -> {label: digest}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid_exact", len(GRID_SHAPES),
            lambda seed, ep: grid_points(GRID_SHAPES, seed, ep),
            grid_run, grid_check, grid_digests,
        ),
        Workload("weak_mc", WEAK_TRIALS, weak_config, cli_run, weak_check),
        Workload(
            "exact_loopback", len(LOOPBACK_SHAPES),
            lambda seed, ep: grid_points(LOOPBACK_SHAPES, seed, ep),
            loopback_run, loopback_check, loopback_digests,
        ),
        Workload("layered_mc", LAYERED_TRIALS, layered_config, cli_run, layered_check),
    )
}
