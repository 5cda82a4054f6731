"""latsec benchmark: time to verdict end to end, self time per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Each episode runs in its own fresh interpreter (perfbench/episode.py), one
after another, with BLAS/OpenMP threads pinned to 1. Episodes run until S
seconds have passed, at least three. With --trace 0 the last stdout line
holds the end-to-end metrics; with --trace 1 each episode runs untraced and
then traced, and the last line holds the per-layer metrics (per episode).
--all runs every workload both ways and prints every metric with its unit.
Results and provenance also go to perfbench/.out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EPISODE = HERE / "episode.py"
WORKLOADS = ("grid_exact", "weak_mc", "exact_loopback", "layered_mc")
SETUP_SAMPLES = 5
MIN_EPISODES = 3
DEADLINE_S = 170.0  # every run must end within 180 s
# Times are reported at a reference machine speed: each child's measured
# times are scaled by CALIBRATION_REF_S / (median time of episode.py's
# calibration kernel in that child). On a shared host whose speed drifts by
# tens of percent for minutes, raw times of identical work spread by up to
# 37% across runs; the kernel slows down with them. The raw times are kept
# in the result file.
CALIBRATION_REF_S = 0.0175

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)

END_TO_END_UNITS = {
    "wall_s": "s", "items_per_s": "1/s", "cpu_s": "s",
    "peak_rss_mb": "MiB", "setup_s": "s", "passed_frac": "frac",
}


class BenchError(Exception):
    pass


class Run:
    """One benchmark run: its child processes, their results and checks."""

    def __init__(self, workload: str, seed: int, started: float):
        self.workload = workload
        self.seed = seed
        self.started = started
        self.env = dict(os.environ, PYTHONHASHSEED="0", **dict.fromkeys(THREAD_VARS, "1"))
        # bytecode is cached in the checkout, as for an installed package
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.attempted = 0
        self.failures = []
        self.versions = {}
        self.results = []

    def child(self, episode: int, mode: str) -> dict | None:
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 1:
            raise BenchError("out of time before the run finished")
        t0 = time.monotonic_ns()
        argv = [sys.executable, str(EPISODE), self.workload, str(self.seed), str(episode), mode, str(t0)]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"episode {episode} ({mode}) did not finish in time") from None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.attempted += 1
            self.failures.append(f"episode {episode} ({mode}) exited {proc.returncode}: {tail[0]}")
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.versions = {"numpy": result["numpy"], "latsec": result["latsec"]}
        self.results.append(dict(result, episode=episode, mode=mode))
        if mode != "setup":
            self.attempted += result["attempted"]
            self.failures += [f"episode {episode} ({mode}): {f}" for f in result["failures"]]
        return result

    def episodes(self, seconds: float, modes) -> list:
        """Run episodes 0, 1, ... for `seconds`, at least MIN_EPISODES; each
        episode once per mode, back to back. Returns, per episode that
        completed in every mode, the list of its results."""
        done = []
        begin = time.monotonic()
        episode = 0
        while episode < MIN_EPISODES or time.monotonic() - begin < seconds:
            results = [self.child(episode, mode) for mode in modes]
            if None not in results:
                done.append(results)
            episode += 1
        if not done:
            raise BenchError(f"no episode of {self.workload} completed: {self.failures[:1]}")
        return done


def _speed(result: dict) -> float:
    """Factor from seconds measured in one child to seconds at reference speed."""
    return CALIBRATION_REF_S / median(result["calibration_s"])


def _at_ref(result: dict, key: str) -> float:
    return result[key] * _speed(result)


def end_to_end(run: Run, seconds: float) -> dict:
    run.child(0, "setup")  # first import in a fresh checkout writes bytecode; not counted
    setups = [r for r in (run.child(0, "setup") for _ in range(SETUP_SAMPLES)) if r]
    eps = [r for r, in run.episodes(seconds, ["run"])]
    values = {
        "wall_s": median([_at_ref(r, "wall_s") for r in eps]),
        "items_per_s": sum(r["items"] for r in eps) / sum(_at_ref(r, "wall_s") for r in eps),
        "cpu_s": median([_at_ref(r, "cpu_s") for r in eps]),
        "peak_rss_mb": max(r["peak_rss_mib"] for r in eps),
        "setup_s": median([_at_ref(r, "setup_s") for r in setups + eps]),
        "passed_frac": 1 - len(run.failures) / max(run.attempted, 1),
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}


def _per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    if name.endswith(".bytes"):
        return "B"
    return "count"


def per_layer(run: Run, seconds: float) -> dict:
    run.child(0, "setup")
    # each traced episode right after its untraced twin, so that both see
    # the same machine conditions
    pairs = run.episodes(seconds, ["run", "trace"])
    traced = [t for _, t in pairs]
    episodes = len(traced)
    totals = {}
    for r in traced:
        speed = _speed(r)
        for key, value in r["trace"].items():
            if key.endswith("_s"):
                value *= speed
            totals[key] = totals.get(key, 0) + value
    traced_wall = sum(_at_ref(r, "wall_s") for r in traced)
    values = {}
    for key, value in totals.items():
        if key.endswith((".self_s", ".total_s", ".calls", ".points", ".pairs", ".rows", ".bytes")):
            values[key] = value / episodes
    for layer in ("codebooks.enumerate_codebook", "infotheory.sum_structure"):
        distinct = totals[f"{layer}.distinct"]
        values[f"{layer}.repeat_ratio"] = totals[f"{layer}.calls"] / distinct if distinct else 0.0
    self_total = sum(v for k, v in totals.items() if k.endswith(".self_s"))
    values["traced_wall_s"] = median([_at_ref(r, "wall_s") for r in traced])
    values["self_s_coverage_frac"] = self_total / traced_wall
    values["trace_overhead_frac"] = median([_at_ref(t, "wall_s") / _at_ref(p, "wall_s") for p, t in pairs]) - 1
    values["spans"] = totals["spans"] / episodes
    return {name: (value, _per_layer_unit(name)) for name, value in sorted(values.items())}


def provenance(run: Run) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": run.workload,
        "seed": run.seed,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        **run.versions,
        "git_commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; `unknown`
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed, time.monotonic())
    metrics = per_layer(run, seconds) if trace else end_to_end(run, seconds)
    result = {
        "correct": not run.failures,
        "attempted": max(run.attempted, 1),
        "failed": len(run.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {"provenance": provenance(run), "failures": run.failures, "episodes": run.results, **result}
    out_dir = HERE / ".out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{workload}-trace{int(trace)}-seed{seed}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    return record


def _check_checkout() -> None:
    if not (ROOT / "src" / "latsec" / "__init__.py").is_file():
        raise BenchError(f"no latsec sources under {ROOT / 'src'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="every workload, both modes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    try:
        _check_checkout()
        if not args.all:
            record = bench(args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps({"provenance": record["provenance"]}))
            for failure in record["failures"]:
                print(f"check failed: {failure}", file=sys.stderr)
            print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
            return 0
        all_correct = True
        for workload in WORKLOADS:
            attempted = failed = 0
            for trace in (False, True):
                record = bench(workload, args.seed, args.seconds, trace)
                attempted += record["attempted"]
                failed += record["failed"]
                for name, m in record["metrics"].items():
                    print(f"{workload:15} {name:48} {m['value']:>14.6g} {m['unit']}")
                for failure in record["failures"]:
                    print(f"{workload:15} check failed: {failure}")
            print(f"{workload:15} {'failed_frac':48} {failed / attempted:>14.6g} frac  ({failed} of {attempted} checks)")
            all_correct &= failed == 0
        return 0 if all_correct else 1
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
