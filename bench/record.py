"""Record the benchmark's end-to-end figures for one checkout.

    python3 bench/record.py --out BENCH_<n>.json [--seconds S] [--repeats R]

Runs `python3 perfbench/run.py --workload W --seed 1 --seconds S --trace 0`
as a subprocess for every workload, R times, round robin, so that a slow
spell of a shared host falls on every workload alike. Each run's last
stdout line holds its metrics and its first line its provenance. The
record keeps the commit, nproc, the Python and numpy versions and, per
workload, the median and quartiles of wall_s, cpu_s and peak_rss_mb with
every run's value.

It then times the runs at scale that no workload makes (SCALE_RUNS), R
times each, round robin, every run in a fresh interpreter with one BLAS
thread: `python3 bench/record.py --scale-run NAME` makes one untimed
warm-up call of the run, then SCALE_CALLS timed calls, each on inputs
built from the checkout's `src` before its timer starts. It prints the
median wall_s and cpu_s of the timed calls, the interpreter's
peak_rss_mb and the error count (for the fine_exact runs, a checksum of
the points; for the grid suites, the wide lemma and the wide baseline,
the number of failed verdicts), which every call must return alike. The
record keeps the median and quartiles of those medians over the R
interpreters, and every run's error count, which a run fixes by its
seeds.

Round robin with the runs at scale, it times the start-up floor R times:
`python3 -c "import latsec"` in a fresh interpreter with the checkout's
`src` on its path and one BLAS thread, its wall time, CPU time and peak RSS
read from the child's own resource usage. Most CLI kinds on their default
configs take little more than this.
The recorder itself uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("grid_exact", "weak_mc", "exact_loopback", "layered_mc")
METRICS = ("wall_s", "cpu_s", "peak_rss_mb")
SEED = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# weak_reliability at scale: 8 192 trials, seed 7, a = 0.3, power 4/3 (the
# second moment of scale 4), noise 0.01, on draw 0 of each (p, k, n) shape
WEAK_SHAPES = ((3, 2, 4), (5, 3, 6), (7, 3, 6), (3, 6, 6))
WEAK_TRIALS = 8192
PIPELINE_CONFIG = "kind=pipeline a=0.3 p=3 k=2 n=4 scale=4 num_bins=3 trials=20000"
# layered_400000: the layered_mc workload's config with 400 000 trials and
# seed 7, so that the Monte Carlo rounds outweigh the exact layered suite
LAYERED_CONFIG = "kind=layered p=3 n=3 k1=2 k2=1 a=6 trials=400000 seed=7"
# quantize_fine on exact rows: 1 024 int64 rows over half the fine unit of
# draw 0 of each shape at scale 4, so that some rows are tied, drawn by
# default_rng(7) within two coarse steps of 0; the error slot holds the
# CRC-32 of the points' int64 bytes, which the seed fixes
FINE_SHAPES = ((7, 3, 6), (3, 6, 6))
FINE_ROWS = 1024
# very_strong_p3_k6_n6: very_strong_reliability, 8 192 trials, seed 7, a = 4,
# power 4/3, noise 0.1, on draw 0 of p3 k6 n6 (729 codewords) at scale 4
# grid_suites_d5: run_lemma_suite then run_theorem1_suite (bin seed 0) over
# standard_grid(draws=5), held in one list, so every build is kept for the
# second suite, as in criteria 1 and 3; lemma_wide: run_lemma_suite on
# GridPoint(127, 1, 10, 0), whose pair-sum key space passes 2^63;
# baseline_wide: the baseline_wide golden's config, whose random pair sums
# do too. Each lattice is drawn before the timed call.
GRID_DRAWS = 5
WIDE_LEMMA_POINT = (127, 1, 10, 0)
BASELINE_WIDE_CONFIG = "kind=baseline size=64 dim=5 power=2.0 num_seeds=3"
# the start-up floor: the interpreter, numpy and the package, nothing run
STARTUP = "import latsec"
# timed calls of a run at scale per interpreter, after one untimed warm-up
# call: the median of several warmed-up calls resolves changes of a few
# percent, where one call per fresh interpreter moved with the host by half
SCALE_CALLS = 9
SCALE_RUNS = (
    tuple(f"weak_p{p}_k{k}_n{n}" for p, k, n in WEAK_SHAPES)
    + ("pipeline_weak_20000", "layered_400000")
    + tuple(f"fine_exact_p{p}_k{k}_n{n}" for p, k, n in FINE_SHAPES)
    + ("very_strong_p3_k6_n6", "grid_suites_d5", "lemma_wide", "baseline_wide")
)


def shape_of(name: str) -> tuple:
    """The (p, k, n) that a run name such as weak_p3_k2_n4 ends in."""
    p, k, n = name.rsplit("_", 3)[1:]
    return int(p[1:]), int(k[1:]), int(n[1:])


def run_once(workload: str, seconds: float) -> tuple[dict, dict]:
    """(provenance, result) of one perfbench run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["provenance"], json.loads(lines[-1])


def scale_run(name: str) -> dict:
    """Time the run at scale NAME in this interpreter: one untimed warm-up
    call, then SCALE_CALLS timed calls, their median wall_s and cpu_s. Each
    call's inputs are built fresh, untimed, so that no call reuses what an
    earlier one kept on its inputs (a GridPoint keeps its build), and every
    call must return the same error count (a checksum of the points, for
    fine_exact runs, and the failed verdicts of the grid suites, the wide
    lemma and the wide baseline)."""
    sys.path.insert(0, str(ROOT / "src"))
    import gc
    import zlib
    from fractions import Fraction

    import numpy as np

    import latsec
    from latsec.experiments import (
        GridPoint,
        run_lemma_suite,
        run_theorem1_suite,
        theorem_suite_passed,
        very_strong_reliability,
        weak_reliability,
    )

    def prepare():
        """The run's call, its inputs built: it returns the run's error count."""
        if name in ("pipeline_weak_20000", "layered_400000"):
            text = PIPELINE_CONFIG if name == "pipeline_weak_20000" else LAYERED_CONFIG
            config = latsec.parse_config(text.replace(" ", "\n") + "\n")
            return lambda: latsec.run(config)["results"]["reliability"]["errors"]
        if name in ("grid_suites_d5", "lemma_wide"):
            if name == "grid_suites_d5":
                points = list(latsec.standard_grid(draws=GRID_DRAWS))
            else:
                points = [GridPoint(*WIDE_LEMMA_POINT)]
            for point in points:
                point.lattice

            def call():
                failed = sum(not r.passed for r in run_lemma_suite(points))
                if name == "grid_suites_d5":
                    failed += sum(not theorem_suite_passed([r]) for r in run_theorem1_suite(points, 0))
                return failed
            return call
        if name == "baseline_wide":
            config = latsec.parse_config(BASELINE_WIDE_CONFIG.replace(" ", "\n") + "\n")
            return lambda: int(latsec.run(config)["verdict"] != "pass")
        p, k, n = shape_of(name)
        lattice = GridPoint(p, k, n, 0).build_lattice(scale=4)
        codebook = latsec.Codebook(lattice)
        if name.startswith("weak_"):
            params = latsec.ChannelParams(cross_gain=0.3, power=Fraction(4, 3), noise_var=0.01)
            return lambda: weak_reliability(codebook, params, WEAK_TRIALS, 7)["errors"]
        if name.startswith("very_strong_"):
            params = latsec.ChannelParams(cross_gain=4, power=Fraction(4, 3), noise_var=0.1)
            return lambda: very_strong_reliability(codebook, params, WEAK_TRIALS, 7)["errors"]
        coords = np.random.default_rng(7).integers(-4 * p, 4 * p + 1, size=(FINE_ROWS, n))
        rows = latsec.PointGrid(lattice.unit / 2, coords)
        return lambda: zlib.crc32(lattice.quantize_fine(rows).coords.astype("<i8").tobytes())

    walls, cpus, errors = [], [], set()
    for _ in range(1 + SCALE_CALLS):
        call = prepare()
        wall, cpu = time.perf_counter(), time.process_time()
        errors.add(call())
        walls.append(time.perf_counter() - wall)
        cpus.append(time.process_time() - cpu)
        del call
        gc.collect()
    if len(errors) != 1:
        raise RuntimeError(f"{name}: the calls report different error counts {sorted(errors)}")
    return {"wall_s": statistics.median(walls[1:]), "cpu_s": statistics.median(cpus[1:]),
            "errors": errors.pop(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def run_scale_once(name: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **dict.fromkeys(THREAD_VARS, "1"))
    argv = [sys.executable, "bench/record.py", "--scale-run", name]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def run_startup_once() -> dict:
    """Wall time, CPU time and peak RSS of `python3 -c STARTUP` in a fresh
    interpreter, the CPU time and peak RSS from the child's own resource
    usage."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"),
               **dict.fromkeys(THREAD_VARS, "1"))
    wall = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", STARTUP], cwd=ROOT, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - wall
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024}


def summary(values: list) -> dict:
    """Median and quartiles (inclusive method), and the values themselves."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def record(seconds: float, repeats: int) -> dict:
    results = {w: [] for w in WORKLOADS}
    provenance = None
    for _ in range(repeats):
        for w in WORKLOADS:
            provenance, result = run_once(w, seconds)
            results[w].append(result)
    entries = {}
    for w, runs in results.items():
        entry = {"runs": len(runs), "correct": sum(bool(r["correct"]) for r in runs),
                 "failed_checks": sum(r["failed"] for r in runs)}
        for name in METRICS:
            entry[name] = summary([r["metrics"][name]["value"] for r in runs])
        entries[w] = entry
    scale = {name: [] for name in SCALE_RUNS}
    startup = []
    for _ in range(repeats):
        for name in SCALE_RUNS:
            scale[name].append(run_scale_once(name))
        startup.append(run_startup_once())
    scale_entries = {}
    for name, runs in scale.items():
        entry = {"runs": len(runs), "errors": [r["errors"] for r in runs]}
        for metric in METRICS:
            entry[metric] = summary([r[metric] for r in runs])
        scale_entries[name] = entry
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "nproc": os.cpu_count(),
        "python": provenance["python"],
        "numpy": provenance["numpy"],
        "cpu_model": provenance["cpu_model"],
        "command": f"python3 perfbench/run.py --workload W --seed {SEED} --seconds {seconds:g} --trace 0",
        "repeats": repeats,
        "workloads": entries,
        "startup": {
            "command": f'python3 -c "{STARTUP}"',
            "runs": len(startup),
            **{metric: summary([r[metric] for r in startup]) for metric in METRICS},
        },
        "scale_runs": {
            "command": "python3 bench/record.py --scale-run NAME",
            "method": f"one untimed warm-up call, then the median of {SCALE_CALLS} timed calls, "
                      "each on inputs built before its timer starts",
            "weak": f"weak_reliability, {WEAK_TRIALS} trials, seed 7, a = 0.3, power 4/3, "
                    "noise 0.01, Codebook(GridPoint(p, k, n, 0).build_lattice(scale=4))",
            "pipeline": PIPELINE_CONFIG,
            "layered": LAYERED_CONFIG,
            "fine_exact": f"quantize_fine on {FINE_ROWS} int64 rows over half the fine unit, "
                          "default_rng(7).integers(-4p, 4p + 1), draw 0 at scale 4; "
                          "errors holds the CRC-32 of the points",
            "very_strong": f"very_strong_reliability, {WEAK_TRIALS} trials, seed 7, a = 4, "
                           "power 4/3, noise 0.1, the weak runs' codebook",
            "grid_suites": f"run_lemma_suite then run_theorem1_suite(bin_seed=0) over "
                           f"standard_grid(draws={GRID_DRAWS}) in one list, lattices drawn "
                           "first; errors counts failed verdicts",
            "lemma_wide": f"run_lemma_suite([GridPoint{WIDE_LEMMA_POINT}]), lattice drawn first; "
                          "errors counts failed verdicts",
            "baseline_wide": f"{BASELINE_WIDE_CONFIG}; errors is 1 when the verdict fails",
            "runs": scale_entries,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="the JSON file to write")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--scale-run", choices=SCALE_RUNS,
                        help="time a run at scale in this interpreter and print it as JSON")
    args = parser.parse_args(argv)
    if args.scale_run:
        print(json.dumps(scale_run(args.scale_run)))
        return 0
    if args.out is None:
        parser.error("--out is required")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    data = record(args.seconds, args.repeats)
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
