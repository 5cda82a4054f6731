"""Record the benchmark's end-to-end figures for one checkout.

    python3 bench/record.py --out BENCH_<n>.json [--seconds S] [--repeats R]

Runs `python3 perfbench/run.py --workload W --seed 1 --seconds S --trace 0`
as a subprocess for every workload, R times, round robin, so that a slow
spell of a shared host falls on every workload alike. Each run's last
stdout line holds its metrics and its first line its provenance. The
record keeps the commit, nproc, the Python and numpy versions and, per
workload, the median and quartiles of wall_s, cpu_s and peak_rss_mb with
every run's value. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("grid_exact", "weak_mc", "exact_loopback", "layered_mc")
METRICS = ("wall_s", "cpu_s", "peak_rss_mb")
SEED = 1


def run_once(workload: str, seconds: float) -> tuple[dict, dict]:
    """(provenance, result) of one perfbench run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["provenance"], json.loads(lines[-1])


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
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    data = record(args.seconds, args.repeats)
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
