"""Golden reports: small named configs covering every experiment kind,
rendered through the CLI in JSON and CSV, pinned byte for byte.

Nothing is masked: a report holds no timing. Regenerate the files (after a
deliberate change of output) with ``PYTHONPATH=src python tests/test_golden.py``.
The benchmark's exact reports are pinned too, as digests in
perfbench/digests.json (written by ``python3 perfbench/pin.py``), and are
recomputed here.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import latsec
from latsec.cli import _SUBCOMMANDS, main

GOLDEN = pathlib.Path(__file__).parent / "golden"
# case name -> experiment kind; each case reads golden/<name>.cfg
CASES = {
    "lattice": "lattice",
    "lemmas": "lemmas",
    "theorem1": "theorem1",
    "layered": "layered",
    "baseline": "baseline",
    # dim 5: the random side's sum key space passes 2^63
    "baseline_wide": "baseline",
    "pipeline": "pipeline",
    # very-strong regime: both argmins of the interference-first decoder decide
    "pipeline_strong": "pipeline",
    # weak regime at the narrowest and a wide width
    "pipeline_n1": "pipeline",
    "pipeline_n6": "pipeline",
    # weak regime at n = 5 with a non-dyadic scale: dithers use its float
    "pipeline_n5": "pipeline",
    "sweep": "sweep",
    # 2100 trials cross a trial block boundary
    "pipeline_2100": "pipeline",
    "pipeline_strong_2100": "pipeline",
    # 729 codewords: score chunks hold fewer rows than points
    "pipeline_strong_729": "pipeline",
    "layered_2100": "layered",
}
FORMATS = ("json", "csv")


def _argv(kind):
    group, action, _, _ = next(s for s in _SUBCOMMANDS if s[2] == kind)
    return [group] if action is None else [group, action]


def render_case(name, fmt, out_path):
    """Exit code and report bytes of one case, written to out_path."""
    argv = _argv(CASES[name]) + ["--config", str(GOLDEN / f"{name}.cfg"),
                                 "--format", fmt, "--out", str(out_path)]
    code = main(argv)
    return code, pathlib.Path(out_path).read_bytes()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", CASES)
def test_report_matches_golden(name, fmt, tmp_path):
    code, data = render_case(name, fmt, tmp_path / f"out.{fmt}")
    assert code == 0
    assert data == (GOLDEN / f"{name}.{fmt}").read_bytes()


# cases rendered again in new interpreters: the Monte Carlo draws, float
# rows decided in float64 at the non-dyadic scale 2/3 (pipeline_n5), the
# grid kinds' reused builds and SumStructures (theorem1, lemmas), and
# successive decoding of float rows, layered across a trial block boundary
# and very strong
FRESH_CASES = ["pipeline", "theorem1", "pipeline_n5", "lemmas", "layered_2100", "pipeline_strong"]


@pytest.mark.parametrize("name", FRESH_CASES)
def test_fresh_processes_render_the_golden_bytes(name):
    # each case in two new interpreters with different hash seeds; stdout is
    # compared as it is
    package_root = str(pathlib.Path(latsec.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "latsec", *_argv(CASES[name]),
            "--config", str(GOLDEN / f"{name}.cfg")]
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(argv, env=env, capture_output=True, timeout=300, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1] == (GOLDEN / f"{name}.json").read_bytes()


PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_pin():
    """perfbench/pin.py as a module, loaded from its file with perfbench/ on
    sys.path for its `import workloads`; no bytecode is written next to
    either file, and sys.path and sys.modules are restored."""
    spec = importlib.util.spec_from_file_location("perfbench_pin", PERFBENCH / "pin.py")
    module = importlib.util.module_from_spec(spec)
    path, had_workloads = list(sys.path), "workloads" in sys.modules
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path[:] = path
        if not had_workloads:
            sys.modules.pop("workloads", None)
    return module


def test_benchmark_reports_match_the_pinned_digests(tmp_path):
    # perfbench/pin.py writes every (shape, draw) report digest of
    # grid_exact and exact_loopback into tmp_path; the file must equal
    # perfbench/digests.json, entry for entry and byte for byte
    pin = _perfbench_pin()
    pin.HERE = tmp_path
    pin.main()
    written = (tmp_path / "digests.json").read_bytes()
    pinned = (PERFBENCH / "digests.json").read_bytes()
    got, want = json.loads(written), json.loads(pinned)
    for name in sorted(got.keys() | want.keys()):
        digests, reference = got.get(name, {}), want.get(name, {})
        moved = sorted(label for label in digests.keys() | reference.keys()
                       if digests.get(label) != reference.get(label))
        assert not moved, f"{name}: {len(moved)} configurations moved: {moved}"
    assert written == pinned


if __name__ == "__main__":
    for name in CASES:
        for fmt in FORMATS:
            target = GOLDEN / f"{name}.{fmt}"
            code, _ = render_case(name, fmt, target)
            if code != 0:
                sys.exit(f"{name}: exit code {code}")
            print(target)
