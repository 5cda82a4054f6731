"""One benchmark episode in a fresh interpreter; run.py starts it.

    python3 perfbench/episode.py WORKLOAD SEED EPISODE MODE T0_NS

MODE is `setup` (stop once the inputs are ready), `run` or `trace` (run the
episode, with spans around each layer for `trace`). T0_NS is the parent's
time.monotonic_ns() just before it started this process, so setup_s counts
interpreter start-up, `import latsec` and input generation. Around the timed
calls the child times a fixed calibration kernel, which run.py uses to
express times at a reference machine speed. Prints one JSON line.
"""

import sys
import time

WORKLOAD, SEED, EPISODE, MODE, T0_NS = sys.argv[1:6]

import json  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import latsec  # noqa: E402

if not Path(latsec.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"latsec imported from {latsec.__file__}, not from {SRC}")

import numpy as np  # noqa: E402
import workloads  # noqa: E402

CALIBRATION_REPS = 3


def _kernel():
    # the kinds of work latsec's hot paths do: Fraction arithmetic, integer
    # row sorting in numpy, and seeding and drawing from small generators
    acc = Fraction(0)
    for i in range(1, 700):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    # small arrays, so that the kernel does not raise the peak RSS
    rows = np.random.default_rng(0).integers(0, 40, size=(2000, 4))
    for _ in range(10):
        np.unique(rows, axis=0, return_inverse=True)
    for t in range(150):
        np.random.default_rng([7, t]).standard_normal(3)


def calibrate() -> list:
    times = []
    for _ in range(CALIBRATION_REPS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return times


workload = workloads.WORKLOADS[WORKLOAD]
inputs = workload.inputs(int(SEED), int(EPISODE))
out = {"setup_s": (time.monotonic_ns() - int(T0_NS)) / 1e9}
out["calibration_s"] = calibrate()

if MODE != "setup":
    tracer = None
    if MODE == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    result = workload.run(inputs)
    out["wall_s"] = time.perf_counter() - t0
    out["cpu_s"] = time.process_time() - cpu0
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        spans_dir = HERE / ".out"
        spans_dir.mkdir(exist_ok=True)
        tracer.save(spans_dir / f"spans-{WORKLOAD}-e{EPISODE}.npz")
        out["trace"] = tracer.summary()
    out["calibration_s"] += calibrate()
    pinned = {}
    if workload.digests is not None:
        pinned = json.loads((HERE / "digests.json").read_text())[WORKLOAD]
    checks = workloads.Checks()
    try:
        workload.check(inputs, result, pinned, checks)
    except (KeyError, TypeError, ValueError, AttributeError, IndexError, ArithmeticError) as exc:
        checks.expect(False, f"malformed output: {exc!r}")
    out["attempted"] = checks.attempted
    out["failures"] = checks.failures
    out["items"] = workload.items

out["numpy"] = np.__version__
out["latsec"] = latsec.__version__
print(json.dumps(out))
