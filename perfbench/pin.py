"""Write perfbench/digests.json: the digest of every (shape, draw) report of
grid_exact and exact_loopback at the current commit.

    python3 perfbench/pin.py

The pinned file is the reference for byte-identical output. Re-pin it only
in a change that means to alter those reports, and say why.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import latsec  # noqa: E402,F401
import workloads  # noqa: E402


def main() -> None:
    pinned = {}
    for name, shapes in (
        ("grid_exact", workloads.GRID_SHAPES),
        ("exact_loopback", workloads.LOOPBACK_SHAPES),
    ):
        workload = workloads.WORKLOADS[name]
        digests = {}
        for draw in range(workloads.DRAWS):
            points = [latsec.GridPoint(p, k, n, draw) for p, k, n in shapes]
            digests.update(workload.digests(points, workload.run(points)))
        pinned[name] = dict(sorted(digests.items()))
        print(f"{name}: {len(digests)} configs", file=sys.stderr)
    (HERE / "digests.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
