"""Golden reports: small named configs covering every experiment kind,
rendered through the CLI in JSON and CSV, pinned byte for byte.

Only the wall clock is masked. Regenerate the files (after a deliberate
change of output) with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import pathlib
import re
import sys

import pytest

from latsec.cli import _SUBCOMMANDS, main

GOLDEN = pathlib.Path(__file__).parent / "golden"
# case name -> experiment kind; each case reads golden/<name>.cfg
CASES = {
    "lattice": "lattice",
    "lemmas": "lemmas",
    "theorem1": "theorem1",
    "layered": "layered",
    "baseline": "baseline",
    "pipeline": "pipeline",
    # very-strong regime: both argmins of the interference-first decoder decide
    "pipeline_strong": "pipeline",
    "sweep": "sweep",
}
FORMATS = ("json", "csv")

_CLOCK = re.compile(r'("wall_clock_s": )[^,\n]*')


def _argv(kind):
    group, action, _, _ = next(s for s in _SUBCOMMANDS if s[2] == kind)
    return [group] if action is None else [group, action]


def render_masked(name, fmt, out_path):
    argv = _argv(CASES[name]) + ["--config", str(GOLDEN / f"{name}.cfg"),
                          "--format", fmt, "--out", str(out_path)]
    code = main(argv)
    text = pathlib.Path(out_path).read_bytes().decode("utf-8")
    return code, _CLOCK.sub(r"\g<1>0.0", text)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", CASES)
def test_report_matches_golden(name, fmt, tmp_path):
    code, text = render_masked(name, fmt, tmp_path / f"out.{fmt}")
    assert code == 0
    expected = (GOLDEN / f"{name}.{fmt}").read_bytes().decode("utf-8")
    assert text == expected


if __name__ == "__main__":
    for name in CASES:
        for fmt in FORMATS:
            target = GOLDEN / f"{name}.{fmt}"
            code, text = render_masked(name, fmt, target)
            if code != 0:
                sys.exit(f"{name}: exit code {code}")
            target.write_bytes(text.encode("utf-8"))
            print(target)
