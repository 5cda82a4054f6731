"""Mutation gate for the certified paths of src/latsec, built on the standard
library alone.

    python3 tools/mutation_gate.py [NAME ...]

Each entry of MUTANTS names a file, a snippet that must occur there exactly
once, its replacement and the test nodes that must fail once it is applied.
For each mutant (or each one named on the command line) the gate copies
src/, tests/ and pyproject.toml to a temporary directory, applies the mutant
there and runs its nodes with pytest, PYTHONPATH pointing at the copy; it
never writes to the checkout. A mutant is killed when pytest reports a
failed test. A mutant with a reason in `equivalent` changes no answer that a
test can see; it must survive instead. Before any mutant, the nodes run on
an unmutated copy and must pass, from that copy.

The gate exits 1 when a snippet occurs other than once (it is stale: the
code it mutates was rewritten, and the table must be restated with it), when
the unmutated nodes fail, when a mutant survives, or when an equivalent
mutant is killed.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LATTICES = "src/latsec/lattices.py"
CHANNEL = "src/latsec/channel.py"
FLOAT_FILTERS = "tests/test_lattices.py::TestFloatFilters"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    snippet: str
    replacement: str
    nodes: tuple
    equivalent: str = ""


MUTANTS = (
    Mutant(
        "round_to_coset margin halved", LATTICES,
        "e = 3 * _ROUNDOFF * (size + p)", "e = 1.5 * _ROUNDOFF * (size + p)",
        (f"{FLOAT_FILTERS}::test_rows_within_the_bounds_take_the_exact_path",),
    ),
    Mutant(
        "round_to_coset margin test >= for >", LATTICES,
        "(p / 2 - np.abs(resid) > e)", "(p / 2 - np.abs(resid) >= e)",
        (f"{FLOAT_FILTERS}::test_a_margin_at_the_bound_is_not_certified",),
    ),
    Mutant(
        "round_to_coset reach test dropped", LATTICES,
        "sure = (size < _FLOAT_REACH) & (p / 2 - np.abs(resid) > e)",
        "sure = p / 2 - np.abs(resid) > e",
        (f"{FLOAT_FILTERS}::test_boundary_rows_match_oracle",),
    ),
    Mutant(
        "round_to_coset candidate without its residue", LATTICES,
        "near = r + p * np.floor((t - r) / p + 0.5)", "near = p * np.floor((t - r) / p + 0.5)",
        ("tests/test_lattices.py::TestFloatFineBlocks::test_block_sizes_decide_as_one_block",),
    ),
    Mutant(
        "shared denominator from the first row only", LATTICES,
        "den = math.lcm(*(b for _, b in ratios))",
        "den = math.lcm(*(b for _, b in ratios[: x.shape[1]]))",
        ("tests/test_lattices.py::TestRowDtypeBound"
         "::test_uncertified_float_rows_share_one_denominator",),
    ),
    Mutant(
        "exact_fine sentinel 0", LATTICES,
        "sentinel = step[0, 0]", "sentinel = 0",
        ("tests/test_lattices.py::TestKEqualsNRounds",),
    ),
    Mutant(
        "exact_fine sentinel p den + 1", LATTICES,
        "sentinel = step[0, 0]", "sentinel = step[0, 0] + 1",
        ("tests/test_lattices.py::TestRowDtypeBound::test_chunked_rows_match_one_block",
         "tests/test_lattices.py::TestKEqualsNRounds"),
        equivalent="every residual is at most p den / 2 in magnitude, so any sentinel "
        "above that narrows the tied rows alike",
    ),
    Mutant(
        "received_1 normals scaled by sqrt(N / 2)", CHANNEL,
        "n1 = noise * math.sqrt(params.noise_var)", "n1 = noise * math.sqrt(params.noise_var / 2)",
        ("tests/test_experiments.py::TestVeryStrongClosedForm",),
    ),
)


def copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run(dest: Path, *args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, *args], cwd=dest, env=env, capture_output=True, text=True
    )


def pytest(dest: Path, nodes) -> subprocess.CompletedProcess:
    return run(dest, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes)


def check_unmutated(mutants) -> list:
    """Failures of the mutants' nodes on an unmutated copy, and of the copy
    not being the package those nodes import."""
    nodes = sorted({node for m in mutants for node in m.nodes})
    with tempfile.TemporaryDirectory(prefix="mutation-gate-") as tmp:
        dest = Path(tmp)
        copy_tree(dest)
        where = run(dest, "-c", "import latsec; print(latsec.__file__)").stdout.strip()
        if not where.startswith(str(dest)):
            return [f"the copy does not import its own latsec: {where or 'no import'}"]
        done = pytest(dest, nodes)
    if done.returncode != 0:
        return [f"the unmutated nodes do not pass:\n{done.stdout[-2000:]}"]
    return []


def check(mutant: Mutant) -> str:
    """The gate's verdict on one mutant: '' when it holds, else why not."""
    with tempfile.TemporaryDirectory(prefix="mutation-gate-") as tmp:
        dest = Path(tmp)
        copy_tree(dest)
        target = dest / mutant.path
        text = target.read_text()
        count = text.count(mutant.snippet)
        if count != 1:
            return f"stale: the snippet occurs {count} times in {mutant.path}"
        target.write_text(text.replace(mutant.snippet, mutant.replacement))
        done = pytest(dest, mutant.nodes)
    # pytest exits 1 when a test failed; other codes are errors of the run
    if done.returncode not in (0, 1):
        return f"pytest exited {done.returncode}:\n{done.stdout[-2000:]}"
    killed = done.returncode == 1
    if mutant.equivalent:
        return "an equivalent mutant was killed" if killed else ""
    return "" if killed else "survived"


def main(argv) -> int:
    mutants = [m for m in MUTANTS if not argv or m.name in argv]
    failures = [f"unknown mutant: {name}" for name in argv if name not in {m.name for m in MUTANTS}]
    failures += check_unmutated(mutants)
    if not failures:
        for mutant in mutants:
            verdict = check(mutant)
            shown = "survives, equivalent" if mutant.equivalent else "killed"
            print(f"{mutant.name}: {verdict or shown}", flush=True)
            if verdict:
                failures.append(f"{mutant.name}: {verdict}")
    print("\n".join(failures) or f"every mutant holds, {len(mutants)} run")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
