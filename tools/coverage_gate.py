"""Line-coverage gate for src/latsec, built on the standard library alone.

    python3 tools/coverage_gate.py [PYTEST_ARGS...]

Runs the tier-1 suite (pytest, in this process) under sys.settrace, which
records the lines run in frames whose file lies under src/latsec, and exits
1 when a line that a code object of those files lists in co_lines() was
never run, or when pytest fails. ALLOWED exempts lines, by file and stripped
source text, each with its reason; an allowance that matches no unreached
line fails the gate too. Only the main thread is traced, and no subprocess.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "latsec"
SUBPROCESS_ONLY = "runs only as a script, in the CLI tests' subprocesses, which are not traced"
ALLOWED = {
    ("experiments.py",
     'raise BudgetExceeded(f"p={codebook.lattice.p} overflows int64 squared distances")'):
        "safety code: n * p^2 >= 2^62 needs a dimension in the millions for an enumerable "
        "codebook",
    ("__main__.py", "import sys"): SUBPROCESS_ONLY,
    ("__main__.py", "from .cli import main"): SUBPROCESS_ONLY,
    ("__main__.py", 'if __name__ == "__main__":'): SUBPROCESS_ONLY,
    ("__main__.py", "sys.exit(main())"): SUBPROCESS_ONLY,
    ("cli.py", "sys.exit(main())"): SUBPROCESS_ONLY,
}


def executable(code, out):
    """Add to out the lines of code and of every code object nested in it."""
    out.update(line for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            executable(const, out)
    return out


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    prefix, reached = str(PACKAGE), {}

    def local(frame, event, arg):
        reached.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local(frame, event, arg) if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
    missed, allowed = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        code = compile(text, str(path), "exec")
        unreached = executable(code, set()) - reached.get(str(path), set())
        for line in sorted(unreached):
            key = (path.name, lines[line - 1].strip())
            if key in ALLOWED:
                allowed.add(key)
            else:
                missed.append(f"{path.relative_to(ROOT)}:{line}: {key[1]}")
    # an allowance that matches no unreached line is stale
    missed += [f"allowed but reached or gone: {key}" for key in ALLOWED if key not in allowed]
    print("\n".join(missed) or f"every line of src/latsec reached, {len(ALLOWED)} allowed")
    return 1 if missed or status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
