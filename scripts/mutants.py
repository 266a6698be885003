"""Apply each mutation of `tests/mutants.py` and check that its tests fail.

Usage:
    python scripts/mutants.py

For each entry, the script copies `src/`, `tests/`
and `pyproject.toml` into a temporary directory, replaces the entry's old
text in its file there, and runs the entry's tests in that copy with
`python -m pytest -q -x -p no:cacheprovider`, one entry after another.
The tests and `pyproject.toml` are copied as well: `pyproject.toml` puts
its own directory's `src` first on the import path, so a copy of `src`
alone would leave the tests running the unmutated library.

A mutant is killed when its tests fail.  The script lists the survivors
and exits 1 if any survives or if an old text does not occur exactly
once.  Standard library only.
"""

import runpy
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# pytest's exit code when some test failed; errors and "no tests ran" differ
TESTS_FAILED = 1


def load_mutants() -> list:
    return runpy.run_path(str(ROOT / "tests" / "mutants.py"))["MUTANTS"]


def run_mutant(entry: dict) -> str:
    """'killed', 'survived', or why the entry could not be applied."""
    with tempfile.TemporaryDirectory(prefix="cellres-mutant-") as tmp:
        tmp = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        shutil.copytree(ROOT / "src", tmp / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", tmp / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tmp / "pyproject.toml")
        target = tmp / "src" / "cellres" / entry["file"]
        text = target.read_text(encoding="utf-8")
        count = text.count(entry["old"])
        if count != 1:
            return f"old text occurs {count} times in {entry['file']}"
        target.write_text(text.replace(entry["old"], entry["new"]),
                          encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *entry["tests"]],
            cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        if proc.returncode == TESTS_FAILED:
            return "killed"
        if proc.returncode == 0:
            return "survived"
        return f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}"


def main() -> int:
    bad = []
    for entry in load_mutants():
        outcome = run_mutant(entry)
        print(f"{entry['name']}: {outcome}", flush=True)
        if outcome != "killed":
            bad.append(entry["name"])
    if bad:
        print(f"not killed: {', '.join(bad)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
