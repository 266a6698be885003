"""The mutation catalogue stays applicable to today's source.

Each entry's old text occurs exactly once in its file, and each test it
names exists; `scripts/mutants.py` then checks that the tests kill it.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def load_runner():
    spec = importlib.util.spec_from_file_location(
        "mutants_runner", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutant_names_are_distinct():
    names = [m["name"] for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("entry", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_mutant_applies_once_and_names_existing_tests(entry):
    assert set(entry) == {"name", "file", "old", "new", "tests"}
    source = (ROOT / "src" / "cellres" / entry["file"]).read_text(
        encoding="utf-8")
    assert source.count(entry["old"]) == 1
    assert entry["new"] != entry["old"]
    assert entry["tests"]
    for node in entry["tests"]:
        path, _, name = node.partition("::")
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        defined = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}
        assert name.partition("[")[0] in defined, node


def test_runner_refuses_an_old_text_that_does_not_occur():
    entry = {"name": "absent", "file": "search.py", "old": "no such text",
             "new": "", "tests": []}
    assert (load_runner().run_mutant(entry)
            == "old text occurs 0 times in search.py")

