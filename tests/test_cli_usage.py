"""CLI help texts and usage errors pinned byte for byte.

`cli_usage_golden.json` holds, per argument list, the exit code and the
exact stdout and stderr at COLUMNS=80: the help of `cellres` and of each
subcommand, and the error of a missing, unknown or malformed subcommand.
argparse words its help and some of its errors differently from one
Python minor version to the next, so the file records the version that
wrote it and the bytes are compared on that version.  After an intended
output change, regenerate the file with

    PYTHONPATH=src python tests/test_cli_usage.py > tests/cli_usage_golden.json
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from cellres.cli import main

GOLDEN = Path(__file__).with_name("cli_usage_golden.json")
SUBCOMMANDS = ("construct", "verify", "enumerate", "maximal-check",
               "homology", "betti", "morphism", "polarize", "conjecture")


def commands():
    yield ["--help"]
    for name in SUBCOMMANDS:
        yield [name, "--help"]
    yield []
    yield ["bogus"]
    yield ["verify", "--complex", "x"]
    yield ["enumerate", "--complex", "x", "--bogus"]
    yield ["homology", "--complex", "x", "--field", "z"]
    yield ["conjecture", "variable-count", "--jobs", "2"]


def run_command(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits after printing --help
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def key(argv) -> str:
    return " ".join(argv) or "(no arguments)"


def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", list(commands()), ids=key)
def test_usage_output_matches_the_pinned_bytes(argv, monkeypatch):
    pinned = golden()
    if pinned["python"] != list(sys.version_info[:2]):
        pytest.skip(f"the bytes were written by Python {pinned['python']}")
    monkeypatch.setenv("COLUMNS", "80")
    assert run_command(argv) == pinned["runs"][key(argv)]


def test_usage_golden_file_covers_exactly_these_commands():
    assert sorted(golden()["runs"]) == sorted(map(key, commands()))


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    runs = {key(argv): run_command(argv) for argv in commands()}
    sys.stdout.write(json.dumps({"python": list(sys.version_info[:2]),
                                 "runs": runs}, indent=1, sort_keys=True) + "\n")
