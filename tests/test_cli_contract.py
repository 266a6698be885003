"""The CLI's exit-code contract, under Hypothesis.

Every in-process call returns 0 (done), 1 (a negative answer), 2 (a guard
refusal) or 3 (a malformed command line or input), and raises nothing: no
traceback, whatever the subcommand, options and files.  The argument lists
are drawn over all nine subcommands, with option values that parse and
ones that do not, and with files that are valid, malformed, oversized, of
the wrong kind or missing.  The inputs that once raised or ran away are
pinned as explicit examples.
"""

import contextlib
import io
import itertools
import json

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from cellres.cli import _COMMANDS, _CONSTRUCT, main
from cellres.constructions import fixture, polygon_complex, polygon_family
from cellres.monomials import UNION_LIMIT, family, family_of
from cellres.serialize import (
    canonical_json,
    complex_to_dict,
    family_to_dict,
    labelling_to_dict,
)
from test_cli_golden import fan_polygon

# a cell id of 5,000 digits: past CPython's digit limit for int parsing
LONG_ID = json.dumps(complex_to_dict(polygon_complex(3))).replace(
    '"id": 0', '"id": ' + "9" * 5000, 1).encode()


def _files() -> dict:
    """File name -> bytes: one input of every kind, valid or not."""
    X, L = fixture("hex-squares-combined")
    P, M = fixture("pyramid-pentagon")
    docs = {
        "pentagon": complex_to_dict(polygon_complex(5)),
        "hexagon": complex_to_dict(X),
        "pyramid": complex_to_dict(P),
        "fan-12-gon": complex_to_dict(fan_polygon(12)),
        "arcs": family_to_dict(polygon_family(5)),
        "combined": family_to_dict(family_of(L)),
        "combined-labelling": labelling_to_dict(L),
        "pyramid-labelling": labelling_to_dict(M),
        # the exact cover behind F -> G holds Fib(26) = 121,393 remainders
        "odd-pairs": family_to_dict(family(25, itertools.combinations(
            range(25), 2))),
        "odd-whole": family_to_dict(family(25, [range(25)])),
        "past-union-limit": {"n": UNION_LIMIT + 1, "sets": [[UNION_LIMIT]]},
        "wrong-schema": {"n": 3, "vertex_sets": [[0]]},
    }
    # candidate generation refuses these before the search starts
    for n in (16, 17, 18):
        docs[f"guard-{n}-gon"] = complex_to_dict(polygon_complex(n))
    files = {name: canonical_json(doc).encode() for name, doc in docs.items()}
    files.update({
        "not-json": b"this is not json",
        "not-utf8": b"\xff\xfe" + files["pentagon"],
        "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
        "long-integer": LONG_ID,
    })
    return files


FILES = _files()
FILE_NAMES = sorted(FILES) + ["absent"]

# option -> (values that parse, values that do not)
VALUES = {
    "--field": (["gf2", "rational"], ["z"]),
    "--max-candidates": (["0", "3", "60"], ["-1", "x"]),
    "--symmetry": (["none", "dihedral", "chord:2"], ["chord:x", "bogus"]),
    "--vertices": (["0,1,2", "1,3", ""], ["0,99", "x"]),
    "--n": (["3", "5", "6"], ["-1", "0", "x"]),
    "--a": (["2", "3"], ["0", "9"]),
    "--chords": (["1-3", "1-5,3-5", "0-2,0-3"], ["1-3,0-2", "0-1", "x",
                                                  "1-2-3"]),
    "--edges": (["0-1,1-2", "0-1,0-2,0-3"], ["0-1,0-1", "0-5", "x"]),
    "--id": (["hex-squares", "wheel-hexagon"], ["bogus"]),
}
# file option -> the valid files of its kind
KINDS = {
    "--complex": ["pentagon", "hexagon", "pyramid", "fan-12-gon",
                  "guard-16-gon", "guard-17-gon", "guard-18-gon"],
    "--family": ["arcs", "combined"],
    "--labelling": ["combined-labelling", "pyramid-labelling"],
    "--from": ["arcs", "combined", "odd-pairs", "past-union-limit"],
    "--to": ["arcs", "combined", "odd-whole", "past-union-limit"],
}
FILE_OPTIONS = tuple(KINDS)
# subcommand -> the file options it needs
REQUIRED = {
    "verify": ("--complex", "--family"),
    "enumerate": ("--complex",),
    "maximal-check": ("--complex", "--family"),
    "homology": ("--complex",),
    "betti": ("--complex", "--labelling"),
    "morphism": ("--from", "--to"),
    "polarize": ("--labelling",),
}
SWITCHES = ("--timing", "--maximal", "--list")
# subcommand -> the options besides --field and --timing it takes
OWN = {
    "construct": ("--list", "--n", "--a", "--chords", "--edges", "--id",
                  "--complex"),
    "verify": ("--labelling",),
    "enumerate": ("--maximal", "--symmetry", "--max-candidates"),
    "homology": ("--vertices",),
    "conjecture": ("--max-candidates",),
}
POSITIONAL = {
    "construct": [*_CONSTRUCT, "bogus"],
    "conjecture": ["selfdual", "variable-count", "bogus"],
}


@st.composite
def argvs(draw):
    """A subcommand or an unknown name, often with the files it needs, then
    options in any order; they may belong to another subcommand, repeat or
    lack a value, and a file may be of another kind, malformed or absent."""
    command = draw(st.sampled_from([*_COMMANDS, "bogus"]))
    argv = [command]
    if command in POSITIONAL and draw(st.integers(0, 3)):
        argv.append(draw(st.sampled_from(POSITIONAL[command])))
    options = []
    if draw(st.integers(0, 3)):
        options += REQUIRED.get(command, ())
    own = ("--field", "--timing", *OWN.get(command, ()))
    anything = (*VALUES, *FILE_OPTIONS, *SWITCHES)
    for _ in range(draw(st.integers(0, 3))):
        options.append(draw(st.sampled_from(
            own if draw(st.integers(0, 4)) else anything)))
    for option in options:
        argv.append(option)
        if option in FILE_OPTIONS:
            argv.append(draw(st.sampled_from(
                KINDS[option] if draw(st.integers(0, 3)) else FILE_NAMES)))
        elif option in VALUES and draw(st.integers(0, 9)):
            good, bad = VALUES[option]
            argv.append(draw(st.sampled_from(
                good if draw(st.integers(0, 3)) else bad)))
    if "variable-count" in argv:
        # its full table takes seconds; a small limit, the last one given,
        # refuses at once
        argv += ["--max-candidates", "3"]
    return argv


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    for name, raw in FILES.items():
        (root / f"{name}.json").write_bytes(raw)
    return {name: str(root / f"{name}.json") for name in FILE_NAMES}


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
@example(["morphism", "--from", "odd-pairs", "--to", "odd-whole"])
@example(["morphism", "--from", "past-union-limit", "--to",
          "past-union-limit"])
@example(["homology", "--complex", "not-utf8"])
@example(["homology", "--complex", "deep-nesting"])
@example(["homology", "--complex", "long-integer"])
@example(["enumerate", "--complex", "guard-16-gon"])
@example(["enumerate", "--complex", "guard-17-gon", "--maximal"])
@example(["enumerate", "--complex", "guard-18-gon", "--symmetry",
          "dihedral"])
@example(["verify", "--complex", "pentagon", "--family", "arcs"])
@example(["maximal-check", "--complex", "hexagon", "--family", "combined"])
@example(["betti", "--complex", "pyramid", "--labelling",
          "pyramid-labelling"])
def test_every_call_exits_0_to_3_and_raises_nothing(paths, argv):
    argv = [paths.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    # a report on stdout, or an error on stderr, never both
    if code < 2:
        assert json.loads(out.getvalue()) and not err.getvalue()
    else:
        assert not out.getvalue() and json.loads(err.getvalue())["error"]
