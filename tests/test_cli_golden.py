"""CLI stdout pinned byte for byte on catalogued fixtures.

`cli_golden.json` holds, per command, the exit code and the exact stdout
and stderr.  The input files are written into the working directory under
fixed names, so the reported paths and hashes are part of the pinned bytes.
After an intended output change, regenerate the file with

    PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.json
"""

import contextlib
import io
import itertools
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import pytest

from cellres.cli import main
from cellres.complexes import CellComplex
from cellres.constructions import (
    bipyramid_complex,
    fixture,
    fixture_catalogue,
    polygon_complex,
    subdivided_polygon,
)
from cellres.monomials import family_of, labelling
from cellres.serialize import (
    canonical_json,
    complex_to_dict,
    family_to_dict,
    labelling_to_dict,
)
from test_resolution import projective_plane

GOLDEN = Path(__file__).with_name("cli_golden.json")
FIXTURES = {"hex-squares-combined": "0,2,4", "wheel-hexagon": "1,3,5,7"}
FIELDS = ("gf2", "rational")
# square-free splits of hex-squares; their ordered pairs give all four
# refinement relations
SPLITS = ("hex-squares-polarized", "hex-squares-alternative",
          "hex-squares-combined")
# labelled fixtures whose complexes are built by pyramid and elongated-pyramid
CONES = ("pyramid-pentagon", "elongated-pyramid-triangle")
# bare polygons fed to construct pyramid and construct elongated-pyramid
POLYGONS = {"pentagon": 5, "triangle": 3}
# dissections of the 9-gon fed to construct subdivided-polygon: the fan
# from vertex 0 and the zigzag 1-8, 8-2, 2-7, 7-3, 3-6, 6-4
DISSECTIONS = ("0-2,0-3,0-4,0-5,0-6,0-7", "1-8,2-8,2-7,3-7,3-6,4-6")
# the 14-gon labelled with one variable per vertex pair: a vertex's label
# is the product of the variables of the pairs that hold it
ALL_PAIRS = 14
# the fan dissection of the 60-gon from vertex 0
FAN = 60


def fan_polygon(n):
    return subdivided_polygon(n, [(0, k) for k in range(2, n - 1)])


def homology_complexes():
    """Complexes pinned under `homology` over both fields: the projective
    plane (b1 = b2 = 1 over GF(2), acyclic over Q), the 2-sphere bounding
    the pentagonal bipyramid (b2 = 1) and the fan 60-gon (acyclic)."""
    sphere = bipyramid_complex(5)
    return {"projective-plane": projective_plane(),
            "sphere": CellComplex(sphere.n_vertices, sphere.cells[:-1]),
            "fan": fan_polygon(FAN)}


def all_pairs_labelling(n):
    pairs = list(itertools.combinations(range(n), 2))
    return labelling(len(pairs), [tuple(int(v in p) for p in pairs)
                                  for v in range(n)])


def write_inputs(directory):
    for name, n in POLYGONS.items():
        Path(directory, f"{name}.complex.json").write_text(
            canonical_json(complex_to_dict(polygon_complex(n))))
    for fid in sorted({*FIXTURES, *SPLITS, *CONES, "hex-squares"}):
        X, L = fixture(fid)
        docs = {"complex": complex_to_dict(X), "labelling": labelling_to_dict(L)}
        # two variables of elongated-pyramid-triangle cut out one vertex
        # set, so the cones are passed by labelling only
        if L.is_squarefree() and fid not in CONES:
            docs["family"] = family_to_dict(family_of(L))
        for kind, doc in docs.items():
            Path(directory, f"{fid}.{kind}.json").write_text(canonical_json(doc))
    Path(directory, "all-pairs.complex.json").write_text(
        canonical_json(complex_to_dict(polygon_complex(ALL_PAIRS))))
    Path(directory, "all-pairs.labelling.json").write_text(
        canonical_json(labelling_to_dict(all_pairs_labelling(ALL_PAIRS))))
    for name, X in homology_complexes().items():
        Path(directory, f"{name}.complex.json").write_text(
            canonical_json(complex_to_dict(X)))


def commands():
    for fid, vertices in FIXTURES.items():
        cx = ("--complex", f"{fid}.complex.json")
        lab = ("--labelling", f"{fid}.labelling.json")
        fam = ("--family", f"{fid}.family.json")
        for field in FIELDS:
            for argv in (("verify", *cx, *lab), ("verify", *cx, *fam),
                         ("maximal-check", *cx, *fam), ("homology", *cx),
                         ("homology", *cx, "--vertices", vertices),
                         ("betti", *cx, *lab)):
                yield [*argv, "--field", field]
    # the reflection 0<->4, 1<->3 fixes hex-squares-combined
    cx = ("--complex", "hex-squares-combined.complex.json")
    for field in FIELDS:
        for argv in (("enumerate", *cx), ("enumerate", *cx, "--maximal"),
                     ("enumerate", *cx, "--maximal", "--symmetry", "chord:4"),
                     ("conjecture", "variable-count"),
                     ("conjecture", "selfdual")):
            yield [*argv, "--field", field]
    for source in SPLITS:
        for target in SPLITS:
            yield ["morphism", "--from", f"{source}.family.json",
                   "--to", f"{target}.family.json"]
    yield ["polarize", "--labelling", "hex-squares.labelling.json"]
    yield ["construct", "tree-labelling", "--n", "6",
           "--edges", "0-1,1-2,1-3,3-4,3-5"]
    yield ["construct", "--list"]
    for fid in fixture_catalogue():
        yield ["construct", "fixture", "--id", fid]
    yield ["construct", "bipyramid", "--n", "5"]
    yield ["construct", "wheel", "--n", "4"]
    yield ["construct", "pyramid", "--complex", "pentagon.complex.json"]
    yield ["construct", "elongated-pyramid", "--complex",
           "triangle.complex.json"]
    # the named complexes at their smallest n and beyond
    for kind, sizes in (("wheel", "36"), ("bipyramid", "38")):
        for n in sizes:
            yield ["construct", kind, "--n", n]
    yield ["construct", "polygon", "--n", "7"]
    yield ["construct", "chord", "--n", "8", "--a", "3"]
    yield ["construct", "chord-families", "--n", "8", "--a", "3"]
    yield ["construct", "wheel-family"]
    for cx in ("hex-squares", "wheel-hexagon"):
        yield ["construct", "pyramid", "--complex", f"{cx}.complex.json"]
    yield ["construct", "elongated-pyramid", "--complex",
           "pentagon.complex.json"]
    for chords in DISSECTIONS:
        yield ["construct", "subdivided-polygon", "--n", "9",
               "--chords", chords]
    yield ["verify", "--complex", "all-pairs.complex.json",
           "--labelling", "all-pairs.labelling.json"]
    for fid in CONES:
        cx = ("--complex", f"{fid}.complex.json")
        lab = ("--labelling", f"{fid}.labelling.json")
        for field in FIELDS:
            for argv in (("verify", *cx, *lab), ("betti", *cx, *lab)):
                yield [*argv, "--field", field]
    for name in homology_complexes():
        for field in FIELDS:
            yield ["homology", "--complex", f"{name}.complex.json",
                   "--field", field]


def run_command(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", list(commands()), ids=" ".join)
def test_cli_output_matches_the_pinned_bytes(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    assert run_command(argv) == golden()[" ".join(argv)]


def test_all_pairs_verify_is_quick(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    argv = ["verify", "--complex", "all-pairs.complex.json",
            "--labelling", "all-pairs.labelling.json"]
    start = time.perf_counter()
    got = run_command(argv)
    assert time.perf_counter() - start < 2
    assert got == golden()[" ".join(argv)]


def test_golden_file_covers_exactly_these_commands():
    assert sorted(golden()) == sorted(" ".join(a) for a in commands())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        write_inputs(work)
        runs = {" ".join(argv): run_command(argv) for argv in commands()}
    sys.stdout.write(json.dumps(runs, indent=1, sort_keys=True) + "\n")
