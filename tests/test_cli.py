"""End-to-end CLI runs, in process, checking exit codes and wire formats."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cellres import cli, search
from cellres.cli import main
from cellres.constructions import (
    edges_to_tree,
    fixture,
    polygon_complex,
    polygon_family,
    pyramid,
    tree_complex,
)
from cellres.linalg import GF2, RATIONAL
from cellres.monomials import (
    UNION_LIMIT,
    family,
    family_of,
    labelling,
    labelling_of,
)
from cellres.resolution import AcyclicityOracle, check_family_criteria
from cellres.serialize import (
    canonical_json,
    complex_to_dict,
    family_to_dict,
    labelling_to_dict,
)
from test_cells import strip_signs
from test_cli_golden import fan_polygon
from test_cli_usage import commands as usage_commands
from test_cli_usage import key as usage_key
from test_cli_usage import run_command as run_usage


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out else None
    err = json.loads(captured.err) if captured.err else None
    return code, out, err


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(canonical_json(doc))
    return str(path)


@pytest.fixture()
def hexagon_files(tmp_path):
    X, L = fixture("hex-squares-combined")
    _, P = fixture("hex-squares-polarized")
    return {
        "complex": write_doc(tmp_path, "hexagon.json", complex_to_dict(X)),
        "combined": write_doc(tmp_path, "combined.json",
                              family_to_dict(family_of(L))),
        "combined_lab": write_doc(tmp_path, "combined_lab.json",
                                  labelling_to_dict(L)),
        "polarized": write_doc(tmp_path, "polarized.json",
                               family_to_dict(family_of(P))),
    }


def test_construct_polygon_report_shape(capsys):
    code, out, err = run(capsys, "construct", "polygon", "--n", "5")
    assert code == 0 and err is None
    assert set(out) == {"command", "field", "inputs", "result"}
    assert out["command"] == "construct"
    assert out["field"] == "gf2"
    assert out["inputs"] == []
    assert out["result"]["complex"]["n_vertices"] == 5
    cells = out["result"]["complex"]["cells"]
    assert [c["dim"] for c in cells].count(2) == 1


def test_construct_fan_1100_gon_has_no_recursion_limit(capsys):
    chords = ",".join(f"0-{k}" for k in range(2, 1099))
    code, out, err = run(capsys, "construct", "subdivided-polygon",
                         "--n", "1100", "--chords", chords)
    assert code == 0 and err is None
    cells = out["result"]["complex"]["cells"]
    assert [c["dim"] for c in cells].count(2) == 1098


def test_construct_skips_empty_chord_entries(capsys):
    outs = []
    for chords in ("1-5,,3-5,", "1-5,3-5"):
        code, out, err = run(capsys, "construct", "subdivided-polygon",
                             "--n", "6", "--chords", chords)
        assert code == 0 and err is None
        outs.append(out)
    assert outs[0] == outs[1]


def test_construct_list_names_the_fixture_catalogue(capsys):
    code, out, _ = run(capsys, "construct", "--list")
    assert code == 0
    assert set(out["result"]["fixtures"]) == {
        "hex-squares", "hex-squares-polarized", "hex-squares-alternative",
        "hex-squares-combined", "pyramid-pentagon",
        "elongated-pyramid-triangle", "wheel-hexagon",
        "wheel-bipyramid-a", "wheel-bipyramid-b", "wheel-bipyramid-c",
    }


def test_output_is_byte_stable(capsys):
    main(["construct", "chord", "--n", "6", "--a", "2"])
    first = capsys.readouterr().out
    main(["construct", "chord", "--n", "6", "--a", "2"])
    second = capsys.readouterr().out
    assert first == second
    assert first.endswith("\n")
    assert first == canonical_json(json.loads(first))


def test_one_parser_serves_every_call(capsys):
    from cellres.cli import _build_parser
    assert _build_parser() is _build_parser()
    argv = ["construct", "chord", "--n", "6", "--a", "2"]
    main(argv)
    first = capsys.readouterr().out
    # a usage error and options of other calls leave nothing behind
    code, _, err = run(capsys, "verify", "--complex", "x.json")
    assert code == 3 and err["error"]["type"] == "CliError"
    code, out, _ = run(capsys, "construct", "polygon", "--n", "4",
                       "--field", "rational", "--timing")
    assert code == 0 and out["field"] == "rational"
    main(argv)
    assert capsys.readouterr().out == first
    assert json.loads(first)["field"] == "gf2"


def test_timing_flag_adds_wall_time(capsys):
    code, out, _ = run(capsys, "construct", "polygon", "--n", "4", "--timing")
    assert code == 0
    assert isinstance(out["wall_time_ms"], int) and out["wall_time_ms"] >= 0


def test_verify_family_positive(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "polygon", "--n", "5")
    cx = write_doc(tmp_path, "pent.json", out["result"]["complex"])
    code, out, _ = run(capsys, "construct", "polygon-family", "--n", "5")
    fam = write_doc(tmp_path, "fam.json", out["result"]["family"])
    code, out, _ = run(capsys, "verify", "--complex", cx, "--family", fam)
    assert code == 0
    assert out["result"]["criteria"]["ok"]
    assert out["result"]["cm_verdict"]["is_cm"]
    assert out["result"]["cm_verdict"]["codimension"] == 3
    paths = [entry["path"] for entry in out["inputs"]]
    assert paths == [cx, fam]
    for entry in out["inputs"]:
        raw = Path(entry["path"]).read_bytes()
        assert entry["sha256"] == hashlib.sha256(raw).hexdigest()


def test_verify_negative_exit_code(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "polygon", "--n", "4")
    cx = write_doc(tmp_path, "square.json", out["result"]["complex"])
    fam = write_doc(tmp_path, "singletons.json",
                    {"n": 4, "sets": [[0], [1], [2], [3]]})
    code, out, _ = run(capsys, "verify", "--complex", cx, "--family", fam)
    assert code == 1
    assert not out["result"]["cm_verdict"]["is_cm"]
    assert not out["result"]["criteria"]["ok"]


@pytest.mark.parametrize("sets,error", [
    ([[0], [1]], "vertex 2 lies in no member"),
    ([[0, 1], [2]], "label at vertex 0 divides label at vertex 1"),
], ids=["uncovered-vertex", "twin-vertices"])
def test_verify_family_without_a_labelling_is_negative(capsys, tmp_path,
                                                       sets, error):
    code, out, _ = run(capsys, "construct", "polygon", "--n", "3")
    cx = write_doc(tmp_path, "triangle.json", out["result"]["complex"])
    fam = write_doc(tmp_path, "fam.json", {"n": 3, "sets": sets})
    code, out, err = run(capsys, "verify", "--complex", cx, "--family", fam)
    assert code == 1 and err is None
    assert set(out["result"]) == {"criteria", "note"}
    assert not out["result"]["criteria"]["ok"]
    assert error in out["result"]["note"]


def test_verify_with_labelling_input(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "tree-labelling",
                       "--n", "3", "--edges", "0-1,1-2")
    cx = write_doc(tmp_path, "tree.json", out["result"]["complex"])
    lab = write_doc(tmp_path, "lab.json", out["result"]["labelling"])
    code, out, _ = run(capsys, "verify", "--complex", cx, "--labelling", lab,
                       "--field", "rational")
    assert code == 0
    assert out["field"] == "rational"
    assert out["result"]["cm_verdict"]["is_cm"]
    assert "criteria" not in out["result"]


def test_enumerate_pentagon(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "polygon", "--n", "5")
    cx = write_doc(tmp_path, "pent.json", out["result"]["complex"])
    code, out, _ = run(capsys, "enumerate", "--complex", cx)
    assert code == 0
    assert out["result"]["count"] == 1
    assert out["result"]["maximal_only"] is False
    assert out["result"]["families"][0]["sets"] == [
        [0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]
    outputs = []
    for extra in ([], ["--jobs", "2"]):
        assert main(["enumerate", "--complex", cx, "--maximal", *extra]) == 0
        outputs.append(capsys.readouterr().out)
    # --jobs is accepted and ignored: the output bytes do not change
    assert outputs[0] == outputs[1]
    out = json.loads(outputs[1])
    assert out["result"]["maximal_only"] is True
    assert out["result"]["count"] == 1


def test_enumerate_with_symmetry(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "chord", "--n", "6", "--a", "3")
    cx = write_doc(tmp_path, "chord.json", out["result"]["complex"])
    code, full, _ = run(capsys, "enumerate", "--complex", cx)
    code, reduced, _ = run(capsys, "enumerate", "--complex", cx,
                           "--symmetry", "chord:3")
    assert full["result"]["count"] == 2
    assert reduced["result"]["count"] == 1


def test_maximal_check_flags_the_extendable_family(capsys, hexagon_files):
    code, out, _ = run(capsys, "maximal-check",
                       "--complex", hexagon_files["complex"],
                       "--family", hexagon_files["combined"])
    assert code == 1
    assert out["result"]["criteria"]["ok"]
    assert out["result"]["maximality"]["is_maximal"] is False
    assert out["result"]["maximality"]["extension"] == [0, 1]


def test_maximal_check_rejects_invalid_families(capsys, hexagon_files,
                                                tmp_path):
    fam = write_doc(tmp_path, "bad.json",
                    {"n": 6, "sets": [[0, 1, 2, 3, 4, 5]]})
    code, out, _ = run(capsys, "maximal-check",
                       "--complex", hexagon_files["complex"],
                       "--family", fam)
    assert code == 1
    assert not out["result"]["criteria"]["ok"]
    assert "note" in out["result"]


def test_homology_with_restriction(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "tree-complex",
                       "--n", "3", "--edges", "0-1,1-2")
    cx = write_doc(tmp_path, "path.json", out["result"]["complex"])
    code, out, _ = run(capsys, "homology", "--complex", cx)
    assert code == 0
    assert out["result"]["homology"]["acyclic"] is True
    code, out, _ = run(capsys, "homology", "--complex", cx,
                       "--vertices", "0,2")
    assert code == 0
    assert out["result"]["homology"]["acyclic"] is False
    assert out["result"]["homology"]["reduced_betti"] == {"0": 1}


def test_rational_homology_of_the_fan_400_gon_is_quick(capsys, tmp_path):
    cx = write_doc(tmp_path, "fan.json", complex_to_dict(fan_polygon(400)))
    start = time.perf_counter()
    code, out, _ = run(capsys, "homology", "--complex", cx,
                       "--field", "rational")
    assert time.perf_counter() - start < 2
    assert code == 0
    assert out["result"]["homology"] == {
        "acyclic": True, "field": "rational", "reduced_betti": {}}


@pytest.mark.parametrize("command, flag, message", [
    ("homology", None, "homology over rational needs signed incidences"),
    ("verify", "--labelling",
     "acyclicity over rational needs signed incidences"),
    ("verify", "--family", "acyclicity over rational needs signed incidences"),
    ("maximal-check", "--family",
     "acyclicity over rational needs signed incidences"),
    ("enumerate", None, "acyclicity over rational needs signed incidences"),
    ("betti", "--labelling", "free complex needs signed incidences"),
])
def test_every_missing_signs_route_exits_3(capsys, tmp_path, command, flag,
                                           message):
    F = polygon_family(5)
    cx = write_doc(tmp_path, "pent.json",
                   complex_to_dict(strip_signs(polygon_complex(5))))
    inputs = {"--family": family_to_dict(F),
              "--labelling": labelling_to_dict(labelling_of(F))}
    extra = [flag, write_doc(tmp_path, "in.json", inputs[flag])] if flag else []
    # betti builds the free complex over the integers whatever the field
    field = [] if command == "betti" else ["--field", "rational"]
    code, out, err = run(capsys, command, "--complex", cx, *extra, *field)
    assert code == 3 and out is None
    assert err == {"error": {"type": "SignsMissingError", "message": message}}


def test_homology_over_gf2_needs_no_signs(capsys, tmp_path):
    cx = write_doc(tmp_path, "pent.json",
                   complex_to_dict(strip_signs(polygon_complex(5))))
    code, out, err = run(capsys, "homology", "--complex", cx)
    assert code == 0 and err is None
    assert out["result"]["homology"]["acyclic"] is True


def _triangle(cell, key, value):
    """The triangle with one field of one cell replaced."""
    doc = complex_to_dict(polygon_complex(3))
    doc["cells"][cell][key] = value
    return doc


@pytest.mark.parametrize("doc, diags", [
    (_triangle(0, "boundary", [[1, 1]]),
     ["cell 0: dimension-0 cell with nonempty boundary"]),
    (_triangle(0, "vertices", [0, 1]),
     ["cell 0: dimension-0 cell must have one vertex",
      "cell 5: vertex set differs from union of boundary vertex sets",
      "vertex 0 has no dimension-0 cell"]),
    (_triangle(3, "vertices", []),
     ["cell 3: empty vertex set",
      "cell 3: vertex set differs from union of boundary vertex sets"]),
    (_triangle(3, "vertices", [0, 1, 3]),
     ["cell 3: vertex 3 out of range",
      "cell 3: vertex set differs from union of boundary vertex sets",
      "cell 6: vertex set differs from union of boundary vertex sets"]),
    (_triangle(6, "boundary", [[3, 1], [4, 1], [5, -1], [3, 1]]),
     ["cell 6: repeated boundary cell",
      "cell 6: face 1 lies under 3 boundary cells, expected 2",
      "cell 6: face 0 lies under 3 boundary cells, expected 2",
      "cell 6: boundary of boundary is nonzero at [0, 1]"]),
], ids=["vertex-boundary", "two-vertex-vertex", "empty-vertex-set",
        "vertex-out-of-range", "repeated-boundary-cell"])
def test_invalid_triangles_list_every_diagnostic(capsys, tmp_path, doc, diags):
    cx = write_doc(tmp_path, "triangle.json", doc)
    code, out, err = run(capsys, "homology", "--complex", cx)
    assert code == 3 and out is None
    assert err == {"error": {"type": "SerializationError",
                             "message": "not a valid complex: "
                             + "; ".join(diags)}}


@pytest.mark.parametrize("argv, kind, message", [
    (["polygon", "--n", "2"], "ComplexError",
     "polygon needs at least 3 vertices"),
    (["wheel", "--n", "2"], "ComplexError", "wheel needs n >= 3"),
    (["bipyramid", "--n", "2"], "ComplexError", "bipyramid needs n >= 3"),
    (["subdivided-polygon", "--n", "6", "--chords", "0-3,1-4"],
     "ComplexError", "chords (0,3) and (1,4) cross"),
    (["subdivided-polygon", "--n", "6", "--chords", "1-2-3"], "CliError",
     "--chords entries look like 'i-j', got '1-2-3'"),
    ([], "CliError", "construct needs a kind or --list"),
])
def test_construct_errors_exit_3(capsys, argv, kind, message):
    code, out, err = run(capsys, "construct", *argv)
    assert code == 3 and out is None
    assert err == {"error": {"type": kind, "message": message}}


def test_betti_ranks(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "tree-labelling",
                       "--n", "3", "--edges", "0-1,1-2")
    cx = write_doc(tmp_path, "tree.json", out["result"]["complex"])
    lab = write_doc(tmp_path, "lab.json", out["result"]["labelling"])
    code, out, _ = run(capsys, "betti", "--complex", cx, "--labelling", lab)
    assert code == 0
    assert out["result"]["ranks"] == [1, 3, 2]
    assert out["result"]["composition_is_zero"] is True


@pytest.mark.parametrize("field", ["gf2", "rational"])
def test_betti_of_the_void_complex_is_the_ring_alone(capsys, tmp_path, field):
    cx = write_doc(tmp_path, "void.json", {"n_vertices": 0, "cells": []})
    lab = write_doc(tmp_path, "lab.json", {"n_variables": 0, "labels": []})
    code, out, err = run(capsys, "betti", "--complex", cx, "--labelling", lab,
                         "--field", field)
    assert code == 0 and err is None
    assert out["result"] == {"ranks": [1], "composition_is_zero": True}


def test_morphism_exit_codes(capsys, hexagon_files):
    code, out, _ = run(capsys, "morphism",
                       "--from", hexagon_files["combined"],
                       "--to", hexagon_files["polarized"])
    assert code == 0
    assert out["result"]["morphism_exists"] is True
    code, out, _ = run(capsys, "morphism",
                       "--from", hexagon_files["polarized"],
                       "--to", hexagon_files["combined"])
    assert code == 1
    assert out["result"]["morphism_exists"] is False


def test_morphism_asks_each_refinement_once(capsys, hexagon_files,
                                            monkeypatch):
    from cellres import monomials
    calls = []
    refines = monomials.refines
    monkeypatch.setattr(monomials, "refines",
                        lambda F, G: calls.append(1) or refines(F, G))
    for src, dst in (("combined", "polarized"), ("polarized", "combined"),
                     ("combined", "combined")):
        calls.clear()
        run(capsys, "morphism", "--from", hexagon_files[src],
            "--to", hexagon_files[dst])
        assert len(calls) == 2


def test_morphism_from_1200_singletons_to_their_union(capsys, tmp_path):
    # the exact cover of the union takes 1,200 parts, one per step
    n = 1200
    singletons = write_doc(tmp_path, "singletons.json",
                           family_to_dict(family(n, [{v} for v in range(n)])))
    union = write_doc(tmp_path, "union.json",
                      family_to_dict(family(n, [set(range(n))])))
    code, out, err = run(capsys, "morphism", "--from", singletons,
                         "--to", union)
    assert code == 0 and err is None
    assert out["result"]["morphism_exists"] is True


def test_morphism_refuses_an_exact_cover_past_the_union_limit(capsys,
                                                             tmp_path):
    def all_pairs_to_the_whole_set(n):
        pairs = write_doc(tmp_path, "pairs.json", family_to_dict(
            family(n, itertools.combinations(range(n), 2))))
        whole = write_doc(tmp_path, "whole.json",
                          family_to_dict(family(n, [range(n)])))
        return run(capsys, "morphism", "--from", pairs, "--to", whole)

    # the exact cover behind the answer holds Fib(n + 1) remainders:
    # 46,368 at n = 23 and 2,178,309 at n = 31
    code, out, err = all_pairs_to_the_whole_set(23)
    assert code == 1 and err is None
    assert out["result"]["morphism_exists"] is False
    start = time.perf_counter()
    code, out, err = all_pairs_to_the_whole_set(31)
    assert time.perf_counter() - start < 1
    assert code == 2 and out is None
    assert err["error"] == {
        "type": "guard",
        "message": "more than 65536 remainders in an exact cover; "
                   "the input is too large to scan exhaustively"}


def test_polarize_matches_the_catalogued_labelling(capsys, hexagon_files,
                                                   tmp_path):
    X, L = fixture("hex-squares")
    lab = write_doc(tmp_path, "squares.json", labelling_to_dict(L))
    code, out, _ = run(capsys, "polarize", "--labelling", lab)
    assert code == 0
    _, P = fixture("hex-squares-polarized")
    assert out["result"]["labelling"] == labelling_to_dict(P)
    assert out["result"]["family"] == family_to_dict(family_of(P))


def test_conjecture_selfdual(capsys):
    code, out, _ = run(capsys, "conjecture", "selfdual")
    assert code == 0
    assert out["result"]["kind"] == "selfdual"
    assert out["result"]["holds"] is True
    assert out["result"]["counterexamples"] == []


def test_conjecture_variable_count(capsys):
    code, out, _ = run(capsys, "conjecture", "variable-count")
    assert code == 0
    assert out["result"]["kind"] == "variable-count"


def test_guard_refusal_is_exit_2(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "polygon", "--n", "7")
    cx = write_doc(tmp_path, "hept.json", out["result"]["complex"])
    code, out, err = run(capsys, "enumerate", "--complex", cx,
                         "--max-candidates", "3")
    assert code == 2
    assert out is None
    assert err["error"]["type"] == "guard"
    assert "max_candidates" in err["error"]["message"]


@pytest.mark.parametrize("name,X", [
    ("40-gon", polygon_complex(40)),
    ("pyramid-30-gon", pyramid(polygon_complex(30))),
])
def test_guard_refuses_large_complexes_quickly(capsys, tmp_path, name, X):
    cx = write_doc(tmp_path, f"{name}.json", complex_to_dict(X))
    start = time.perf_counter()
    code, out, err = run(capsys, "enumerate", "--complex", cx)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out is None
    assert err["error"]["type"] == "guard"


@pytest.mark.parametrize("command,flag", [
    ("verify", "--labelling"),
    ("verify", "--family"),
    ("maximal-check", "--family"),
])
def test_guard_refuses_oversized_union_closures(capsys, tmp_path, command,
                                                 flag):
    # the singletons of the 40-gon, and their labelling x_0, ..., x_39,
    # have 2^40 unions and 2^40 - 1 lcm points
    singletons = family(40, [{v} for v in range(40)])
    doc = (family_to_dict(singletons) if flag == "--family"
           else labelling_to_dict(labelling_of(singletons)))
    cx = write_doc(tmp_path, "40-gon.json",
                   complex_to_dict(polygon_complex(40)))
    inp = write_doc(tmp_path, "singletons.json", doc)
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--complex", cx, flag, inp)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out is None
    assert err["error"]["type"] == "guard"


def test_verify_answers_huge_exponents_quickly(capsys, tmp_path):
    # x^(10^9), y^(10^9) on an edge: the lcm lattice has three points
    cx = write_doc(tmp_path, "edge.json", complex_to_dict(
        tree_complex(edges_to_tree(2, [(0, 1)]))))
    lab = write_doc(tmp_path, "huge.json", labelling_to_dict(
        labelling(2, [(10 ** 9, 0), (0, 10 ** 9)])))
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "--complex", cx, "--labelling", lab)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out["result"]["cm_verdict"]["is_cm"]


def test_polarize_refuses_huge_exponents_quickly(capsys, tmp_path):
    # 2 * 10^8 polarized variables: refused before any row is built
    lab = write_doc(tmp_path, "huge.json", labelling_to_dict(
        labelling(2, [(10 ** 8, 0), (0, 10 ** 8)])))
    start = time.perf_counter()
    code, out, err = run(capsys, "polarize", "--labelling", lab)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out is None
    assert err["error"]["type"] == "guard"
    assert "200000000 variables" in err["error"]["message"]


def test_polarize_refuses_many_long_rows_quickly(capsys, tmp_path):
    # 400 labels in 2 variables: 64,120 polarized variables pass the
    # variable limit, but the rows would hold 400 * 64,120 exponents
    lab = write_doc(tmp_path, "long.json", labelling_to_dict(
        labelling(2, [(80 * i, 32200 - 80 * i) for i in range(400)])))
    start = time.perf_counter()
    code, out, err = run(capsys, "polarize", "--labelling", lab)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out is None
    assert err["error"]["type"] == "guard"
    assert err["error"]["message"] == (
        "polarization needs 400 rows of 64120 exponents, more than 131072 "
        "in all")


@pytest.mark.parametrize("command, flag, doc, first", [
    ("homology", "--complex", {"n_vertices": 10 ** 8, "cells": []},
     "vertex 0 has no dimension-0 cell, nor do 99999999 more vertices"),
    ("polarize", "--labelling", {"n_variables": 10 ** 8, "labels": []},
     "variable 0 occurs in no label, nor do 99999999 more variables"),
])
def test_missing_vertices_or_variables_give_a_short_diagnostic(
        capsys, tmp_path, command, flag, doc, first):
    path = write_doc(tmp_path, "doc.json", doc)
    start = time.perf_counter()
    code = main([command, flag, path])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert len(captured.err) < 1024
    err = json.loads(captured.err)
    assert err["error"]["type"] == "SerializationError"
    assert first in err["error"]["message"]


def test_verify_reports_the_codimension_witness(capsys, tmp_path):
    # xy, xz on an edge: a minimal cellular resolution of an ideal of
    # codimension 1, one short of the dimension of the edge plus one
    cx = write_doc(tmp_path, "edge.json", complex_to_dict(
        tree_complex(edges_to_tree(2, [(0, 1)]))))
    lab = write_doc(tmp_path, "lab.json", labelling_to_dict(
        labelling(3, [(1, 1, 0), (1, 0, 1)])))
    code, out, _ = run(capsys, "verify", "--complex", cx, "--labelling", lab)
    assert code == 1
    verdict = out["result"]["cm_verdict"]
    assert verdict["is_cellular_resolution"] and verdict["is_minimal"]
    assert not verdict["is_cm"]
    assert verdict["witness"] == ["codimension", [1, 2]]


def test_maximal_check_reports_a_decomposable_member(capsys, tmp_path):
    # on the path 0-1-2 the valid family {0},{1,2},{0,1},{2},{0,2} is not
    # reduced: {0,2} is the disjoint union of the members {0} and {2}
    cx = write_doc(tmp_path, "path.json", complex_to_dict(
        tree_complex(edges_to_tree(3, [(0, 1), (1, 2)]))))
    fam = write_doc(tmp_path, "fam.json", family_to_dict(
        family(3, [{0}, {1, 2}, {0, 1}, {2}, {0, 2}])))
    code, out, _ = run(capsys, "maximal-check", "--complex", cx,
                       "--family", fam)
    assert code == 1
    assert out["result"]["criteria"]["ok"]
    maximality = out["result"]["maximality"]
    assert maximality["is_maximal"] is False
    assert maximality["decomposable"] == [0, 2]


def test_verify_family_adds_no_oracle_work_to_the_criteria(capsys, tmp_path,
                                                           monkeypatch):
    # the lcm supports of an arc family's labelling are the complements of
    # the member unions, so the CM pass asks nothing new of the one oracle
    X, F = polygon_complex(15), polygon_family(15)
    cx = write_doc(tmp_path, "15-gon.json", complex_to_dict(X))
    fam = write_doc(tmp_path, "arcs.json", family_to_dict(F))
    asked, computed = [], []
    is_acyclic = AcyclicityOracle.is_acyclic
    compute = AcyclicityOracle._compute

    def counting_is_acyclic(self, mask, outside=None):
        asked.append(mask)
        return is_acyclic(self, mask, outside)

    def counting_compute(self, mask, outside=None):
        computed.append(mask)
        return compute(self, mask, outside)

    monkeypatch.setattr(AcyclicityOracle, "is_acyclic", counting_is_acyclic)
    monkeypatch.setattr(AcyclicityOracle, "_compute", counting_compute)
    for name, field in (("gf2", GF2), ("rational", RATIONAL)):
        asked.clear()
        computed.clear()
        assert check_family_criteria(X, F, field).ok
        criteria_asked, criteria_computed = set(asked), list(computed)
        asked.clear()
        computed.clear()
        code, out, _ = run(capsys, "verify", "--complex", cx, "--family", fam,
                           "--field", name)
        assert code == 0 and out["result"]["cm_verdict"]["is_cm"]
        assert set(asked) == criteria_asked
        assert computed == criteria_computed


@pytest.mark.parametrize("field", ["gf2", "rational"])
def test_maximal_check_runs_the_criteria_once(capsys, tmp_path, monkeypatch,
                                              field):
    # is_maximal takes the report the CLI already has
    cx = write_doc(tmp_path, "15-gon.json",
                   complex_to_dict(polygon_complex(15)))
    fam = write_doc(tmp_path, "arcs.json", family_to_dict(polygon_family(15)))
    reports = []

    def counting(*args):
        reports.append(check_family_criteria(*args))
        return reports[-1]

    monkeypatch.setattr(cli, "check_family_criteria", counting)
    monkeypatch.setattr(search, "check_family_criteria", counting)
    code, out, _ = run(capsys, "maximal-check", "--complex", cx,
                       "--family", fam, "--field", field)
    assert code == 0 and out["result"]["maximality"]["is_maximal"] is True
    assert len(reports) == 1


@pytest.mark.parametrize("field", ["gf2", "rational"])
def test_maximal_check_answers_on_the_41_gon(capsys, tmp_path, field):
    cx = write_doc(tmp_path, "41-gon.json",
                   complex_to_dict(polygon_complex(41)))
    fam = write_doc(tmp_path, "arcs.json", family_to_dict(polygon_family(41)))
    start = time.perf_counter()
    code, out, _ = run(capsys, "maximal-check", "--complex", cx,
                       "--family", fam, "--field", field)
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert out["result"]["maximality"]["is_maximal"] is True


@pytest.mark.parametrize("command,flag", [
    ("verify", "--family"),
    ("maximal-check", "--family"),
    ("verify", "--labelling"),
])
@pytest.mark.parametrize("field", ["gf2", "rational"])
def test_size_mismatch_is_a_family_error(capsys, tmp_path, command, flag,
                                         field):
    # the pentagon carries no signs, so over Q an oracle built before the
    # size check would report missing signs instead
    arcs = polygon_family(7)
    doc = (family_to_dict(arcs) if flag == "--family"
           else labelling_to_dict(labelling_of(arcs)))
    cx = write_doc(tmp_path, "pentagon.json",
                   complex_to_dict(strip_signs(polygon_complex(5))))
    inp = write_doc(tmp_path, "arcs.json", doc)
    code, out, err = run(capsys, command, "--complex", cx, flag, inp,
                         "--field", field)
    assert code == 3 and out is None
    assert err["error"]["type"] == "FamilyError"
    assert "does not match" in err["error"]["message"]


# a cell id of 5,000 digits: past CPython's digit limit for int parsing
# where there is one, and not the dense id 0 where there is none
LONG_ID = json.dumps(complex_to_dict(polygon_complex(3))).replace(
    '"id": 0', '"id": ' + "9" * 5000, 1).encode()


@pytest.mark.parametrize("raw", [
    b"this is not json",
    b"\xff\xfe" + canonical_json({"n_vertices": 0, "cells": []}).encode(),
    b"[" * 100_000 + b"]" * 100_000,
    LONG_ID,
], ids=["not-json", "not-utf8", "deep-nesting", "long-integer"])
def test_malformed_json_is_exit_3(capsys, tmp_path, raw):
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    code, out, err = run(capsys, "homology", "--complex", str(bad))
    assert code == 3
    assert err["error"]["type"] == "SerializationError"


@pytest.mark.parametrize("n,code", [(UNION_LIMIT, 0), (UNION_LIMIT + 1, 2),
                                    (10 ** 30 + 1, 2)])
def test_families_past_the_union_limit_are_refused(capsys, tmp_path, n, code):
    fam = write_doc(tmp_path, "fam.json", {"n": n, "sets": [[n - 1]]})
    got, out, err = run(capsys, "morphism", "--from", fam, "--to", fam)
    assert got == code
    if code == 2:
        assert out is None and err["error"]["type"] == "guard"


def test_missing_file_is_exit_3(capsys, tmp_path):
    code, out, err = run(capsys, "homology",
                         "--complex", str(tmp_path / "absent.json"))
    assert code == 3
    assert err["error"]["type"] == "CliError"


def test_wrong_schema_is_exit_3(capsys, tmp_path):
    fam = write_doc(tmp_path, "fam.json", {"n": 3, "vertex_sets": [[0]]})
    code, out, err = run(capsys, "morphism", "--from", fam, "--to", fam)
    assert code == 3
    assert err["error"]["type"] == "SerializationError"


def _edge_complex(cell, key, value):
    """The one-edge complex with one field of one cell replaced."""
    doc = complex_to_dict(tree_complex(edges_to_tree(2, [(0, 1)])))
    doc["cells"][cell][key] = value
    return doc


@pytest.mark.parametrize("command,flag,doc", [
    ("homology", "--complex", {"n_vertices": True, "cells": [
        {"id": 0, "dim": 0, "vertices": [0], "boundary": []}]}),
    ("homology", "--complex", _edge_complex(1, "id", True)),
    ("homology", "--complex", _edge_complex(0, "dim", False)),
    ("homology", "--complex",
     _edge_complex(2, "boundary", [[False, -1], [True, True]])),
    ("morphism", "--from", {"n": True, "sets": [[0]]}),
    ("polarize", "--labelling", {"n_variables": True, "labels": [[1]]}),
], ids=["n_vertices", "cell-id", "dim", "boundary", "family-n",
        "n_variables"])
def test_json_booleans_are_not_integers(capsys, tmp_path, command, flag, doc):
    path = write_doc(tmp_path, "doc.json", doc)
    extra = ["--to", path] if command == "morphism" else []
    code, out, err = run(capsys, command, flag, path, *extra)
    assert code == 3 and out is None
    assert err["error"]["type"] == "SerializationError"


ENTRY_MESSAGE = "cell 2: boundary entries are [cell_id, sign] with sign in -1/0/+1"


@pytest.mark.parametrize("cell,key,value,message", [
    (1, "extra", 0,
     "cell #1 needs exactly the keys id, dim, vertices, boundary"),
    (1, "id", 2, "cell ids must be dense and ordered; cell #1 has id 2"),
    (0, "dim", True, "cell 0: dim must be a non-negative integer"),
    (0, "vertices", [True], "cell 0: vertices must be a list of integers"),
    (2, "boundary", {"0": -1}, "cell 2: boundary must be a list"),
    (2, "boundary", [[0, -1, 0], [1, 1]], ENTRY_MESSAGE),
    (2, "boundary", [[0, True], [1, 1]], ENTRY_MESSAGE),
    (2, "boundary", [[0, -1], [1, 2]], ENTRY_MESSAGE),
    (1, "id", True, "cell ids must be dense and ordered; cell #1 has id True"),
    (2, "boundary", [[True, -1], [1, 1]], ENTRY_MESSAGE),
    (2, "boundary", [[0, -1.0], [1, 1]], ENTRY_MESSAGE),
    (0, "vertices", [0.0], "cell 0: vertices must be a list of integers"),
], ids=["keys", "id-order", "bool-dim", "bool-vertex", "boundary-type",
        "triple", "bool-sign", "sign-2", "bool-id", "bool-boundary-id",
        "float-sign", "float-vertex"])
def test_malformed_cells_name_the_cell_and_the_fault(capsys, tmp_path, cell,
                                                     key, value, message):
    path = write_doc(tmp_path, "doc.json", _edge_complex(cell, key, value))
    code, out, err = run(capsys, "homology", "--complex", path)
    assert code == 3 and out is None
    assert err["error"] == {"type": "SerializationError", "message": message}


def _vertex_cells(n):
    return [{"id": v, "dim": 0, "vertices": [v], "boundary": []}
            for v in range(n)]


def _boundary_id_99():
    doc = complex_to_dict(polygon_complex(3))
    doc["cells"][-1]["boundary"][0][0] = 99
    return doc


def _all_plus_triangle():
    # the 2-cell carries +1 on every edge, so its boundary's boundary is
    # nonzero at two vertices while every edge alone is sound
    doc = complex_to_dict(polygon_complex(3))
    for entry in doc["cells"][-1]["boundary"]:
        entry[1] = 1
    return doc


@pytest.mark.parametrize("command", [
    "homology", "enumerate", "verify", "maximal-check", "betti"])
@pytest.mark.parametrize("doc,diag", [
    (_boundary_id_99(), "cell 6: boundary id 99 out of range"),
    ({"n_vertices": 2, "cells": _vertex_cells(2) + [
        {"id": 2, "dim": 1, "vertices": [0], "boundary": [[0, -1]]}]},
     "cell 2: face -1 lies under 1 boundary cells, expected 2"),
    ({"n_vertices": 3, "cells": _vertex_cells(3) + [
        {"id": 3, "dim": 1, "vertices": [0, 1, 2],
         "boundary": [[0, -1], [1, 1], [2, 1]]}]},
     "cell 3: face -1 lies under 3 boundary cells, expected 2"),
    (_edge_complex(2, "boundary", [[1, 1], [0, 1]]),
     "cell 2: boundary of boundary is nonzero at [-1]"),
    (_all_plus_triangle(), "cell 6: boundary of boundary is nonzero at [0, 2]"),
], ids=["boundary-id-99", "one-endpoint", "three-endpoints", "same-sign",
        "all-plus-triangle"])
def test_malformed_complexes_exit_3_from_every_command(capsys, tmp_path,
                                                      command, doc, diag):
    n = doc["n_vertices"]
    cx = write_doc(tmp_path, "complex.json", doc)
    fam = write_doc(tmp_path, "family.json", {"n": n, "sets": [[0]]})
    lab = write_doc(tmp_path, "labelling.json", {
        "n_variables": n,
        "labels": [[int(v == p) for p in range(n)] for v in range(n)]})
    extra = {"verify": ["--family", fam], "maximal-check": ["--family", fam],
             "betti": ["--labelling", lab]}.get(command, [])
    code, out, err = run(capsys, command, "--complex", cx, *extra,
                         "--field", "rational")
    assert code == 3 and out is None
    assert err["error"]["type"] == "SerializationError"
    assert diag in err["error"]["message"]


def test_enumerate_with_dihedral_symmetry(capsys, tmp_path):
    cx = write_doc(tmp_path, "pent.json", complex_to_dict(polygon_complex(5)))
    code, out, _ = run(capsys, "enumerate", "--complex", cx,
                       "--symmetry", "dihedral")
    assert code == 0
    assert out["result"]["count"] == 1
    assert out["result"]["families"][0]["sets"] == [
        [0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]


@pytest.mark.parametrize("argv, message", [
    (["enumerate", "--complex", "PENT", "--symmetry", "chord:x"],
     "--symmetry chord:A needs an integer A"),
    (["enumerate", "--complex", "PENT", "--symmetry", "bogus"],
     "unknown symmetry 'bogus'; use none, dihedral, or chord:A"),
    (["construct", "subdivided-polygon", "--n", "6", "--chords", "1-x"],
     "--chords entries need integer endpoints: '1-x'"),
    (["construct", "fixture", "--id", "nope"],
     "unknown fixture 'nope'; known: elongated-pyramid-triangle, "
     "hex-squares, hex-squares-alternative, hex-squares-combined, "
     "hex-squares-polarized, pyramid-pentagon, wheel-bipyramid-a, "
     "wheel-bipyramid-b, wheel-bipyramid-c, wheel-hexagon"),
    (["construct", "pyramid"], "construct pyramid needs --complex"),
    (["homology", "--complex", "PENT", "--vertices", "a"],
     "--vertices is a comma list of integers"),
])
def test_unusable_option_values_are_exit_3(capsys, tmp_path, argv, message):
    cx = write_doc(tmp_path, "pent.json", complex_to_dict(polygon_complex(5)))
    code, out, err = run(capsys, *(cx if a == "PENT" else a for a in argv))
    assert code == 3 and out is None
    assert err == {"error": {"type": "CliError", "message": message}}


def test_no_subcommand_is_exit_3(capsys):
    code, out, err = run(capsys)
    assert code == 3
    assert err["error"]["type"] == "CliError"


def test_bad_flag_value_is_exit_3(capsys):
    code, out, err = run(capsys, "construct", "polygon", "--n", "x")
    assert code == 3


@pytest.mark.parametrize("value", ["-1", "x"])
@pytest.mark.parametrize("command", ["enumerate", "conjecture"])
def test_bad_max_candidates_is_exit_3(capsys, tmp_path, command, value):
    # refused while parsing, before any input is read or any guard compares
    # a candidate count with it
    if command == "enumerate":
        cx = write_doc(tmp_path, "pent.json",
                       complex_to_dict(polygon_complex(5)))
        argv = ["enumerate", "--complex", cx]
    else:
        argv = ["conjecture", "variable-count"]
    code, out, err = run(capsys, *argv, "--max-candidates", value)
    assert code == 3 and out is None
    assert err["error"]["type"] == "CliError"
    assert "--max-candidates" in err["error"]["message"]


def test_zero_max_candidates_is_a_guard_refusal(capsys, tmp_path):
    cx = write_doc(tmp_path, "pent.json", complex_to_dict(polygon_complex(5)))
    code, out, err = run(capsys, "enumerate", "--complex", cx,
                         "--max-candidates", "0")
    assert code == 2 and out is None
    assert err["error"]["message"].startswith("more than 0 candidate sets")


def test_conjecture_rejects_the_jobs_flag(capsys):
    code, out, err = run(capsys, "conjecture", "variable-count",
                         "--jobs", "2")
    assert code == 3 and out is None
    assert err["error"]["type"] == "CliError"


def test_import_loads_no_process_pool():
    # the family search runs in process, so importing the CLI does not
    # pull in the multiprocessing machinery
    probe = ("import sys, cellres.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] in "
             "('multiprocessing', 'concurrent')))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_import_loads_neither_dataclasses_nor_inspect():
    # the record types are NamedTuples, so no class is built by dataclasses
    # and no process pays for importing it and inspect
    probe = ("import sys{}; print(sorted(m for m in ('dataclasses', 'inspect') "
             "if m in sys.modules))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    before, after = (
        subprocess.run([sys.executable, "-c", probe.format(extra)], env=env,
                       capture_output=True, text=True, check=True).stdout
        for extra in ("", ", cellres.cli"))
    if before.strip() != "[]":
        pytest.skip(f"the interpreter's start-up already loads {before.strip()}")
    assert after.strip() == "[]"


# a fresh process makes one verify call and prints its exit code, the input
# digests it reports, and which of hashlib and OpenSSL's _hashlib it loaded;
# a first argument "blocked" hides both built-in SHA-256 modules first
DIGEST_PROBE = """\
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["_sha2"] = sys.modules["_sha256"] = None
from cellres import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["verify", "--complex", sys.argv[2], "--family", sys.argv[3]])
digests = [i["sha256"] for i in json.loads(out.getvalue())["inputs"]]
loaded = [m for m in ("hashlib", "_hashlib") if m in sys.modules]
print(json.dumps([code, digests, loaded]))
"""


def _digest_probe(tmp_path, mode):
    cx = write_doc(tmp_path, "pent.json", complex_to_dict(polygon_complex(5)))
    fam = write_doc(tmp_path, "fam.json", family_to_dict(polygon_family(5)))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", DIGEST_PROBE, mode, cx, fam],
                          env=env, capture_output=True, text=True, check=True)
    code, digests, loaded = json.loads(done.stdout)
    expected = [hashlib.sha256(Path(p).read_bytes()).hexdigest()
                for p in (cx, fam)]
    return code, digests == expected, loaded


def test_a_cli_call_loads_no_openssl(tmp_path):
    # the input digests come from the interpreter's built-in SHA-256, so
    # a call loads neither hashlib nor OpenSSL's libcrypto
    assert _digest_probe(tmp_path, "built-in") == (0, True, [])


def test_without_a_built_in_sha256_the_digest_comes_from_hashlib(tmp_path):
    code, same, loaded = _digest_probe(tmp_path, "blocked")
    assert (code, same) == (0, True) and "hashlib" in loaded


@pytest.mark.parametrize("command,flags,code,hashed", [
    ("verify", ("--complex", "--family"), 0, 2),
    ("betti", ("--complex", "--labelling"), 0, 2),
    ("maximal-check", ("--complex", "--family"), 1, 2),
    ("enumerate", ("--complex",), 2, 0),        # a guard refusal
    ("homology", ("--complex",), 3, 0),         # a malformed file
    ("verify", ("--complex", "--family"), 3, 0),  # the second one malformed
])
def test_inputs_are_hashed_for_the_report_alone(capsys, tmp_path, monkeypatch,
                                               command, flags, code, hashed):
    X, L = fixture("hex-squares-combined")
    docs = {"--complex": complex_to_dict(X),
            "--family": family_to_dict(family_of(L)),
            "--labelling": labelling_to_dict(L)}
    if code == 2:
        docs["--complex"] = complex_to_dict(polygon_complex(16))
    argv = [command]
    for i, flag in enumerate(flags):
        path = write_doc(tmp_path, f"{i}.json", docs[flag])
        if code == 3 and i == len(flags) - 1:
            Path(path).write_text("this is not json")
        argv += [flag, path]
    calls = []

    def counting_sha256(raw):
        calls.append(raw)
        return hashlib.sha256(raw)

    monkeypatch.setattr(cli, "sha256", counting_sha256)
    got, out, err = run(capsys, *argv)
    assert got == code and len(calls) == hashed
    if hashed:
        assert calls == [Path(p).read_bytes() for p in argv[2::2]]
        assert [i["sha256"] for i in out["inputs"]] == [
            hashlib.sha256(raw).hexdigest() for raw in calls]
    else:
        assert out is None and err["error"]["type"] in ("guard",
                                                        "SerializationError")


def test_a_call_builds_the_parser_of_its_subcommand_alone(tmp_path):
    # a fresh process, so no other test's parser is in the cache
    cx = write_doc(tmp_path, "pent.json", complex_to_dict(polygon_complex(5)))
    probe = (
        "import contextlib, io, sys\n"
        "from cellres import cli\n"
        "built, init = [], cli._Parser.__init__\n"
        "cli._Parser.__init__ = lambda self, *a, **k: ("
        "built.append(self), init(self, *a, **k))[1]\n"
        "argv, runs = ['enumerate', '--complex', sys.argv[1]], []\n"
        "for _ in range(2):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        runs.append((cli.main(argv), len(built)))\n"
        "print(runs, [p.prog for p in built],\n"
        "      [a.dest for a in built[0]._actions],\n"
        "      cli._build_parser.cache_info().misses)")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", probe, cx], env=env,
                          capture_output=True, text=True, check=True)
    # one parser, holding the subcommand's options and no subparsers, built
    # by the first call only
    assert done.stdout.strip() == (
        "[(0, 1), (0, 1)] ['cellres enumerate'] "
        "['help', 'field', 'timing', 'complex_file', 'maximal', 'symmetry', "
        "'max_candidates', 'jobs'] 1")


class _WholeArgv:
    """Stands in for a parser of one subcommand: hands the full tree the
    subcommand's name and the arguments after it, the whole argv."""

    def __init__(self, full, named):
        self.full, self.named = full, list(named)

    def parse_args(self, rest):
        return self.full.parse_args(self.named + list(rest))


@pytest.mark.parametrize("argv", list(usage_commands()), ids=usage_key)
def test_a_subcommand_alone_parses_as_in_the_full_tree(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    alone = run_usage(argv)
    full = cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser",
                        lambda *named: _WholeArgv(full, named))
    assert run_usage(argv) == alone
