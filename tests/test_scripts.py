"""The census script runs end to end, in process, on small inputs."""

import importlib.util
import json
from pathlib import Path

import pytest

from cellres.search import selfdual_report, variable_count_report
from cellres.serialize import canonical_json, report_to_dict

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_census():
    spec = importlib.util.spec_from_file_location("census",
                                                  SCRIPTS / "census.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def census_json(capsys, *argv):
    assert load_census().main([*argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_census_prints_every_kind(capsys):
    assert load_census().main(["--max-n", "6"]) == 0
    out = capsys.readouterr().out
    for title in ("trees: maximal families per isomorphism class",
                  "polygons: valid and maximal families",
                  "variable-count: maximal families should have n + k",
                  "selfdual: polytopes admitting a valid family"):
        assert title in out
    assert ("      9 members: {0} {2} {4} {0,1} {1,2} {2,3} {0,1,5} {1,2,3} "
            "{3,4,5}\n") in out
    assert "refuted by 2 counterexample(s)\n" in out
    assert out.endswith("holds on every row\n")


def test_census_trees_have_one_maximal_family_each(capsys):
    [section] = census_json(capsys, "--kind", "trees", "--max-n", "5")
    assert section == {"kind": "trees", "rows": [
        {"n": n, "classes": k, "one_maximal": k, "canonical": k, "ok": True}
        for n, k in ((2, 1), (3, 1), (4, 2), (5, 3))]}


def test_census_polygon_rows(capsys):
    [section] = census_json(capsys, "--kind", "polygons")
    rows = {(r["n"], tuple(map(tuple, r["chords"]))): r
            for r in section["rows"]}
    for n in range(3, 8):
        sizes = [n] if n % 2 else []
        assert rows[n, ()]["family_sizes"] == sizes
        assert rows[n, ()]["valid"] == rows[n, ()]["maximal_families"] == len(
            sizes)
    disks = [r for (n, chords), r in rows.items() if len(chords) == 1]
    assert len(disks) == 6
    for r in disks:
        assert r["family_sizes"] == [r["n"] + 1] * 2
    hexagon = rows[6, ((1, 5), (3, 5))]
    assert hexagon["valid"] == 26 and hexagon["maximal_families"] == 6
    assert hexagon["family_sizes"] == [9, 9, 8, 8, 8, 8]
    assert [len(F) for F in hexagon["families"]] == hexagon["family_sizes"]
    assert len(rows) == len(section["rows"]) == 12


@pytest.mark.parametrize("kind, report", [
    ("variable-count", variable_count_report),
    ("selfdual", selfdual_report),
])
def test_census_json_is_the_library_report(kind, report, capsys):
    assert load_census().main(["--kind", kind, "--json"]) == 0
    assert capsys.readouterr().out == canonical_json([report_to_dict(report())])


def test_census_json_names_every_kind(capsys):
    sections = census_json(capsys, "--max-n", "4")
    assert [s["kind"] for s in sections] == ["trees", "polygons",
                                             "variable-count", "selfdual"]


def test_census_rejects_the_jobs_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        load_census().main(["--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["polygons", "variable-count"])
def test_census_reports_a_guard_refusal_in_one_line(kind, capsys):
    assert load_census().main(["--kind", kind, "--max-candidates", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("refused: more than 5 candidate sets; "
                   "raise max_candidates to proceed\n")


@pytest.mark.parametrize("option", ["--max-candidates", "--max-n"])
def test_census_refuses_a_negative_bound(option, capsys):
    with pytest.raises(SystemExit) as exc:
        load_census().main([option, "-1"])
    assert exc.value.code == 2
    assert (f"argument {option}: needs an integer >= 0, got -1"
            in capsys.readouterr().err)
