"""The experiment scripts run end to end, in process, on small inputs."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_classify_small_cases_prints_every_table(capsys):
    script = load_script("classify_small_cases")
    assert script.main(["--max-tree-vertices", "4", "--max-polygon", "5"]) == 0
    out = capsys.readouterr().out
    assert "trees: maximal families per isomorphism class" in out
    assert "solid polygons" in out and "one-chord disks" in out
    assert ("hexagon with chords (1,5) and (3,5): "
            "26 valid families, 6 maximal") in out


def test_conjecture_evidence_emits_json_reports(capsys):
    script = load_script("conjecture_evidence")
    assert script.main(["--kind", "selfdual", "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["kind"] for r in reports] == ["selfdual"]
    assert reports[0]["holds"] is True
    assert set(reports[0]) == {"kind", "rows", "counterexamples", "holds"}


def test_conjecture_evidence_rejects_the_jobs_flag(capsys):
    script = load_script("conjecture_evidence")
    with pytest.raises(SystemExit) as exc:
        script.main(["--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


@pytest.mark.parametrize("name, argv", [
    ("conjecture_evidence", ["--kind", "variable-count"]),
    ("classify_small_cases", []),
])
def test_scripts_report_a_guard_refusal_in_one_line(name, argv, capsys):
    script = load_script(name)
    assert script.main([*argv, "--max-candidates", "5"]) == 2
    err = capsys.readouterr().err
    assert err == ("refused: more than 5 candidate sets; "
                   "raise max_candidates to proceed\n")


@pytest.mark.parametrize("name", ["conjecture_evidence",
                                  "classify_small_cases"])
def test_scripts_refuse_a_negative_candidate_bound(name, capsys):
    script = load_script(name)
    with pytest.raises(SystemExit) as exc:
        script.main(["--max-candidates", "-1"])
    assert exc.value.code == 2
    assert ("argument --max-candidates: needs an integer >= 0, got -1"
            in capsys.readouterr().err)
