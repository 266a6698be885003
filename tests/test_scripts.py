"""The experiment scripts run end to end, in process, on small inputs."""

import importlib.util
import json
from pathlib import Path

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
