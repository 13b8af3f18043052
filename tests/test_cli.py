"""CLI behaviour: exit codes, determinism, report shapes."""

import json
from pathlib import Path

import jsonschema
import pytest

from weightsys.cli import main
from weightsys.diagrams import chord_diagram_from_word, empty_circle, wheel_on_circle


VALIDATE_SCHEMA = {
    "type": "object",
    "required": ["command", "status", "rows"],
    "properties": {
        "command": {"const": "validate"},
        "status": {"enum": ["pass", "fail"]},
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["algebra", "check", "ok"],
                "properties": {"ok": {"type": "boolean"}},
            },
        },
    },
}

CERTIFICATE_SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "certificate.schema.json")
    .read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_passes_and_is_schema_valid(capsys):
    code, out = run(capsys, "--command", "validate", "--format", "json")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, VALIDATE_SCHEMA)
    assert report["status"] == "pass"


def test_validate_with_corrupted_table(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("sl; -2; 2; N; 4\n")  # wrong factor index recorded
    code, out = run(capsys, "--command", "validate", "--format", "json",
                    "--table", str(bad))
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "fail"
    witnesses = [r for r in report["rows"] if r["algebra"] == "parameter-table"
                 and not r["ok"]]
    assert witnesses and witnesses[0]["witness"]


@pytest.mark.parametrize("row", [
    "sl; -2; 2; 1/0; 5",
    "sl; -2; 2; 2*a*b; 5",
    "sl; -2; 2; N/2; 5",
    "sl; -2; 2; N; 99",
    "# no family rows",
])
def test_validate_reports_an_unreadable_table(tmp_path, capsys, row):
    bad = tmp_path / "bad.txt"
    bad.write_text(row + "\n")
    code, out = run(capsys, "--command", "validate", "--format", "json",
                    "--table", str(bad))
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "fail" and report["table_error"]


def test_leading_table(capsys):
    code, out = run(capsys, "--command", "leading", "--k", "10", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["k"] for r in rows] == [2, 4, 6, 8, 10]
    assert all(r["match"] for r in rows)
    assert rows[0]["computed"] == "0"
    assert rows[1]["computed"] == "1728"


def test_leading_symbolic_mode(capsys):
    code, out = run(capsys, "--command", "leading", "--k", "2", "--mode",
                    "symbolic", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["computed"] == "0 (identically in alpha)"


def test_certify_k4(capsys):
    code, out = run(capsys, "--command", "certify", "--k", "4", "--q", "1",
                    "--format", "json")
    assert code == 0
    bundle = json.loads(out)
    jsonschema.validate(bundle, CERTIFICATE_SCHEMA)
    assert bundle["d"] == 15
    assert bundle["certified"] is True
    assert "0" in bundle["excluded_alpha_values"]
    assert "-1" in bundle["excluded_alpha_values"]


def test_certify_k2_reports_caveat(capsys):
    code, out = run(capsys, "--command", "certify", "--k", "2", "--q", "1",
                    "--format", "json")
    assert code == 0
    bundle = json.loads(out)
    assert bundle["certified"] is False
    assert "caveat" in bundle
    assert bundle["wheel_side"]["n0"] is None


def test_certify_rejects_t_divisible_Q(capsys):
    code, _ = run(capsys, "--command", "certify", "--k", "4", "--q", "t*e2")
    assert code == 2


def test_eval_bare_circle(tmp_path, capsys):
    f = tmp_path / "circle.txt"
    f.write_text(empty_circle().to_text())
    code, out = run(capsys, "--command", "eval", "--diagram", str(f),
                    "--algebra", "sl2", "--weight", "adjoint", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "1"


def test_eval_single_chord_matches_validation_constant(tmp_path, capsys):
    f = tmp_path / "chord.txt"
    f.write_text(chord_diagram_from_word([(0, 1)], 2).to_text())
    code, out = run(capsys, "--command", "eval", "--diagram", str(f),
                    "--algebra", "sl2", "--mode", "statesum", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "4"


def test_eval_symbolic_polynomial_output(tmp_path, capsys):
    f = tmp_path / "chord.txt"
    f.write_text(chord_diagram_from_word([(0, 1)], 2).to_text())
    code, out = run(capsys, "--command", "eval", "--diagram", str(f),
                    "--algebra", "d21", "--weight", "3,1,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "4*n^2*alpha + 4*n^2 - 4*n*alpha - 4*n"
    # the glued 2-wheel evaluates to the zero polynomial on this family
    g = tmp_path / "t2.txt"
    g.write_text(wheel_on_circle(2).to_text())
    code, out = run(capsys, "--command", "eval", "--diagram", str(g),
                    "--algebra", "d21", "--weight", "3,1,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "0"


def test_eval_cost_guard(tmp_path, capsys):
    f = tmp_path / "big.txt"
    f.write_text(wheel_on_circle(8).to_text())
    code, _ = run(capsys, "--command", "eval", "--diagram", str(f),
                  "--algebra", "d21", "--max-degree", "6")
    assert code == 3


def test_alpha_guard(capsys):
    code, _ = run(capsys, "--command", "leading", "--alpha", "0")
    assert code == 2


ONE_CHORD = "vertices 0 2\nedge 0 1\nskeleton 0 1\n"


@pytest.mark.parametrize("text, args", [
    ("vertices 0 2\nedge 0 x\nskeleton 0 1\n", "--command eval --algebra sl2 --mode statesum"),
    ("vertices 0 2\nedge 0 9\nskeleton 0 1\n", "--command eval --algebra sl2 --mode statesum"),
    ("vertices 0 2\nedge 0 1\nskeleton none\n", "--command eval --algebra sl2"),
    (ONE_CHORD, "--command eval --algebra d21 --weight 3,1"),
    (ONE_CHORD, "--command eval --algebra sl2 --weight 3,1"),
    (ONE_CHORD, "--command eval --algebra d21 --alpha x"),
    (ONE_CHORD, "--command leading --k 7"),
    (ONE_CHORD, "--command eval --algebra sl2 --mode foo"),
    (ONE_CHORD, "--command leading --k 2 --mode foo"),
    (ONE_CHORD, "--command certify --k 2 --mode foo"),
    (ONE_CHORD, "--command validate --mode full"),
    (ONE_CHORD, "--command certify --k 4 --q 1/0"),
    (ONE_CHORD, "--command certify --k 4 --table /nonexistent/table.txt"),
    (ONE_CHORD, "--command certify --k 4 --table /dev/null"),
    (ONE_CHORD, "--command eval --algebra d21 --alpha 2,3"),
    (ONE_CHORD, "--command certify --k 4 --format csv"),
])
def test_malformed_input_is_a_one_line_usage_error(tmp_path, capsys, text, args):
    f = tmp_path / "diagram.txt"
    f.write_text(text)
    code = main(args.split() + ["--diagram", str(f)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv, want", [
    (["--command", "certify", "--k", "0"], 2),
    (["--command", "certify", "--q", ""], 2),
    (["--command", "eval", "--algebra", "sl2", "--max-degree", "0"], 3),
])
def test_zero_and_empty_values_are_not_replaced_by_defaults(tmp_path, capsys, argv, want):
    f = tmp_path / "diagram.txt"
    f.write_text(ONE_CHORD)
    code = main(argv + ["--diagram", str(f)])
    captured = capsys.readouterr()
    assert code == want
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


def test_deterministic_output(capsys):
    _, out1 = run(capsys, "--command", "certify", "--k", "4", "--q", "e2",
                  "--format", "json")
    _, out2 = run(capsys, "--command", "certify", "--k", "4", "--q", "e2",
                  "--format", "json")
    assert out1 == out2
