"""CLI behaviour: exit codes, determinism, report shapes."""

import contextlib
import io
import json
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from weightsys import asymptotics, characters
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
    "sl; -2; 2; N^99; 5",
    "sl; -2; 2; 7^100000; 5",
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
    (["--command", "certify", "--k", "4", "--table", ""], 2),
    (["--command", "eval", "--algebra", "sl2", "--max-degree", "0"], 3),
    (["--command", "leading", "--mode", "symbolic", "--k", "10000"], 3),
    (["--command", "certify", "--k", "4", "--q", "e2^99"], 3),
    # the degree bound counts degree in lam, mu, nu: e2 counts 2, e3 counts 3
    (["--command", "certify", "--k", "4", "--q", "e2^11"], 3),
    (["--command", "certify", "--k", "4", "--q", "e3^7"], 3),
    (["--command", "certify", "--k", "4", "--q", "e2^10"], 0),
    # a literal power counts the bits of its expansion: 3 per power of 7
    (["--command", "certify", "--k", "4", "--q", "7^100000"], 3),
    (["--command", "certify", "--k", "4", "--q", "7^400"], 3),
    (["--command", "certify", "--k", "4", "--q", "7^300"], 0),
])
def test_zero_and_empty_values_are_not_replaced_by_defaults(tmp_path, capsys, argv, want):
    f = tmp_path / "diagram.txt"
    f.write_text(ONE_CHORD)
    code = main(argv + ["--diagram", str(f)])
    captured = capsys.readouterr()
    assert code == want
    if want == 0:
        assert captured.out and captured.err == ""
        return
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


def test_validate_rejects_an_empty_table_path(capsys):
    code, out = run(capsys, "--command", "validate", "--format", "json", "--table", "")
    assert code == 1
    assert json.loads(out)["table_error"] == "the family table path is empty"


@pytest.mark.parametrize("argv", [
    ["--command", "certify", "--k", "4"],
    ["--command", "leading", "--k", "4"],
])
def test_unwritable_out_fails_before_the_run(capsys, monkeypatch, argv):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the command ran before --out was opened")

    monkeypatch.setattr(characters, "build_D_element", must_not_run)
    monkeypatch.setattr(asymptotics, "closed_form_check", must_not_run)
    code = main(argv + ["--out", "/nonexistent/x.json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv, want", [
    (["--q", "e2^99"], 3),
    (["--q", "t*e2"], 2),
    (["--table", "/nonexistent"], 2),
])
def test_certify_full_checks_q_and_table_before_the_wheel_side(capsys, monkeypatch, argv, want):
    def must_not_run(k):
        raise AssertionError("find_n0 ran before --q and --table were read")

    monkeypatch.setattr(asymptotics, "find_n0", must_not_run)
    code = main(["--command", "certify", "--k", "4", "--mode", "full"] + argv)
    captured = capsys.readouterr()
    assert code == want
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


def test_out_writes_the_stdout_bytes(tmp_path, capsys):
    argv = ["--command", "leading", "--k", "6", "--format", "json"]
    code, out = run(capsys, *argv)
    dest = tmp_path / "report.json"
    assert main(argv + ["--out", str(dest)]) == code == 0
    assert capsys.readouterr().out == ""
    assert dest.read_text() == out


def test_values_longer_than_the_int_string_limit_print(tmp_path, capsys):
    f = tmp_path / "chord.txt"
    f.write_text(ONE_CHORD)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out = run(capsys, "--command", "eval", "--diagram", str(f), "--algebra", "d21",
                    "--alpha", "1e5000", "--format", "json")
    assert code == 0
    # 4*n^2*alpha + 4*n^2 - 4*n*alpha - 4*n at alpha = 10^5000
    c = "4" + "0" * 4999 + "4"
    assert json.loads(out)["value"] == f"{c}*n^2 - {c}*n"
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def _option(values):
    junk = st.text(alphabet="0123456789,/-+ .xadjoint", max_size=10)
    return st.one_of(st.none(), values, junk)


@pytest.fixture(scope="module")
def one_chord_file(tmp_path_factory):
    f = tmp_path_factory.mktemp("fuzz") / "chord.txt"
    f.write_text(ONE_CHORD)
    return str(f)


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from([["eval", "--algebra", "sl2"], ["eval", "--algebra", "d21"],
                                 ["leading"]]),
       weight=_option(st.one_of(st.just("adjoint"), st.lists(
           st.integers(-50, 50), max_size=4).map(lambda xs: ",".join(map(str, xs))))),
       alpha=_option(st.fractions(max_denominator=20).map(str)),
       max_degree=_option(st.integers(-3, 8).map(str)),
       k=_option(st.integers(-20, 60).map(str)))
def test_options_fuzz(one_chord_file, command, weight, alpha, max_degree, k):
    argv = ["--command", *command, "--diagram", one_chord_file]
    for flag, value in (("--weight", weight), ("--alpha", alpha),
                        ("--max-degree", max_degree), ("--k", k)):
        if value is not None:
            argv.append(f"{flag}={value}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert out.getvalue() and not err.getvalue()
    else:
        assert code in (2, 3)
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("error: ")


def test_deterministic_output(capsys):
    _, out1 = run(capsys, "--command", "certify", "--k", "4", "--q", "e2",
                  "--format", "json")
    _, out2 = run(capsys, "--command", "certify", "--k", "4", "--q", "e2",
                  "--format", "json")
    assert out1 == out2
