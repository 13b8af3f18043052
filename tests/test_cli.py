"""CLI behaviour: exit codes, determinism, report shapes."""

import contextlib
import io
import json
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from oracles import diagram_text, empty_circle, sweep_cost, wheel_on_circle
from weightsys import asymptotics, characters, evaluation
from weightsys.cli import ALPHA1_K_LIMIT, OPTIONS, SYMBOLIC_K_LIMIT, main
from weightsys.diagrams import chi_bar, chord_diagram_from_word, insert_at_vertex, triangle, wheel
from weightsys.evaluation import SchurCheckError
from weightsys.scalars import CostBoundError
from weightsys.superalgebras import d21


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


@pytest.mark.parametrize("argv", [
    ["--command", "validate"],
    ["--command", "certify", "--k", "4", "--q", "e2"],
])
def test_a_command_reads_the_factors_of_P_once(capsys, monkeypatch, argv):
    # build_P, chi0_image_test and vanishing_table share one reading
    calls = []
    read = characters.p_factors
    monkeypatch.setattr(characters, "p_factors", lambda: calls.append(1) or read())
    assert run(capsys, *argv, "--format", "json")[0] == 0
    assert len(calls) == 1


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
    "sl; -2; 2; N",
    "sl; -2; 2; N; x",
])
def test_validate_reports_an_unreadable_table(tmp_path, capsys, row):
    bad = tmp_path / "bad.txt"
    bad.write_text(row + "\n")
    code, out = run(capsys, "--command", "validate", "--format", "json",
                    "--table", str(bad))
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "fail" and report["table_error"]
    # a row's error names the file and the line
    assert ("bad.txt:1: " in report["table_error"]) == (not row.startswith("#"))


def test_leading_table(capsys):
    code, out = run(capsys, "--command", "leading", "--k", "10", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["k"] for r in rows] == [2, 4, 6, 8, 10]
    assert all(r["match"] for r in rows)
    assert rows[0]["computed"] == "0"
    assert rows[1]["computed"] == "1728"


@pytest.mark.parametrize("mode, limit", [(None, ALPHA1_K_LIMIT), ("symbolic", SYMBOLIC_K_LIMIT)])
def test_leading_refuses_k_above_its_bound_before_any_work(capsys, monkeypatch, mode, limit):
    def must_not_run(*args, **kwargs):
        raise AssertionError("leading ran past its bound")

    monkeypatch.setattr(asymptotics, "_root_pairings", must_not_run)
    argv = ["--command", "leading", "--k", str(limit + 2)] + (["--mode", mode] if mode else [])
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"error: --k {limit + 2} exceeds the {mode or 'alpha1'} bound {limit}\n"


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


def test_text_format_marks_nested_list_items(capsys):
    # the default format: a list of [root, multiplicity] pairs in a dict
    code, out = run(capsys, "--command", "certify", "--k", "4", "--q", "1")
    assert code == 0
    assert "\n    rational_roots:\n      - - -2\n        - 2\n      - - -1\n        - 3\n" in out
    assert out.startswith("certified: True\ncharacter_level:\n  PQ_degree: 15\n")


def test_certify_k2_reports_caveat(capsys):
    code, out = run(capsys, "--command", "certify", "--k", "2", "--q", "1",
                    "--format", "json")
    assert code == 0
    bundle = json.loads(out)
    assert bundle["certified"] is False
    assert "caveat" in bundle
    assert bundle["wheel_side"]["n0"] is None


def test_certify_rejects_t_divisible_Q(capsys):
    # a homogeneous Q of degree 1 is c * e1, which is divisible by t
    for q in ("t*e2", "e1", "3*e1"):
        assert main(["--command", "certify", "--k", "4", "--q", q]) == 2
        assert capsys.readouterr().err == "error: Q must not be divisible by t\n"


@pytest.mark.parametrize("q", ["0", "2*e2-2*e2"])
def test_certify_rejects_a_zero_Q_as_zero(capsys, q):
    # zero is divisible by t too, but that is not what is wrong with it
    assert main(["--command", "certify", "--k", "4", "--q", q]) == 2
    assert capsys.readouterr().err == "error: Q must be nonzero\n"


def test_eval_bare_circle(tmp_path, capsys):
    f = tmp_path / "circle.txt"
    f.write_text(diagram_text(empty_circle()))
    code, out = run(capsys, "--command", "eval", "--diagram", str(f),
                    "--algebra", "sl2", "--weight", "adjoint", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "1"


def test_eval_single_chord_matches_validation_constant(tmp_path, capsys):
    f = tmp_path / "chord.txt"
    f.write_text(diagram_text(chord_diagram_from_word([(0, 1)], 2)))
    code, out = run(capsys, "--command", "eval", "--diagram", str(f),
                    "--algebra", "sl2", "--mode", "statesum", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "4"


def test_eval_symbolic_polynomial_output(tmp_path, capsys):
    f = tmp_path / "chord.txt"
    f.write_text(diagram_text(chord_diagram_from_word([(0, 1)], 2)))
    code, out = run(capsys, "--command", "eval", "--diagram", str(f),
                    "--algebra", "d21", "--weight", "3,1,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "4*n^2*alpha + 4*n^2 - 4*n*alpha - 4*n"
    # the glued 2-wheel evaluates to the zero polynomial on this family
    g = tmp_path / "t2.txt"
    g.write_text(diagram_text(wheel_on_circle(2)))
    code, out = run(capsys, "--command", "eval", "--diagram", str(g),
                    "--algebra", "d21", "--weight", "3,1,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "0"


def test_eval_cost_guard(tmp_path, capsys):
    f = tmp_path / "big.txt"
    f.write_text(diagram_text(wheel_on_circle(8)))
    code, _ = run(capsys, "--command", "eval", "--diagram", str(f),
                  "--algebra", "d21", "--max-degree", "6")
    assert code == 3


def test_eval_sweep_cost_bound(tmp_path, capsys):
    # six pairwise crossing chords plan 51,292,332 on d21's 17 Casimir terms
    # and 2,184 on sl2's 3; the bound applies before any sweep
    cross6 = chord_diagram_from_word([(i, i + 6) for i in range(6)], 12)
    assert sweep_cost(cross6, d21()) == 51292332
    f = tmp_path / "cross6.txt"
    f.write_text(diagram_text(cross6))
    code = main(["--command", "eval", "--diagram", str(f), "--algebra", "d21"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    code, out = run(capsys, "--command", "eval", "--diagram", str(f),
                    "--algebra", "sl2", "--mode", "statesum", "--format", "json")
    assert code == 0 and json.loads(out)["value"]
    # the glued 4-wheel peaks at 20,264 over its chord diagrams
    assert sweep_cost(wheel_on_circle(4), d21()) == 20264 < evaluation.EVAL_SWEEP_LIMIT


def test_sweep_cost_plans_a_contraction_by_its_leg_trie(monkeypatch):
    # a diagram with more trivalent vertices than legs is contracted: its
    # plan is the leg trie, one branch per basis element at each of its
    # four legs, found with no STU reduction
    (tri, c), = list(insert_at_vertex(wheel(4), 0, triangle()))
    glued = next(iter(chi_bar(tri, c)))[0]

    def refuse(*args):
        raise AssertionError("STU ran")

    monkeypatch.setattr(evaluation, "chord_reduce", refuse)
    assert sweep_cost(glued, d21()) == 17 + 17 ** 2 + 17 ** 3 + 17 ** 4 == 88740


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
    # D(2,1,alpha) degenerates there: d21 refuses, and main maps its ValueError
    (ONE_CHORD, "--command eval --algebra d21 --alpha 0"),
    (ONE_CHORD, "--command eval --algebra d21 --alpha=-1"),
    (ONE_CHORD, "--command leading --k 7"),
    (ONE_CHORD, "--command eval --algebra sl2 --max-degree -1"),
    (ONE_CHORD, "--command eval --algebra sl2 --mode foo"),
    (ONE_CHORD, "--command leading --k 2 --mode foo"),
    (ONE_CHORD, "--command certify --k 2 --mode foo"),
    (ONE_CHORD, "--command certify --k 4 --mode character"),
    (ONE_CHORD, "--command validate --mode full"),
    (ONE_CHORD, "--command certify --k 4 --q 1/0"),
    (ONE_CHORD, "--command certify --k 4 --q 0"),
    (ONE_CHORD, "--command certify --k 4 --q 2*e2-2*e2"),
    (ONE_CHORD, "--command certify --k 4 --table /nonexistent/table.txt"),
    (ONE_CHORD, "--command certify --k 4 --table /dev/null"),
    (ONE_CHORD, "--command eval --algebra d21 --alpha 2,3"),
    (ONE_CHORD, "--command certify --k 4 --format csv"),
    (ONE_CHORD, "--command certify --k 4 --q e2+e3"),
    ("vertices 2 0\nedge 0 3\nedge 1 4\nedge 2 5\nskeleton empty\n", "--command eval --algebra sl2"),
    # no diagram file: eval without --diagram
    (None, "--command eval --algebra sl2"),
])
def test_malformed_input_is_a_one_line_usage_error(tmp_path, capsys, text, args):
    argv = args.split()
    if text is not None and argv[1] == "eval":
        f = tmp_path / "diagram.txt"
        f.write_text(text)
        argv += ["--diagram", str(f)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


def test_a_value_that_starts_with_a_minus_sign_follows_an_equals_sign(tmp_path, capsys):
    """argparse reads a word that starts with '-' and is not a plain
    negative number as an option, so a negative fractional alpha, or a Q
    that starts with '-', is given as --alpha=-1/2 or --q=-e2."""
    f = tmp_path / "chord.txt"
    f.write_text(ONE_CHORD)
    code, out = run(capsys, "--command", "eval", "--diagram", str(f), "--algebra", "d21",
                    "--alpha=-1/2", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "2*n^2 - 2*n"
    code, out = run(capsys, "--command", "certify", "--k", "4", "--q=-e2", "--format", "json")
    assert code == 0
    assert json.loads(out)["certified"] is True


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
    # a 54-bit coefficient: its alpha polynomial has large end coefficients
    (["--command", "certify", "--k", "4", "--q", "10000000000000061*e2^3+e3^2"], 0),
    # an option the command would ignore is refused
    (["--command", "eval", "--algebra", "sl2", "--alpha", "2"], 2),
    (["--command", "eval", "--mode", "statesum", "--weight", "3,1,1"], 2),
    (["--command", "leading", "--k", "4", "--alpha", "2"], 2),
    (["--command", "certify", "--k", "4", "--diagram", "/nonexistent", "--weight", "9,9,9"], 2),
    (["--command", "validate", "--k", "99", "--q", "e2"], 2),
])
def test_zero_and_empty_values_are_not_replaced_by_defaults(tmp_path, capsys, argv, want):
    f = tmp_path / "diagram.txt"
    f.write_text(ONE_CHORD)
    code = main(argv + (["--diagram", str(f)] if argv[1] == "eval" else []))
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
    # the last --k wins: above the full-mode bound, and odd
    (["--k", "8"], 3),
    (["--k", "9"], 2),
])
def test_certify_full_checks_q_and_table_before_the_wheel_side(capsys, monkeypatch, argv, want):
    def must_not_run(k):
        raise AssertionError("find_n0 ran before --k, --q and --table were checked")

    monkeypatch.setattr(asymptotics, "find_n0", must_not_run)
    code = main(["--command", "certify", "--k", "4", "--mode", "full"] + argv)
    captured = capsys.readouterr()
    assert code == want
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["--command", "eval", "--algebra", "sl2", "--diagram"],
    ["--command", "validate", "--table"],
    ["--command", "certify", "--k", "4", "--table"],
])
def test_out_naming_the_input_file_is_refused(tmp_path, capsys, argv):
    given = (ONE_CHORD if argv[1] == "eval" else characters.DEFAULT_TABLE.read_text()).encode()
    f = tmp_path / "input.txt"
    f.write_bytes(given)
    # the same file under another spelling
    code = main(argv + [str(f), "--out", f"{tmp_path}/./input.txt"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert f.read_bytes() == given


@pytest.mark.parametrize("raised, want", [
    (ValueError("an odd square"), 2),
    (CostBoundError("a plan above the bound"), 3),
    # an AssertionError marks a fault in the program, not bad input
    (SchurCheckError("not a scalar"), None),
])
def test_main_maps_an_error_inside_the_evaluation_to_its_exit_code(tmp_path, capsys, monkeypatch,
                                                                   raised, want):
    def fail(*args):
        raise raised

    monkeypatch.setattr(evaluation, "eval_verma", fail)
    f = tmp_path / "chord.txt"
    f.write_text(ONE_CHORD)
    argv = ["--command", "eval", "--algebra", "sl2", "--diagram", str(f)]
    if want is None:
        with pytest.raises(SchurCheckError):
            main(argv)
        return
    assert main(argv) == want
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {raised}\n"


@pytest.mark.parametrize("argv, want", [
    (["--command", "leading", "--k", "6", "--format", "json"], 0),
    # a failed check writes its report too: the table row names the wrong factor
    (["--command", "validate", "--table", "BAD_TABLE"], 1),
], ids=["leading", "failing_validate"])
def test_out_writes_the_stdout_bytes(tmp_path, capsys, argv, want):
    bad = tmp_path / "bad.txt"
    bad.write_text("sl; -2; 2; N; 4\n")
    argv = [str(bad) if a == "BAD_TABLE" else a for a in argv]
    code, out = run(capsys, *argv)
    dest = tmp_path / "report.json"
    assert main(argv + ["--out", str(dest)]) == code == want
    assert capsys.readouterr().out == ""
    assert dest.read_text() == out


def test_a_refused_run_creates_no_file_behind_a_dangling_link(tmp_path, capsys):
    # the --out check opens the link's target: a refused run removes the
    # target it created and keeps the link, and a report is written through it
    link, target = tmp_path / "link.txt", tmp_path / "target.txt"
    link.symlink_to(target)
    assert main(["--command", "leading", "--k", "7", "--out", str(link)]) == 2
    assert link.is_symlink() and not target.exists()
    assert main(["--command", "leading", "--k", "6", "--out", str(link)]) == 0
    assert target.read_text() == run(capsys, "--command", "leading", "--k", "6")[1]


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


@pytest.mark.parametrize("argv", [["leading", "--k=--"],
                                  ["eval", "--algebra", "sl2", "--max-degree=--"]])
def test_a_double_dash_value_is_a_usage_error(argv, tmp_path, capsys):
    # argparse hands "--opt=--" over as an empty list, not as a value
    f = tmp_path / "chord.txt"
    f.write_text(ONE_CHORD)
    extra = ["--diagram", str(f)] if argv[0] == "eval" else []
    assert main(["--command", *argv, *extra]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.endswith("expected one argument\n")


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
    argv = ["--command", *command] + (["--diagram", one_chord_file] if command[0] == "eval" else [])
    unread = False
    for dest, value in (("weight", weight), ("alpha", alpha),
                        ("max_degree", max_degree), ("k", k)):
        if value is not None:
            argv.append(f"--{dest.replace('_', '-')}={value}")
            unread = unread or dest not in OPTIONS[command[0]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if unread:
        assert code == 2
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
