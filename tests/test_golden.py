"""Report bytes are pinned: the twelve well-formed commands of the benchmark's
cli-certify workload, and certify for a product, a mixed sum and a large
literal Q, print exactly the stdout stored under tests/golden/ and exit with
the stored code.  So do one eval above the sweep cost bound, which prints
nothing and exits 3 with one error line, one state sum of a 14-vertex
chord diagram that plans far below that bound, one state sum of a diagram
file with comment lines and blank lines, a Verma value and a state sum of
the triangle-inserted 4-wheel, whose six trivalent vertices outnumber its
four legs, so both go through a nonempty leg tensor, as does a Verma value
of the X3-inserted 4-wheel on D(2,1,2), and validate, leading and certify
in the default text format.  Each command run again with --out
naming a file that holds other bytes, or a path where there is no file,
prints nothing: the file then holds the golden bytes if the command exits
0 or 1, and is left as it was, or absent, if the command is refused.

A change that is meant to alter a report regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and the diff of tests/golden/ shows what changed.  The CI workflow, not
this module, checks the k = 6 certificate, tests/golden/certify_k6_full.out,
which is too slow for this suite; it regenerates with

    PYTHONPATH=src python -m weightsys --command certify --k 6 --q 1 --mode full \\
        --format json > tests/golden/certify_k6_full.out
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from weightsys.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# wheel_on_circle(4): four internal vertices, four legs on the circle
WHEEL4_TEXT = """vertices 4 4
edge 0 12
edge 1 5
edge 2 10
edge 3 13
edge 4 8
edge 6 14
edge 7 11
edge 9 15
skeleton 4 5 6 7
"""

# the same diagram, with comment lines and blank lines, which the parser skips
WHEEL4_NOTES_TEXT = "# wheel_on_circle(4)\n\n" + WHEEL4_TEXT.replace(
    "skeleton", "\n# the legs in circle order\nskeleton")

# the degree-6 chord diagram whose six chords cross pairwise
CROSS6_TEXT = "vertices 0 12\n" + "".join(f"edge {i} {i + 6}\n" for i in range(6)) \
    + "skeleton " + " ".join(map(str, range(12))) + "\n"

# insert_at_vertex(wheel_on_circle(4), 0, triangle()): six internal
# vertices, four legs on the circle
TRI4_TEXT = """vertices 6 4
edge 0 3
edge 1 6
edge 2 9
edge 4 7
edge 5 12
edge 8 18
edge 10 19
edge 11 16
edge 13 15
edge 14 21
edge 17 20
skeleton 6 7 8 9
"""

# the X3 piece of tests/test_characters.py inserted at vertex 0 of
# wheel_on_circle(4), written by oracles.diagram_text: ten internal
# vertices, four legs on the circle
X3W4_TEXT = """vertices 10 4
edge 0 3
edge 1 6
edge 2 12
edge 4 9
edge 5 15
edge 7 10
edge 8 18
edge 11 21
edge 13 16
edge 14 22
edge 17 30
edge 19 31
edge 20 24
edge 23 27
edge 25 32
edge 26 29
edge 28 33
skeleton 10 11 12 13
"""

# seven chords in a chain on 14 points
CHAIN7_TEXT = "vertices 0 14\n" + "".join(
    f"edge {i} {j}\n" for i, j in ((0, 2), (1, 4), (3, 6), (5, 8), (7, 10), (9, 12), (11, 13))) \
    + "skeleton " + " ".join(map(str, range(14))) + "\n"

JSON = ["--format", "json"]
COMMANDS = {
    "validate": ["--command", "validate"] + JSON,
    "leading_k40": ["--command", "leading", "--k", "40"] + JSON,
    "leading_k12_symbolic": ["--command", "leading", "--k", "12", "--mode", "symbolic"] + JSON,
    **{f"certify_k4_q{q}": ["--command", "certify", "--k", "4", "--q", q] + JSON
       for q in ("1", "e2", "e3", "e2^2")},
    "certify_k4_qe2e3": ["--command", "certify", "--k", "4", "--q", "e2*e3"] + JSON,
    "certify_k4_qe2^2-3e1e3": ["--command", "certify", "--k", "4", "--q", "e2^2-3*e1*e3"] + JSON,
    "certify_k4_q2^40": ["--command", "certify", "--k", "4", "--q", "2^40"] + JSON,
    "certify_k4_e2_full": ["--command", "certify", "--k", "4", "--q", "e2", "--mode", "full"] + JSON,
    "certify_k2_full": ["--command", "certify", "--k", "2", "--q", "1", "--mode", "full"] + JSON,
    "eval_sl2_statesum": ["--command", "eval", "--diagram", "WHEEL4", "--algebra", "sl2",
                          "--mode", "statesum"] + JSON,
    "eval_sl2_statesum_notes": ["--command", "eval", "--diagram", "WHEEL4_NOTES", "--algebra", "sl2",
                                "--mode", "statesum"] + JSON,
    "eval_sl2_verma": ["--command", "eval", "--diagram", "WHEEL4", "--algebra", "sl2",
                       "--weight", "2"] + JSON,
    "eval_d21_alpha2": ["--command", "eval", "--diagram", "WHEEL4", "--algebra", "d21",
                        "--alpha", "2", "--weight", "3,1,1"] + JSON,
    "eval_d21_cross6": ["--command", "eval", "--diagram", "CROSS6", "--algebra", "d21"] + JSON,
    "eval_sl2_verma_tri4": ["--command", "eval", "--diagram", "TRI4", "--algebra", "sl2",
                            "--weight", "2"] + JSON,
    "eval_sl2_statesum_tri4": ["--command", "eval", "--diagram", "TRI4", "--algebra", "sl2",
                               "--mode", "statesum"] + JSON,
    "eval_d21_statesum_chain7": ["--command", "eval", "--diagram", "CHAIN7", "--algebra", "d21",
                                 "--alpha", "2", "--mode", "statesum", "--max-degree", "7"] + JSON,
    "eval_d21_alpha2_x3w4": ["--command", "eval", "--diagram", "X3W4", "--algebra", "d21",
                             "--alpha", "2", "--weight", "3,1,1", "--max-degree", "7"] + JSON,
    # the default --format text
    "validate_text": ["--command", "validate"],
    "leading_k6_text": ["--command", "leading", "--k", "6"],
    "certify_k4_text": ["--command", "certify", "--k", "4"],
}


def run(name, workdir):
    """(exit code, stdout, stderr) of one command, run in this process."""
    files = {}
    for key, text in (("WHEEL4", WHEEL4_TEXT), ("WHEEL4_NOTES", WHEEL4_NOTES_TEXT),
                      ("CROSS6", CROSS6_TEXT), ("TRI4", TRI4_TEXT), ("CHAIN7", CHAIN7_TEXT),
                      ("X3W4", X3W4_TEXT)):
        files[key] = Path(workdir) / f"{key.lower()}.txt"
        files[key].write_text(text)
    argv = [str(files.get(a, a)) for a in COMMANDS[name]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", list(COMMANDS))
def test_report_bytes_match_the_golden_file(name, tmp_path):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    code, out, err = run(name, tmp_path)
    assert code == codes[name]
    assert out == (GOLDEN / f"{name}.out").read_text()
    if code == 0:
        assert err == ""
    else:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("earlier", [b"an earlier report\n", None], ids=["file", "missing"])
@pytest.mark.parametrize("name", list(COMMANDS))
def test_out_holds_the_report_or_is_left_alone(name, earlier, tmp_path, monkeypatch):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    dest = tmp_path / "report.out"
    if earlier is not None:
        dest.write_bytes(earlier)
    monkeypatch.setitem(COMMANDS, name, COMMANDS[name] + ["--out", str(dest)])
    code, out, _ = run(name, tmp_path)
    assert code == codes[name]
    assert out == ""
    # a report, passing or failing, replaces the file; a refused run leaves
    # it as it was, and creates none where there was none
    if code in (0, 1):
        assert dest.read_bytes() == (GOLDEN / f"{name}.out").read_bytes()
    elif earlier is None:
        assert not dest.exists()
    else:
        assert dest.read_bytes() == earlier


if __name__ == "__main__":
    codes = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name in COMMANDS:
            code, out, err = run(name, workdir)
            if err and not code:
                sys.exit(f"{name} wrote to stderr: {err}")
            codes[name] = code
            (GOLDEN / f"{name}.out").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
