"""Report bytes are pinned: the twelve well-formed commands of the benchmark's
cli-certify workload, and certify for a product, a mixed sum and a large
literal Q, print exactly the stdout stored under tests/golden/ and exit with
the stored code.

A change that is meant to alter a report regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and the diff of tests/golden/ shows what changed.
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
    "eval_sl2_verma": ["--command", "eval", "--diagram", "WHEEL4", "--algebra", "sl2",
                       "--weight", "2"] + JSON,
    "eval_d21_alpha2": ["--command", "eval", "--diagram", "WHEEL4", "--algebra", "d21",
                        "--alpha", "2", "--weight", "3,1,1"] + JSON,
}


def run(name, workdir):
    """(exit code, stdout, stderr) of one command, run in this process."""
    wheel = Path(workdir) / "wheel4.txt"
    wheel.write_text(WHEEL4_TEXT)
    argv = [str(wheel) if a == "WHEEL4" else a for a in COMMANDS[name]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", list(COMMANDS))
def test_report_bytes_match_the_golden_file(name, tmp_path):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    code, out, err = run(name, tmp_path)
    assert err == ""
    assert code == codes[name]
    assert out == (GOLDEN / f"{name}.out").read_text()


if __name__ == "__main__":
    codes = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name in COMMANDS:
            code, out, err = run(name, workdir)
            if err:
                sys.exit(f"{name} wrote to stderr: {err}")
            codes[name] = code
            (GOLDEN / f"{name}.out").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
