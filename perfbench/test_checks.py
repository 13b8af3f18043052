"""Each output checker accepts a correct result and rejects a corrupted one.

Run from the repository root:  python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent


def fmt(coeffs, var):
    """Ascending coefficient list as the program prints a polynomial."""
    parts = [f"{c}*{var}^{i}" for i, c in enumerate(coeffs) if c]
    return " + ".join(parts).replace("+ -", "- ") or "0"


# --------------------------------------------------------------- leading


def leading_report(kmax):
    rows = [{"k": k, "computed": str(checks.closed_form(k)),
             "closed_form": str(checks.closed_form(k)), "match": True, "positive": k > 2}
            for k in range(2, kmax + 1, 2)]
    return {"rows": rows, "status": "pass"}


def test_leading_accepts_closed_form():
    assert checks.check_leading(leading_report(40), 40) == []


def test_leading_rejects_changed_value():
    rep = leading_report(40)
    rep["rows"][5]["computed"] = str(int(rep["rows"][5]["computed"]) + 1)
    assert checks.check_leading(rep, 40)


def test_leading_rejects_missing_row():
    rep = leading_report(40)
    del rep["rows"][-1]
    assert checks.check_leading(rep, 40)


def test_closed_form_signs():
    assert checks.closed_form(2) == 0
    assert checks.closed_form(4) == 1728
    assert all(checks.closed_form(k) > 0 for k in range(4, 41, 2))


def test_top_d21_matches_closed_form_at_alpha_1():
    for k in range(2, 21, 2):
        assert checks.u_eval(checks.top_d21(k), 1) == checks.closed_form(k)


def symbolic_report(kmax):
    rows = []
    for k in range(2, kmax + 1, 2):
        top = checks.top_d21(k)
        rows.append({"k": k, "computed": fmt(top, "alpha") if top
                     else "0 (identically in alpha)"})
    return {"rows": rows, "status": "pass"}


def test_symbolic_leading_accepts_root_sum():
    assert checks.check_leading_symbolic(symbolic_report(12), 12) == []


def test_symbolic_leading_rejects_changed_coefficient():
    rep = symbolic_report(12)
    top = checks.top_d21(6)
    top[2] += 1
    rep["rows"][2]["computed"] = fmt(top, "alpha")
    assert checks.check_leading_symbolic(rep, 12)


# ------------------------------------------------------------ wheel values


SYM = ("n", "alpha")


def wheel4_value():
    """24 * top(alpha) n^4 plus lower-order terms in n."""
    poly = {(4, i): 24 * c for i, c in enumerate(checks.top_d21(4)) if c}
    poly[(3, 2)] = Fraction(-17)
    poly[(1, 0)] = Fraction(5, 3)
    return poly


def test_wheel_value_accepts_leading_term():
    assert checks.check_wheel_value(wheel4_value(), SYM, 4, checks.top_d21(4), True) == []


def test_wheel_value_rejects_changed_leading_coefficient():
    poly = wheel4_value()
    poly[(4, 1)] += 1
    assert checks.check_wheel_value(poly, SYM, 4, checks.top_d21(4), True)


def test_wheel_value_rejects_degree_above_bound():
    poly = wheel4_value()
    poly[(5, 0)] = Fraction(1)
    assert checks.check_wheel_value(poly, SYM, 4, checks.top_d21(4), True)


def test_zero_check_rejects_nonzero():
    assert checks.check_zero({}, "x") == []
    assert checks.check_zero({(1, 0): Fraction(1)}, "x")


def test_substitution_rejects_changed_numeric_value():
    poly = wheel4_value()
    alpha = Fraction(3, 2)
    numeric = {(e[0],): c for e, c in checks.substitute(poly, 1, alpha).items()}
    assert checks.check_substitution(poly, numeric, alpha) == []
    numeric[(3,)] += 1
    assert checks.check_substitution(poly, numeric, alpha)


def test_parse_poly_reads_printed_form():
    got = checks.parse_poly("2304*n^4*alpha^4 - 4608*n^3*alpha + n - 3/2", SYM)
    assert got == {(4, 4): 2304, (3, 1): -4608, (1, 0): 1, (0, 0): Fraction(-3, 2)}


# ------------------------------------------------------ diagram space


def test_dimensions():
    assert checks.check_dimensions([1, 2, 3, 6, 10, 19]) == []
    assert checks.check_dimensions([1, 2, 3, 6, 10]) == []
    assert checks.check_dimensions([1, 2, 3, 6, 11])


def test_agreement_rejects_changed_state_sum():
    verma = {(2,): Fraction(32), (1,): Fraction(64), (0,): Fraction(32)}
    assert checks.check_agreement(verma, Fraction(128), "w") == []
    assert checks.check_agreement(verma, Fraction(129), "w")


# sl2 with basis e, h, f: [h,e] = 2e, [h,f] = -2f, [e,f] = h; Casimir
# e f + f e + h h / 2 (trace form of the defining representation)
SL2_BRACKET = [
    [{}, {0: -2}, {1: 1}],
    [{0: 2}, {}, {2: -2}],
    [{1: -1}, {2: 2}, {}],
]
SL2_CASIMIR = [(0, 2, Fraction(1)), (2, 0, Fraction(1)), (1, 1, Fraction(1, 2))]


def test_brute_force_trace_gives_casimir_eigenvalues():
    # on the adjoint (highest weight 2) the Casimir acts by 2*4/2 = 4; two
    # disjoint chords give its square
    assert checks.brute_force_trace([(0, 1)], 3, SL2_CASIMIR, SL2_BRACKET) == 4
    assert checks.brute_force_trace([(0, 1), (2, 3)], 3, SL2_CASIMIR, SL2_BRACKET) == 16


def test_two_method_corpus_is_seeded_and_stratified():
    a, b = workloads.two_method_corpus(1), workloads.two_method_corpus(1)
    assert a == b and len(a) == 26 + 6
    sample = [[tuple(p) for p in w] for w in a[26:]]
    assert [workloads.crossings(w) for w in sample] == [0, 1, 2, 3, 4, 5]
    assert any(workloads.two_method_corpus(s)[26:] != a[26:] for s in range(2, 6))


# ---------------------------------------------------------- certificates


def test_roots_complete_with_multiplicity():
    coeffs = checks.u_mul(checks.u_pow([Fraction(-1), Fraction(1)], 2),
                          [Fraction(2), Fraction(1)])  # (x-1)^2 (x+2)
    assert checks.check_roots(coeffs, [["1", 2], ["-2", 1]], "p") == []
    assert checks.check_roots(coeffs, [["1", 1], ["-2", 1]], "p")
    assert checks.check_roots(coeffs, [["1", 2]], "p")


VANISHING = [
    {"family": "sl", "triple": ["-2", "2", "N"], "vanishing_factors": ["t-nu"]},
    {"family": "e8", "triple": ["-2", "12", "20"], "vanishing_factors": ["3*nu-2*t"]},
]


def test_vanishing_rows_accept_table():
    assert checks.check_vanishing_rows(VANISHING) == []


def test_vanishing_rows_reject_changed_triple():
    rows = copy.deepcopy(VANISHING)
    rows[1]["triple"][2] = "21"
    assert checks.check_vanishing_rows(rows)


def test_vanishing_rows_reject_wrong_factor():
    rows = copy.deepcopy(VANISHING)
    rows[0]["vanishing_factors"] = ["t-mu"]
    assert checks.check_vanishing_rows(rows)


def certify(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-m", "weightsys", "--command", "certify",
                          "--format", "json", *args],
                         capture_output=True, text=True, env=env, cwd=ROOT, check=True)
    return json.loads(out.stdout)


@pytest.fixture(scope="module")
def validator():
    schema = json.loads((ROOT / "docs" / "certificate.schema.json").read_text())
    return jsonschema.Draft202012Validator(schema)


@pytest.fixture(scope="module")
def cert_full():
    return certify("--k", "4", "--q", "e2", "--mode", "full")


@pytest.fixture(scope="module")
def cert_k2():
    return certify("--k", "2", "--q", "1", "--mode", "full")


def test_certificate_accepts_program_output(cert_full, cert_k2, validator):
    assert checks.check_certificate(cert_full, 4, 2, validator, full=True) == []
    assert checks.check_certificate(cert_k2, 2, 0, validator, full=True) == []


@pytest.mark.parametrize("corrupt", [
    lambda b: b.update(certified=not b["certified"]),
    lambda b: b.pop("kind"),
    lambda b: b.update(d=b["d"] + 1),
    lambda b: b["character_level"]["alpha_specialization"].update(
        poly=b["character_level"]["alpha_specialization"]["poly"].replace("108*", "109*", 1)),
    lambda b: b["character_level"]["alpha_specialization"]["rational_roots"].pop(),
    lambda b: b["character_level"]["vanishing_table"]["rows"][-1]["triple"].__setitem__(2, "21"),
    lambda b: b["wheel_side"].update(
        top_coefficient=b["wheel_side"]["top_coefficient"].replace("96*", "97*", 1)),
    lambda b: b["wheel_side"]["excluded_rational_alpha"].pop(0),
])
def test_certificate_rejects_corruption(cert_full, validator, corrupt):
    bad = copy.deepcopy(cert_full)
    corrupt(bad)
    assert checks.check_certificate(bad, 4, 2, validator, full=True)


def test_certificate_rejects_certified_k2(cert_k2, validator):
    bad = copy.deepcopy(cert_k2)
    bad["certified"] = True
    assert checks.check_certificate(bad, 2, 0, validator, full=True)


# ------------------------------------------------------ validate and usage


def test_validate_rejects_failed_row():
    rows = [{"algebra": a, "check": "c", "ok": True, "witness": []}
            for a in ("sl2", "d21_symbolic", "d21_alpha_2", "parameter-table")]
    assert checks.check_validate({"status": "pass", "rows": rows}) == []
    bad = copy.deepcopy(rows)
    bad[1]["ok"] = False
    assert checks.check_validate({"status": "fail", "rows": bad})
    assert checks.check_validate({"status": "pass", "rows": rows[:3]})


def test_usage_error_needs_exit_2_and_one_line():
    assert checks.check_usage_error(2, "error: bad dart\n")
    assert not checks.check_usage_error(1, "Traceback (most recent call last):\n  x\nValueError\n")
    assert not checks.check_usage_error(2, "error: a\nerror: b\n")
