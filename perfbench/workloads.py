"""The benchmark's workloads: their operations, generated inputs, checks and
the end-to-end metrics each one reports besides setup_s, wall_s and
peak_rss_mib.

An operation is one child process.  ``cli`` operations run the installed
command line (``python -m weightsys``); the others run perfbench/child.py.
"""

from __future__ import annotations

import itertools
import json
import random
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks

# rational alpha for the univariate sweep; avoids 0 and -1
ALPHAS = ("1/2", "1/3", "3/2", "2/3", "3", "-3", "-1/3", "-3/2")

SETUP_SPEC = {"op": "setup", "algebras": ["sl2", "d21", "d21:2"]}

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
BAD_TOKEN_TEXT = WHEEL4_TEXT.replace("edge 0 12", "edge 0 x")
BAD_DART_TEXT = "vertices 0 2\nedge 0 9\nskeleton 0 1\n"


@dataclass
class Op:
    name: str
    spec: dict                 # child spec; for cli ops {"op": "cli", "argv": [...]}
    usage_error: bool = False  # a malformed input: must exit 2 with one line


@dataclass
class Workload:
    name: str
    ops: list
    check: object              # results by op name -> list of errors
    metrics: object            # results by op name -> {name: seconds}
    inputs: dict = field(default_factory=dict)


# ------------------------------------------------------------- chord words


def chord_words(m):
    """Chord diagrams with m chords: matchings of 2m circle points up to
    rotation, each as its rotation-least sorted list of chords."""
    n = 2 * m
    seen = set()

    def matchings(points):
        if not points:
            yield []
            return
        a = points[0]
        for i in range(1, len(points)):
            for rest in matchings(points[1:i] + points[i + 1:]):
                yield [(a, points[i])] + rest

    for pairs in matchings(list(range(n))):
        seen.add(min(tuple(sorted(tuple(sorted(((a - r) % n, (b - r) % n))) for a, b in pairs))
                     for r in range(n)))
    return sorted(seen)


def crossings(word):
    return sum(1 for (a, b), (c, d) in itertools.combinations(word, 2)
               if a < c < b < d or c < a < d < b)


def two_method_corpus(seed):
    """Every chord diagram of degree <= 4, then one degree-5 diagram of each
    crossing number 0..5 picked by the seed.  Per-diagram cost on D(2,1,2)
    grows steeply with crossings (about 50 s for the ten-crossing one), so
    one pick per class keeps a run's work the same for every seed."""
    counts = [len(chord_words(m)) for m in (1, 2, 3, 4, 5)]
    if counts != [1, 2, 5, 18, 105]:
        raise RuntimeError(f"chord diagram counts {counts}")
    corpus = [w for m in (1, 2, 3, 4) for w in chord_words(m)]
    rng = random.Random(seed)
    deg5 = chord_words(5)
    for c in range(6):
        corpus.append(rng.choice([w for w in deg5 if crossings(w) == c]))
    return [[list(p) for p in w] for w in corpus]


# ---------------------------------------------------------------- helpers


def _cli(*argv):
    return {"op": "cli", "argv": list(argv)}


def _json_out(res):
    return json.loads(res["stdout"])


def _poly(res, key, vars):
    return checks.poly_from_terms(res["result"][key], vars)


# ---------------------------------------------------------------- cli-certify


CERTIFY_Q = (("1", 0), ("e2", 2), ("e3", 3), ("e2^2", 4))


def cli_certify(seed, root, workdir):
    wheel = workdir / "wheel4.txt"
    bad_token = workdir / "bad_token.txt"
    bad_dart = workdir / "bad_dart.txt"
    files = {wheel: WHEEL4_TEXT, bad_token: BAD_TOKEN_TEXT, bad_dart: BAD_DART_TEXT}
    for path, text in files.items():
        path.write_text(text)
    w, bt, bd = str(wheel), str(bad_token), str(bad_dart)
    js = ("--format", "json")
    ops = [
        Op("validate", _cli("--command", "validate", *js)),
        Op("leading_k40", _cli("--command", "leading", "--k", "40", *js)),
        Op("leading_k12_symbolic",
           _cli("--command", "leading", "--k", "12", "--mode", "symbolic", *js)),
    ]
    ops += [Op(f"certify_k4_q{q}", _cli("--command", "certify", "--k", "4", "--q", q, *js))
            for q, _ in CERTIFY_Q]
    ops += [
        Op("certify_k4_e2_full",
           _cli("--command", "certify", "--k", "4", "--q", "e2", "--mode", "full", *js)),
        Op("certify_k2_full",
           _cli("--command", "certify", "--k", "2", "--q", "1", "--mode", "full", *js)),
        Op("eval_sl2_statesum", _cli("--command", "eval", "--diagram", w, "--algebra", "sl2",
                                     "--mode", "statesum", *js)),
        Op("eval_sl2_verma", _cli("--command", "eval", "--diagram", w, "--algebra", "sl2",
                                  "--weight", "2", *js)),
        Op("eval_d21_alpha2", _cli("--command", "eval", "--diagram", w, "--algebra", "d21",
                                   "--alpha", "2", "--weight", "3,1,1", *js)),
        Op("bad_dart_token", _cli("--command", "eval", "--diagram", bt, "--algebra", "sl2",
                                  "--mode", "statesum"), usage_error=True),
        Op("bad_dart_range", _cli("--command", "eval", "--diagram", bd, "--algebra", "sl2",
                                  "--mode", "statesum"), usage_error=True),
        Op("bad_weight", _cli("--command", "eval", "--diagram", w, "--algebra", "d21",
                              "--weight", "3,1"), usage_error=True),
        Op("bad_alpha", _cli("--command", "eval", "--diagram", w, "--algebra", "d21",
                             "--alpha", "x"), usage_error=True),
    ]
    schema_path = root / "docs" / "certificate.schema.json"

    def check(res):
        import jsonschema

        validator = jsonschema.Draft202012Validator(json.loads(schema_path.read_text()))
        errs = checks.check_validate(_json_out(res["validate"]))
        errs += checks.check_leading(_json_out(res["leading_k40"]), 40)
        errs += checks.check_leading_symbolic(_json_out(res["leading_k12_symbolic"]), 12)
        for q, deg in CERTIFY_Q:
            errs += checks.check_certificate(_json_out(res[f"certify_k4_q{q}"]), 4, deg,
                                             validator, full=False)
        errs += checks.check_certificate(_json_out(res["certify_k4_e2_full"]), 4, 2,
                                         validator, full=True)
        errs += checks.check_certificate(_json_out(res["certify_k2_full"]), 2, 0,
                                         validator, full=True)
        value = {name: _json_out(res[name])["value"]
                 for name in ("eval_sl2_statesum", "eval_sl2_verma", "eval_d21_alpha2")}
        sl2 = checks.parse_poly(value["eval_sl2_verma"], ("n",))
        errs += checks.check_wheel_value(sl2, ("n",), 4, 2 * 2 ** 4, symmetrized=False)
        errs += checks.check_agreement(sl2, Fraction(value["eval_sl2_statesum"]), "eval sl2")
        d21 = checks.parse_poly(value["eval_d21_alpha2"], ("n",))
        errs += checks.check_wheel_value(d21, ("n",), 4, checks.u_eval(checks.top_d21(4), 2),
                                         symmetrized=False)
        return errs

    def metrics(res):
        return {"validate_s": res["validate"]["wall_s"],
                "certify_s": statistics.median(res[f"certify_k4_q{q}"]["wall_s"]
                                               for q, _ in CERTIFY_Q),
                "certify_full_s": res["certify_k4_e2_full"]["wall_s"]}

    return Workload("cli-certify", ops, check, metrics)


# ------------------------------------------------------------- verma-symbolic


def verma_symbolic(seed, root, workdir):
    alpha = random.Random(seed).choice(ALPHAS)
    w = [3, 1, 1]
    ops = [
        Op("wheel4_sym", {"op": "verma", "diagram": "wheel4", "algebras": ["d21"], "weight": w}),
        Op("tri_wheel4_sym",
           {"op": "verma", "diagram": "tri_wheel4", "algebras": ["d21"], "weight": w}),
        Op("tri_wheel4_num",
           {"op": "verma", "diagram": "tri_wheel4", "algebras": [f"d21:{alpha}"], "weight": w}),
        Op("wheel4_num",
           {"op": "verma", "diagram": "wheel4", "algebras": [f"d21:{alpha}"], "weight": w}),
    ]
    sym, num = ("n", "alpha"), ("n",)

    def check(res):
        w4 = _poly(res["wheel4_sym"], "value", sym)
        errs = checks.check_wheel_value(w4, sym, 4, checks.top_d21(4), symmetrized=True)
        at1 = checks.substitute(checks.coefficient_in(w4, 0, 4), 1, 1)
        if at1.get((0, 0)) != 24 * 1728:
            errs.append(f"n^4 coefficient at alpha = 1 is {at1}, not 41472")
        tri = _poly(res["tri_wheel4_sym"], "value", sym)
        errs += checks.check_zero(tri, "symbolic triangle-inserted 4-wheel")
        tri_num = _poly(res["tri_wheel4_num"], "value", num)
        errs += checks.check_zero(tri_num, f"triangle-inserted 4-wheel at alpha={alpha}")
        errs += checks.check_substitution(tri, tri_num, Fraction(alpha))
        w4_num = _poly(res["wheel4_num"], "value", num)
        errs += checks.check_substitution(w4, w4_num, Fraction(alpha))
        return errs

    def metrics(res):
        return {"wheel4_sym_s": res["wheel4_sym"]["op_s"],
                "tri_wheel4_sym_s": res["tri_wheel4_sym"]["op_s"],
                "tri_wheel4_num_s": res["tri_wheel4_num"]["op_s"]}

    return Workload("verma-symbolic", ops, check, metrics, {"alpha": alpha})


# -------------------------------------------------------------- diagram-space


def diagram_space(seed, root, workdir):
    corpus = two_method_corpus(seed)
    ops = [
        Op("wheel6", {"op": "wheel6", "algebras": ["sl2"]}),
        Op("dim_stu", {"op": "dims", "oracle": "dim_A_by_stu", "max_m": 6}),
        Op("dim_4t", {"op": "dims", "oracle": "dim_A_by_four_term", "max_m": 5}),
        Op("two_method_sl2", {"op": "two_method", "algebras": ["sl2"], "corpus": corpus,
                              "structure": True}),
        Op("two_method_d21", {"op": "two_method", "algebras": ["d21:2"], "corpus": corpus}),
    ]

    def check(res):
        r = res["wheel6"]["result"]
        w6 = checks.poly_from_terms(r["verma"], ("n",))
        errs = checks.check_wheel_value(w6, ("n",), 6, 2 * 2 ** 6, symmetrized=True)
        errs += checks.check_agreement(w6, Fraction(r["statesum"]), "chi_bar(wheel(6)) on sl2")
        errs += checks.check_dimensions(res["dim_stu"]["result"]["dims"])
        errs += checks.check_dimensions(res["dim_4t"]["result"]["dims"])
        sl2 = res["two_method_sl2"]["result"]
        casimir = [(i, j, Fraction(c)) for i, j, c in sl2["casimir"]]
        bracket = [[{int(k): Fraction(v) for k, v in col.items()} for col in row]
                   for row in sl2["bracket"]]
        for algebra in ("sl2", "d21"):
            rows = res[f"two_method_{algebra}"]["result"]["rows"]
            if len(rows) != len(corpus):
                errs.append(f"two-method {algebra}: {len(rows)} rows for {len(corpus)} diagrams")
            for word, row in zip(corpus, rows):
                verma = checks.poly_from_terms(row["verma"], ("n",))
                statesum = Fraction(row["statesum"])
                errs += checks.check_agreement(verma, statesum, f"{algebra} {word}")
                if algebra == "sl2":
                    brute = checks.brute_force_trace([tuple(p) for p in word], len(bracket),
                                                     casimir, bracket)
                    if brute != statesum:
                        errs.append(f"sl2 {word}: state sum {statesum} != trace {brute}")
        return errs

    def metrics(res):
        return {"chi_bar_w6_s": res["wheel6"]["phases"]["chi_bar_w6"],
                "dim_oracles_s": res["dim_stu"]["op_s"] + res["dim_4t"]["op_s"],
                "two_method_s": res["two_method_sl2"]["op_s"] + res["two_method_d21"]["op_s"]}

    return Workload("diagram-space", ops, check, metrics,
                    {"degree5_sample": corpus[26:]})


WORKLOADS = {"cli-certify": cli_certify, "verma-symbolic": verma_symbolic,
             "diagram-space": diagram_space}


def build(name, seed, root: Path, workdir: Path):
    return WORKLOADS[name](seed, root, workdir)
