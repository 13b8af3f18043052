"""Batch command line interface.

Commands (via --command): validate, leading, certify, eval.  Output is
deterministic: identical configuration and table give byte-identical
reports.  All values are printed exactly (integers, fractions, polynomial
strings in canonical monomial order); no floating point appears anywhere.

Exit codes: 0 success, 1 a failed check, 2 usage error, 3 cost bound
exceeded.  Handlers raise where they refuse, and ``main`` alone writes the
one ``error:`` line: ``CostBoundError`` exits 3, ``ValueError`` and
``OSError`` exit 2.  An ``AssertionError`` is a fault in the program, not
bad input: it stays a traceback (exit 1).  Handlers return their report,
and ``main`` alone renders and writes it.  ``--out`` is checked before the
run (exit 2 if it cannot be opened or names the ``--diagram`` or
``--table`` file), written only once the report exists, and left
untouched, or not created, by a refused run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import asymptotics, characters, evaluation
from .diagrams import Diagram
from .scalars import CostBoundError
from .superalgebras import d21, sl2, validate, cartan_form_block

EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_COST = 0, 1, 2, 3
MODES = {"validate": (), "leading": ("alpha1", "symbolic"),
         "certify": ("auto", "full"), "eval": ("verma", "statesum")}
# the options each command reads besides --command, --format and --out; any
# other option given is a usage error
OPTIONS = {"validate": ("table",), "leading": ("k", "mode"),
           "certify": ("k", "q", "mode", "table"),
           "eval": ("alpha", "mode", "diagram", "algebra", "weight", "max_degree")}
# leading at alpha = 1, 2-core host: k = 2000 takes about 0.07 s in process and 0.21 s
ALPHA1_K_LIMIT = 2000  # as a whole process; k = 3000 takes 0.19 s in process
SYMBOLIC_K_LIMIT = 100  # leading --mode symbolic: k = 100 takes about 0.3 s, cost grows as k^3
FULL_K_LIMIT = 6  # certify --mode full: k = 6 takes about 21 s, k = 8 has never finished


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Usage errors are one line on stderr and exit 2."""
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _parse_alpha(spec):
    try:
        return Fraction(spec)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {spec!r}")


def _parse_weight(spec, L):
    """H* coordinates of --weight, one integer per Cartan element; the
    default is D(2,1,alpha)'s (3, 1, 1), cut to the algebra's rank."""
    rank = len(L.rootdata.cartan)
    if spec is None:
        return asymptotics.DEFAULT_LAMBDA0[:rank]
    if spec == "adjoint":
        return evaluation.adjoint_weight(L)
    try:
        weight = tuple(int(x) for x in spec.split(","))
    except ValueError:
        weight = ()
    if len(weight) != rank:
        raise ValueError(f"--weight on {L.name} takes {rank} comma-separated integers, got {spec!r}")
    return weight


def _as_text(value):
    """The lines of a report as indented text: a dict as sorted ``key:``
    lines, a list as ``- `` items with an item's further lines under its
    first, and an empty list or dict as ``[]`` or ``{}``."""
    if isinstance(value, dict) and value:
        lines = []
        for key, val in sorted(value.items()):
            if isinstance(val, (dict, list)) and val:
                lines += [f"{key}:"] + ["  " + line for line in _as_text(val)]
            else:
                lines.append(f"{key}: {val}")
        return lines
    if isinstance(value, list) and value:
        lines = []
        for item in value:
            first, *rest = _as_text(item)
            lines += ["- " + first] + ["  " + line for line in rest]
        return lines
    return [str(value)]


def cmd_validate(args):
    checks = []
    ok = True
    d21_2 = d21(Fraction(2))
    for algebra in (sl2(), d21(), d21_2):
        rep = validate(algebra)
        for name, entry in rep.items():
            if not isinstance(entry, dict):
                continue
            checks.append({"algebra": algebra.name, "check": name, "ok": entry["ok"],
                           "witness": [list(w) for w in entry["failures"][:1]]})
            ok = ok and entry["ok"]
    # Cartan block of the derived form must match diag(2/(1+a), -2, -2/a),
    # written out here so that it checks the triples' weights, not repeats them
    block, D = cartan_form_block(d21_2)
    cartan_ok = all(block[i][i] == c * D for i, c in enumerate((Fraction(2, 3), -2, -1)))
    checks.append({"algebra": d21_2.name, "check": "cartan_form_block",
                   "ok": cartan_ok, "witness": []})
    ok = ok and cartan_ok

    try:
        families = characters.load_family_table(args.table)
        factors = characters.p_factors()
        vt = characters.vanishing_table(characters.build_P(factors), families, factors)
    except (ValueError, OSError, CostBoundError) as exc:
        vt = {"ok": False, "rows": [], "error": str(exc)}
    for row in vt.get("rows", []):
        checks.append({"algebra": "parameter-table", "check": row["family"],
                       "ok": row["ok"],
                       "witness": [] if row["ok"] else [row["vanishing_factors"]]})
    ok = ok and vt["ok"]
    report = {"command": "validate", "status": "pass" if ok else "fail",
              "rows": checks}
    if "error" in vt:
        report["table_error"] = vt["error"]
    return report, ok


def cmd_leading(args):
    kmax = 10 if args.k is None else args.k
    if kmax % 2 or kmax < 2:
        raise ValueError(f"--k must be even and >= 2, got {kmax}")
    mode = args.mode or "alpha1"
    limit = SYMBOLIC_K_LIMIT if mode == "symbolic" else ALPHA1_K_LIMIT
    if kmax > limit:
        raise CostBoundError(f"--k {kmax} exceeds the {mode} bound {limit}")
    ks = list(range(2, kmax + 1, 2))
    if mode == "symbolic":
        rows = [{"k": k, "computed": str(top) if top else "0 (identically in alpha)"}
                for k, top in zip(ks, map(asymptotics.top_coefficient, ks))]
        return {"command": "leading", "mode": "symbolic", "rows": rows,
                "status": "pass"}, True
    rep = asymptotics.closed_form_check(ks)
    return {"command": "leading", "mode": "alpha=1", "rows": rep["rows"],
            "status": "pass" if rep["ok"] else "fail"}, rep["ok"]


def cmd_certify(args):
    k = 4 if args.k is None else args.k
    q_spec = "1" if args.q is None else args.q
    # an odd --k stays a usage error, reported by build_D_element
    if args.mode == "full" and k > FULL_K_LIMIT and k % 2 == 0:
        raise CostBoundError(f"--k {k} exceeds the full-mode bound {FULL_K_LIMIT}")
    bundle = characters.build_D_element(
        k, q_spec=q_spec, families=characters.load_family_table(args.table),
        full=args.mode == "full" or k <= 2)
    # honest caveat case: at k = 2 the bundle is reported but not certified
    return bundle, bundle["character_level"]["ok"] if k == 2 else bundle["certified"]


def cmd_eval(args):
    algebra = args.algebra or "d21"
    if args.alpha is not None and algebra == "sl2":
        raise ValueError("--alpha applies to --algebra d21 only")
    if args.weight is not None and args.mode == "statesum":
        raise ValueError("--weight applies to --mode verma only")
    if not args.diagram:
        raise ValueError("--diagram FILE is required for eval")
    max_degree = 6 if args.max_degree is None else args.max_degree
    if max_degree < 0:
        raise ValueError(f"--max-degree must be >= 0, got {max_degree}")
    with open(args.diagram) as fh:
        diag = Diagram.from_text(fh.read())
    if diag.degree > max_degree:
        raise CostBoundError(f"diagram degree {diag.degree} exceeds --max-degree {max_degree}")
    L = sl2() if algebra == "sl2" else d21(args.alpha)
    if args.mode == "statesum":
        value = evaluation.eval_state_sum(diag, L)
    else:
        value = evaluation.eval_verma(diag, L, _parse_weight(args.weight, L))
    return {"command": "eval", "algebra": L.name,
            "mode": args.mode or "verma", "value": str(value)}, True


def build_parser():
    ap = _Parser(
        prog="weightsys",
        description="Exact diagram-algebra and weight-system calculations")
    ap.add_argument("--command", required=True, choices=list(MODES))
    ap.add_argument("--k", type=int, help="leg count / range end (even)")
    ap.add_argument("--q", help="symmetric cofactor Q, e.g. 1, e2, e3, e2^2; "
                    "one that starts with '-' is given as --q=-e2")
    ap.add_argument("--alpha", type=_parse_alpha,
                    help="rational alpha for eval on d21, e.g. 2 or 1/2; "
                    "a negative one is given as --alpha=-1/2")
    ap.add_argument("--mode", help="command-specific mode (" + "; ".join(
        f"{cmd}: {'|'.join(modes)}" for cmd, modes in MODES.items() if modes) + ")")
    ap.add_argument("--format", default="text", choices=["text", "json"])
    ap.add_argument("--out", help="output path (default stdout): checked before the run, "
                    "written once the report exists, untouched by a refused run")
    ap.add_argument("--table", help="parameter table path")
    ap.add_argument("--diagram", help="diagram file for eval")
    ap.add_argument("--algebra", choices=["sl2", "d21"],
                    help="algebra for eval (default d21, symbolic unless --alpha is given)")
    ap.add_argument("--weight", help="eval weight: adjoint or H* coordinates like 3,1,1")
    ap.add_argument("--max-degree", type=int, dest="max_degree",
                    help="cost guard for eval (default 6)")
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        modes = MODES[args.command]
        if args.mode is not None and args.mode not in modes:
            ap.error(f"--mode {args.mode!r}: {args.command} takes "
                     + ("no --mode" if not modes else "one of " + ", ".join(modes)))
        read = ("command", "format", "out") + OPTIONS[args.command]
        for dest, value in vars(args).items():
            if value == []:   # argparse reads "--k=--" as no argument at all
                ap.error(f"argument --{dest.replace('_', '-')}: expected one argument")
            if value is not None and dest not in read:
                ap.error(f"{args.command} takes no --{dest.replace('_', '-')}")
        if args.out is not None:
            src = args.diagram or args.table   # a command reads at most one
            if src and os.path.exists(src) and os.path.exists(args.out) \
                    and os.path.samefile(src, args.out):
                ap.error(f"--out {args.out} is the input file {src}")
            existed = os.path.exists(args.out)   # follows a link, as open does
            try:   # mode "a" leaves an existing file as it is
                open(args.out, "a").close()
            except OSError as exc:
                ap.error(f"--out: {exc}")
            if not existed:   # the check creates nothing: the report does
                os.remove(os.path.realpath(args.out))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    handler = {"validate": cmd_validate, "leading": cmd_leading,
               "certify": cmd_certify, "eval": cmd_eval}[args.command]
    # values are printed exactly, however many digits they have
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits:
        limit = sys.get_int_max_str_digits()
        set_digits(0)
    try:
        report, ok = handler(args)
        text = (json.dumps(report, indent=2, sort_keys=True) + "\n" if args.format == "json"
                else "".join(line + "\n" for line in _as_text(report)))
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w") as fh:
                fh.write(text)
    except (CostBoundError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_COST if isinstance(exc, CostBoundError) else EXIT_USAGE
    finally:
        if set_digits:
            set_digits(limit)
    return EXIT_OK if ok else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
