"""One benchmark operation in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC_JSON [--trace]

SPEC_JSON names the operation and its generated inputs.  The child imports
weightsys, builds the algebras the operation needs (set-up, not timed), runs
the operation under a timer and prints one JSON line with the timings, the
result in plain form and, with --trace, the spans and counters.  The
``cli`` operation calls ``weightsys.cli.main`` in this process instead of
running ``python -m weightsys``, so that the traced run sees inside it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback

T_START = time.perf_counter()


def _poly(value):
    """MultiPoly or Fraction as {"vars", "terms"} with exact coefficients."""
    terms = getattr(value, "terms", None)
    if terms is None:
        return {"vars": [], "terms": [[[], str(value)]] if value else []}
    return {"vars": list(value.vars),
            "terms": [[list(e), str(c)] for e, c in sorted(terms.items())]}


def _algebras(spec):
    from fractions import Fraction

    from weightsys.superalgebras import d21, sl2

    out = {}
    for name in spec.get("algebras", []):
        if name == "sl2":
            out[name] = sl2()
        elif name == "d21":
            out[name] = d21()
        else:  # "d21:<alpha>"
            out[name] = d21(Fraction(name.split(":", 1)[1]))
    return out


def _tri_wheel4():
    from weightsys.diagrams import chi_bar, insert_at_vertex, triangle, wheel

    (ins, c), = list(insert_at_vertex(wheel(4), 0, triangle()))
    return chi_bar(ins, c)


def op_setup(spec, algs, phases):
    return {}


def op_verma(spec, algs, phases):
    """Verma value of the symmetrized 4-wheel or its triangle insertion."""
    from weightsys.diagrams import chi_bar, wheel
    from weightsys.evaluation import eval_verma

    src = _tri_wheel4() if spec["diagram"] == "tri_wheel4" else chi_bar(wheel(4))
    value = eval_verma(src, algs[spec["algebras"][0]], tuple(spec["weight"]))
    return {"value": _poly(value)}


def op_wheel6(spec, algs, phases):
    """chi_bar(wheel(6)) and chord_reduce, then its sl2 Verma and state-sum
    values (the second phase reuses the chord memo of the first)."""
    from weightsys.diagrams import chi_bar, chord_reduce, wheel
    from weightsys.evaluation import eval_state_sum, eval_verma

    t0 = time.perf_counter()
    src = chi_bar(wheel(6))
    chords = chord_reduce(src)
    t1 = time.perf_counter()
    L = algs["sl2"]
    verma = eval_verma(src, L, (2,))
    statesum = eval_state_sum(src, L)
    phases["chi_bar_w6"] = t1 - t0
    phases["w6_values"] = time.perf_counter() - t1
    return {"classes": len(src), "chord_diagrams": len(chords),
            "verma": _poly(verma), "statesum": str(statesum)}


def op_dims(spec, algs, phases):
    from weightsys import diagrams

    fn = getattr(diagrams, spec["oracle"])
    return {"dims": [fn(m) for m in range(1, spec["max_m"] + 1)]}


def op_two_method(spec, algs, phases):
    """Verma value at the adjoint weight with n = 1 and the adjoint state sum
    of every chord diagram in the corpus (given as chord words)."""
    from weightsys.diagrams import chord_diagram_from_word
    from weightsys.evaluation import adjoint_weight, eval_state_sum, eval_verma

    L = algs[spec["algebras"][0]]
    lam = adjoint_weight(L)
    rows = []
    for pairs in spec["corpus"]:
        d = chord_diagram_from_word([tuple(p) for p in pairs], 2 * len(pairs))
        rows.append({"verma": _poly(eval_verma(d, L, lam)),
                     "statesum": str(eval_state_sum(d, L))})
    out = {"rows": rows}
    if spec.get("structure"):
        out["casimir"] = [[i, j, str(w)] for i, j, w in L.casimir]
        out["bracket"] = [[{str(k): str(v) for k, v in L.bracket(x, j).items()}
                           for j in range(L.dim)] for x in range(L.dim)]
    return out


def op_cli(spec, algs, phases):
    """weightsys.cli.main(argv) with its output captured, as the
    interpreter would run it: an escaping exception exits 1."""
    from weightsys import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(spec["argv"])
        except Exception:
            traceback.print_exc()
            code = 1
    return {"returncode": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


OPS = {"setup": op_setup, "verma": op_verma, "wheel6": op_wheel6,
       "dims": op_dims, "two_method": op_two_method, "cli": op_cli}


def main():
    spec = json.loads(sys.argv[1])
    tracer = None
    if "--trace" in sys.argv[2:]:
        from tracing import Tracer, install

        tracer = Tracer()
        root = tracer.open("bench.child")
        imp = tracer.open("import")
        install(tracer)
        tracer.close(imp)
    t_import = time.perf_counter()
    import weightsys.cli  # noqa: F401  (set-up: imports every module)
    import weightsys.evaluation  # noqa: F401

    algs = _algebras(spec)
    t_op = time.perf_counter()
    phases = {}
    result = OPS[spec["op"]](spec, algs, phases)
    t_end = time.perf_counter()
    report = {"setup_s": t_op - t_import, "op_s": t_end - t_op,
              "phases": phases, "result": result}
    if tracer is not None:
        tracer.close(root)
        report["trace"] = tracer.summary()
        report["trace"]["origin"] = T_START
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
