"""Benchmark of weightsys: one workload per run, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation runs in a fresh interpreter, one at a time, so it starts
cold as a command-line run does; the program's module-level memo tables
cannot carry over from one operation to the next.  A run repeats whole
passes over the workload's operations until ``--seconds`` have elapsed
(at least one pass) and reports medians over the passes.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / "out"
SETUP_SAMPLES = 11
DEADLINE_S = 170.0
MODULES = ("scalars", "diagrams", "superalgebras", "evaluation",
           "asymptotics", "characters", "cli")
LAYERS = MODULES + ("import", "bench", "process")


class ChildFailed(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv, deadline):
    """Run argv to its end; returns (returncode, stdout, stderr, wall_s,
    max_rss_kib).  The child is killed at the run's deadline."""
    out_path, err_path = WORKDIR / "child.out", WORKDIR / "child.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.monotonic() >= deadline:
        raise ChildFailed(f"{argv[2:]} did not finish before the run's deadline")
    return proc.returncode, out_path.read_text(), err_path.read_text(), wall, usage.ru_maxrss


def run_child(spec, traced, deadline):
    argv = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
    if traced:
        argv.append("--trace")
    code, out, err, wall, rss = spawn(argv, deadline)
    if code != 0:
        raise ChildFailed(f"{spec['op']} exited {code}: {err.strip()[-2000:]}")
    report = json.loads(out.strip().splitlines()[-1])
    report.update(wall_s=wall, rss_kib=rss)
    return report


def run_op(op, traced, deadline):
    """One operation; cli operations untraced run ``python -m weightsys``."""
    if op.spec["op"] == "cli":
        if traced:
            rep = run_child(op.spec, True, deadline)
            rep.update(rep.pop("result"))
        else:
            argv = [sys.executable, "-m", "weightsys", *op.spec["argv"]]
            code, out, err, wall, rss = spawn(argv, deadline)
            rep = {"returncode": code, "stdout": out, "stderr": err,
                   "wall_s": wall, "rss_kib": rss}
        rep["op_s"] = rep["wall_s"]
        if op.usage_error:
            rep["failed"] = not workloads.checks.check_usage_error(rep["returncode"],
                                                                   rep["stderr"])
        elif rep["returncode"] != 0:
            raise ChildFailed(f"{op.name} exited {rep['returncode']}: {rep['stderr'][-2000:]}")
        return rep
    return run_child(op.spec, traced, deadline)


def run_pass(wl, traced, deadline):
    t0 = time.perf_counter()
    results = {op.name: run_op(op, traced, deadline) for op in wl.ops}
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "results": results}


# ----------------------------------------------------------------- tracing


def span_times(results, pass_wall):
    """Per-span-name total time, self time per layer and counters of one
    traced pass.  Layers: the seven modules, ``import`` (importing and
    wrapping weightsys), ``bench`` (the benchmark's own code in the child
    and in this process) and ``process`` (interpreter start-up and exit)."""
    by_name, self_time, counts = {}, dict.fromkeys(LAYERS, 0.0), {}
    children_wall = 0.0
    for rep in results.values():
        tr = rep["trace"]
        spans = tr["spans"]
        covered = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, parent, start, end), cov in zip(spans, covered):
            dur = end - start
            by_name[name] = by_name.get(name, 0.0) + dur
            self_time[name.split(".")[0]] += dur - cov
        root = spans[0]
        self_time["process"] += rep["wall_s"] - (root[3] - root[2])
        children_wall += rep["wall_s"]
        for key, val in tr["counts"].items():
            counts[key] = counts.get(key, 0) + val
    self_time["bench"] += pass_wall - children_wall
    main_s = by_name.get("cli.main", 0.0)
    cli_wall = sum(r["wall_s"] for r in results.values() if "returncode" in r)
    by_name["cli.overhead"] = cli_wall - main_s if main_s else 0.0
    return by_name, self_time, counts


# per-layer metrics of the JSON result: span totals, self times and counters
SPAN_METRICS = {
    "superalgebras.build_s": "superalgebras.build",
    "diagrams.chi_bar_s": "diagrams.chi_bar",
    "diagrams.chord_reduce_s": "diagrams.chord_reduce",
    "evaluation.sweep_s": "evaluation.sweep_chords",
}
SELF_METRICS = ("diagrams", "evaluation", "superalgebras", "import", "process", "bench")
COUNT_METRICS = {
    "scalars.polymul_calls": "scalars.polymul_calls",
    "scalars.max_poly_terms": "scalars.max_poly_terms",
    "scalars.rank_calls": "scalars.matrix_rank_calls",
    "scalars.rank_rows": "scalars.rank_rows",
    "scalars.rational_roots_calls": "scalars.rational_roots_calls",
    "diagrams.chi_bar_terms": "diagrams.chi_bar_terms",
    "diagrams.chord_terms": "diagrams.chord_terms",
    "diagrams.canonical_calls": "diagrams.canonical_calls",
    "diagrams.canonical_computed": "diagrams.canonical_computed",
    "diagrams.stu_expand_calls": "diagrams.stu_expand_calls",
    "superalgebras.build_calls": "superalgebras.build_calls",
    "superalgebras.validate_calls": "superalgebras.validate_calls",
    "evaluation.sweeps": "evaluation.sweep_chords_calls",
    "evaluation.act_calls": "evaluation.act_calls",
    "evaluation.act_distinct": "evaluation.act_distinct",
    "evaluation.apply_calls": "evaluation.apply_calls",
    "evaluation.statesum_calls": "evaluation.eval_state_sum_calls",
    "evaluation.value_terms": "evaluation.value_terms",
    "asymptotics.top_coefficient_calls": "asymptotics.top_coefficient_calls",
    "asymptotics.find_n0_calls": "asymptotics.find_n0_calls",
    "characters.build_P_calls": "characters.build_P_calls",
    "characters.vanishing_table_calls": "characters.vanishing_table_calls",
    "characters.build_D_element_calls": "characters.build_D_element_calls",
    "cli.main_calls": "cli.main_calls",
}


def layer_metrics(totals, selfs, counts):
    """name -> (value, unit) for every per-layer metric of BENCHMARK.json."""
    out = {name: (totals.get(span, 0.0), "s") for name, span in SPAN_METRICS.items()}
    out.update((f"{layer}.self_s", (selfs[layer], "s")) for layer in SELF_METRICS)
    out.update((name, (counts.get(key, 0), "count")) for name, key in COUNT_METRICS.items())
    calls = counts.get("evaluation.act_calls", 0)
    # share of VermaCarrier.act calls whose key was seen before; base act_calls
    hit = 1 - counts.get("evaluation.act_distinct", 0) / calls if calls else 0.0
    out["evaluation.act_hit_ratio"] = (hit, "ratio")
    return out


# layer times printed in the traced report; they are zero on workloads that
# do not reach the layer, so they are not part of the JSON result
LAYER_TIMES = {
    "scalars.rank_s": "scalars.matrix_rank",
    "scalars.rational_roots_s": "scalars.rational_roots",
    "superalgebras.validate_s": "superalgebras.validate",
    "evaluation.statesum_s": "evaluation.eval_state_sum",
    "asymptotics.top_coefficient_s": "asymptotics.top_coefficient",
    "asymptotics.find_n0_s": "asymptotics.find_n0",
    "characters.build_P_s": "characters.build_P",
    "characters.vanishing_table_s": "characters.vanishing_table",
    "characters.build_D_element_s": "characters.build_D_element",
    "cli.main_s": "cli.main",
    "cli.overhead_s": "cli.overhead",
}


# ------------------------------------------------------------------ the run


def median_of(passes, fn):
    return statistics.median(fn(p) for p in passes)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "weightsys" / "__init__.py").is_file():
        sys.stderr.write(f"error: no weightsys package under {ROOT / 'src'}\n")
        return 2
    start = time.monotonic()
    deadline = start + DEADLINE_S
    WORKDIR.mkdir(exist_ok=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "weightsys")],
                   check=True, cwd=ROOT)
    wl = workloads.build(args.workload, args.seed, ROOT, WORKDIR)

    setup = [run_child(workloads.SETUP_SPEC, False, deadline)["setup_s"]
             for _ in range(SETUP_SAMPLES)]
    passes = []
    t0 = time.monotonic()
    while not passes or time.monotonic() - t0 < args.seconds:
        passes.append(run_pass(wl, bool(args.trace), deadline))

    errors, attempted, failed = [], 0, 0
    for p in passes:
        res = p["results"]
        attempted += len(res)
        failed += sum(1 for r in res.values() if r.get("failed"))
        try:
            errors += wl.check({k: r for k, r in res.items() if not r.get("failed")})
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            errors.append(f"unreadable output: {exc!r}")
    correct = not errors
    for err in errors[:20]:
        print(f"CHECK FAILED: {err}")

    print(f"workload {wl.name} seed {args.seed} passes {len(passes)} "
          f"inputs {json.dumps(wl.inputs)}")
    if args.trace:
        metrics = report_trace(wl, passes, args.seed)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": median_of(passes, lambda p: p["wall_s"]), "unit": "s"},
            "peak_rss_mib": {"value": median_of(passes, lambda p: max(
                r["rss_kib"] for r in p["results"].values()) / 1024), "unit": "MiB"},
        }
        for name in wl.metrics(passes[0]["results"]):
            value = median_of(passes, lambda p: wl.metrics(p["results"])[name])
            print(f"  {name:28s} {value:12.4f} s   (median of {len(passes)} passes)")
        for name, m in metrics.items():
            print(f"  {name:28s} {m['value']:12.4f} {m['unit']}")
    print(f"attempted {attempted} failed {failed} in {time.monotonic() - start:.1f} s")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def report_trace(wl, passes, seed):
    """Print self times per layer and the layer metrics; write the spans."""
    rows = []
    for p in passes:
        totals, selfs, counts = span_times(p["results"], p["wall_s"])
        rows.append((totals, selfs, counts, p["wall_s"]))
    per_pass = [layer_metrics(t, s, c) for t, s, c, _ in rows]
    out = {name: {"value": statistics.median(m[name][0] for m in per_pass), "unit": unit}
           for name, (_, unit) in per_pass[0].items()}
    print(f"  traced wall_s {statistics.median(w for *_, w in rows):.4f} s; the tracing "
          f"overhead is this minus wall_s of an untraced run")
    print("  self time by layer (median over traced passes):")
    for layer in LAYERS:
        value = statistics.median(s[layer] for _, s, _, _ in rows)
        print(f"    {layer:16s} {value:10.4f} s")
    for name, span in LAYER_TIMES.items():
        value = statistics.median(t.get(span, 0.0) for t, *_ in rows)
        print(f"  {name:34s} {value:12.4f} s")
    for name, m in out.items():
        print(f"  {name:34s} {m['value']:12.4f} {m['unit']}")
    spans = [{"pass": i, "op": op, "origin": rep["trace"]["origin"],
              "spans": rep["trace"]["spans"], "counts": rep["trace"]["counts"]}
             for i, p in enumerate(passes) for op, rep in p["results"].items()]
    path = WORKDIR / f"trace-{wl.name}-seed{seed}.json"
    path.write_text(json.dumps(spans))
    print(f"  spans written to {path.relative_to(ROOT)}")
    return out


if __name__ == "__main__":
    sys.exit(main())
