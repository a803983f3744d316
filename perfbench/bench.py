"""Set-up, timed passes, traced run and the result line of the benchmark.

An untraced run generates the workload's graphs and their edge-list text
at least ``SETUP_REPEATS`` times and for at least ``SETUP_MIN_S`` seconds
(``setup_s`` is the median), then times complete passes over the instances
until the next pass would end after ``--seconds``; at least one pass runs. Solution sizes come from the first pass and
every later pass must reproduce its outputs exactly. A traced run sets up
once with a span around each generator and writer call, then runs each
instance untraced (the reference) and traced, and requires both to agree.

Any exception or wrong output fails that operation only; the run goes on
and reports ``correct: false``.
"""

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import rbdom
from ops import Tracer, problems, solve, traced_solve
from rbdom import Approximator, write_edge_list
from workloads import GENERATORS, WORKLOADS, Workload, mixed_small

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
# tail percentiles tried from the highest down; the first one with at least
# TAIL_BEYOND samples above it is reported
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)
TAIL_BEYOND = 10
MAX_LOGGED_FAILURES = 20


def setup(specs, tr=None, parent=None):
    """Generate every graph and write its edge-list text."""
    texts = []
    for gen, args in specs:
        if tr is None:
            texts.append(write_edge_list(gen(*args)))
            continue
        g = tr.call(f"generate.{gen.__name__}", parent, gen, *args)
        texts.append(tr.call("io.write_edge_list", parent, write_edge_list, g))
    return texts


def warm_up():
    """First calls of every public function the benchmark uses, on small graphs."""
    tr = Tracer()
    texts = setup(mixed_small(0, 5), tr)  # one graph of each model
    for approx in Approximator:
        wl = Workload("warm-up", None, approx, 0.05)
        for text in texts:
            g, res = solve(text, wl)
            problems(g, res)
            traced_solve(tr, text, wl, Counter())


def _failure(failures, i, reasons):
    """One failed operation, with every reason it failed."""
    failures.append(f"instance {i}: " + "; ".join(reasons))


def run_untraced(wl, texts, seconds):
    """Timed passes; returns (per-pass lists of completed operations, failure messages).

    An operation that raised has no result; one whose result is wrong keeps
    its timing and is listed in the failure messages.
    """
    first = [None] * len(texts)
    failures = []
    passes = []
    start = perf_counter()
    while True:
        rows = []
        for i, text in enumerate(texts):
            try:
                g, res = solve(text, wl)
            except Exception as exc:  # counted as one failed operation
                _failure(failures, i, [f"{type(exc).__name__}: {exc}"])
                continue
            if first[i] is None:
                first[i] = res.outputs()
                bad = problems(g, res)
            elif res.outputs() != first[i]:
                bad = ["outputs differ from the first pass"]
            else:
                bad = []
            if bad:
                _failure(failures, i, bad)
            rows.append(res)
        passes.append(rows)
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes, failures


def _ratio(a, b):
    return a / b if b else 0.0


def tail(samples):
    """(percentile, value) of the highest ladder percentile with enough samples beyond it."""
    for pct in TAIL_LADDER:
        if len(samples) * (100.0 - pct) / 100.0 >= TAIL_BEYOND:
            return pct, float(np.percentile(samples, pct))
    return None, None


def untraced_metrics(passes, setup_runs):
    """End-to-end metrics plus the ones kept only in the run record; sizes from the first pass."""
    first = passes[0]
    op_s = [r.op_s for rows in passes for r in rows]
    tail_pct, tail_s = tail(op_s)
    m = {
        "setup_s": statistics.median(setup_runs),
        "instances_per_s": _ratio(len(op_s), sum(op_s)),
        "instance_p50_s": statistics.median(op_s),
        "instance_tail_s": tail_s,
        "instance_tail_pct": tail_pct,
        "instance_samples": len(op_s),
        "aa_s": statistics.median(sum(r.aa_s for r in rows) for rows in passes),
        "la_s": statistics.median(sum(r.la_s for r in rows) for rows in passes),
        "ex_s": statistics.median(sum(r.ex_s for r in rows) for rows in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "aa_size": sum(len(r.aa) for r in first),
        "la_size": sum(len(r.la) for r in first),
        "improved_pct": 100.0 * _ratio(sum(len(r.la) < len(r.aa) for r in first), len(first)),
        "passes": len(passes),
    }
    exact = [r for r in first if r.ex is not None]
    if exact:
        m["ex_size"] = sum(len(r.ex) for r in exact)
        m["ex_proven_pct"] = 100.0 * sum(r.proven for r in exact) / len(exact)
        m["ex_gap"] = sum(len(r.ex) - r.lb for r in exact)
    return m


def run_traced(wl, specs):
    """Set up and run every instance untraced and traced; returns (metrics, tracer, texts, failures)."""
    tr = Tracer()
    sp = tr.begin("setup")
    texts = setup(specs, tr, sp)
    tr.end(sp)
    counts = Counter()
    failures = []
    untraced_s = aa_s = la_s = 0.0
    op_spans, pipe_spans = [], []
    for i, text in enumerate(texts):
        try:
            g, res = solve(text, wl)
            op, pipes, outputs, bad = traced_solve(tr, text, wl, counts)
        except Exception as exc:  # counted as one failed operation
            _failure(failures, i, [f"{type(exc).__name__}: {exc}"])
            continue
        bad += problems(g, res)
        if outputs != res.outputs():
            bad.append("traced composition differs from run_exp_aa/run_exp_la/exact_min")
        if bad:
            _failure(failures, i, bad)
        counts["io.parse_bytes"] += len(text)
        untraced_s += res.op_s
        aa_s += res.aa_s
        la_s += res.la_s
        op_spans.append(op)
        pipe_spans.extend(pipes)

    times = tr.totals()
    m = {f"{name}_s": float(times[name]) for name in (
        "io.parse_edge_list",
        "io.write_edge_list",
        "graph.build_graph",
        "graph.degeneracy_order",
        "instance.is_valid_solution",
        "reduce.rr_isolated",
        "reduce.rr_pendant_exhaustive",
        "reduce.rr_lossy2",
        "reduce.scd_nbr",
        "reduce.verify_psi",
        "reduce.lift",
        "approx.approximate_aa",
        "approx.approximate_la",
        "exact.exact_min",
    )}
    for gen in GENERATORS:
        m[f"generate.{gen.__name__}_s"] = float(times[f"generate.{gen.__name__}"])
    for name in (
        "io.parse_bytes",
        "reduce.isolated_recolored",
        "reduce.pendant_applications",
        "reduce.pendant_recolored",
        "reduce.lossy_x_size",
        "reduce.lossy_recolored",
        "approx.picks_aa",
        "approx.picks_la",
        "exact.proven",
        "exact.lb_sum",
    ):
        m[name] = int(counts[name])
    m["reduce.lossy_x_share"] = _ratio(counts["reduce.lossy_x_size"], counts["reduce.lossy_blue_before"])
    m["approx.blue_per_pick_la"] = _ratio(counts["approx.blue_la"], counts["approx.picks_la"])
    m["exact.units_per_s"] = _ratio(counts["exact.budget_units"], counts["exact.budget_s"])
    m["pipeline.run_exp_aa_s"] = aa_s
    m["pipeline.run_exp_la_s"] = la_s
    m["pipeline.self_s"] = aa_s + la_s - tr.children_time(pipe_spans)
    traced_s = sum(tr.duration(sid) for sid in op_spans)
    m["trace_overhead_pct"] = 100.0 * _ratio(traced_s - untraced_s, untraced_s)
    return m, tr, texts, failures


def git_commit():
    """HEAD of the repository this benchmark sits in, or None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args, texts):
    sizes = [tuple(int(x) for x in t[: t.index("\n")].split()) for t in texts]
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": git_commit(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instances": len(texts),
        "n_total": sum(n for n, _ in sizes),
        "m_total": sum(m for _, m in sizes),
    }


def result_line(metrics, kind, attempted, failures, setup_ok=True):
    """The final stdout line: the metrics BENCHMARK.json names for this kind, with units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "correct": setup_ok and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in spec[kind]
        },
    }


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be nonnegative")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description="rbdom benchmark (see perfbench/run.py)")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=_seed)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if not Path(rbdom.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"perfbench: imported rbdom from {rbdom.__file__}, not {ROOT / 'src'}")
    wl = WORKLOADS[args.workload]
    specs = wl.recipe(args.seed)
    warm_up()

    if args.trace:
        metrics, tr, texts, failures = run_traced(wl, specs)
        attempted = len(texts)
        setup_ok = True
    else:
        setup_runs, texts = [], None
        setup_ok = True
        while len(setup_runs) < SETUP_REPEATS or sum(setup_runs) < SETUP_MIN_S:
            t0 = perf_counter()
            again = setup(specs)
            setup_runs.append(perf_counter() - t0)
            setup_ok = setup_ok and (texts is None or again == texts)
            texts = again
        passes, failures = run_untraced(wl, texts, args.seconds)
        if not passes[0]:
            raise SystemExit(f"perfbench: every operation failed: {failures[:3]}")
        metrics = untraced_metrics(passes, setup_runs)
        metrics["setup_runs"] = setup_runs
        attempted = len(texts) * len(passes)
    metrics["failed_pct"] = 100.0 * _ratio(len(failures), attempted)

    env = environment(args, texts)
    kind = "per_layer" if args.trace else "end_to_end"
    line = result_line(metrics, kind, attempted, failures, setup_ok)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"environment": env, "metrics": metrics, "failures": failures[:MAX_LOGGED_FAILURES]}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            [{"name": n, "parent": p, "start": t0, "end": t1} for n, p, t0, t1 in tr.spans]
        ))
    if not setup_ok:
        print("perfbench: the same seed generated different edge-list text")
    for what in failures[:MAX_LOGGED_FAILURES]:
        print(f"perfbench: failed: {what}")
    print(json.dumps({"environment": env}))
    print(json.dumps(line))
    return 0
