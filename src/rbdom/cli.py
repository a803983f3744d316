"""Command line surface: gen, solve, exp, verify.

Exit codes: 0 success, 1 input error (bad arguments, malformed files,
unreadable paths), 2 internal invariant violation.
"""

import argparse
import logging
import sys
from pathlib import Path

from .approx import Approximator, approximate
from .exact import exact_min
from .generate import (
    gen_barabasi_albert,
    gen_gnm,
    gen_gnp,
    gen_random_regular,
    gen_watts_strogatz,
)
from .graph import InvariantError, check_graph_invariants
from .instance import all_blue
from .io import load_graph, write_edge_list, write_report_csv
from .pipeline import aggregate, run_exp_aa, run_exp_la, run_instance


# gen --model: generator and the options it takes between n and seed
_MODELS = {
    "gnp": (gen_gnp, ("avg-deg",)),
    "gnm": (gen_gnm, ("avg-deg",)),
    "ws": (gen_watts_strogatz, ("d", "p")),
    "dreg": (gen_random_regular, ("d",)),
    "ba": (gen_barabasi_albert, ("attach",)),
}


def _build_parser():
    parser = argparse.ArgumentParser(prog="rbdom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    approx_choices = [a.value for a in Approximator]

    p = sub.add_parser("gen", help="generate a random graph file")
    p.set_defaults(run=_cmd_gen)
    p.add_argument("--model", required=True, choices=list(_MODELS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--avg-deg", type=float, help="gnp/gnm average degree")
    p.add_argument("--d", type=int, help="ws/dreg degree parameter")
    p.add_argument("--p", type=float, help="ws rewiring probability")
    p.add_argument("--attach", type=int, help="ba attachment count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("solve", help="run one pipeline or solver on a graph")
    p.set_defaults(run=_cmd_solve)
    p.add_argument("--input", required=True)
    p.add_argument("--mode", required=True, choices=["aa", "la", "exact", "greedy"])
    p.add_argument("--approx", choices=approx_choices, default="greedy")
    p.add_argument("--time-limit", type=float, default=30.0)

    p = sub.add_parser("exp", help="run both pipelines over a directory of graphs")
    p.set_defaults(run=_cmd_exp)
    p.add_argument("--dir", required=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--approx", choices=approx_choices, default="greedy")
    p.add_argument("--time-limit", type=float, default=30.0)
    p.add_argument("--category", default=None)
    p.add_argument("--no-exact", action="store_true")

    p = sub.add_parser("verify", help="run the invariant suite on a graph")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--input", required=True)
    return parser


def _cmd_gen(args):
    gen, params = _MODELS[args.model]
    values = [getattr(args, name.replace("-", "_")) for name in params]
    for name, value in zip(params, values):
        if value is None:
            raise ValueError(f"--{name} is required for model {args.model}")
    g = gen(args.n, *values, args.seed)
    Path(args.out).write_text(write_edge_list(g), encoding="utf-8")
    print(f"wrote {args.out}: n={g.n} m={g.m}")
    return 0


def _print_solution(label, sol):
    print(f"{label}={len(sol)}")
    print(" ".join(str(v) for v in sorted(sol)))


def _cmd_solve(args):
    g = load_graph(args.input)
    approx = Approximator(args.approx)
    if args.mode == "aa":
        _print_solution("AA", run_exp_aa(g, approx))
    elif args.mode == "la":
        _print_solution("LA", run_exp_la(g, approx))
    elif args.mode == "greedy":
        _print_solution("GREEDY", approximate(all_blue(g), approx))
    else:
        sol, proven, lb = exact_min(all_blue(g), args.time_limit)
        print(f"EX={len(sol)} proven={str(proven).lower()} lb={lb}")
        print(" ".join(str(v) for v in sorted(sol)))
    return 0


def _graph_files(directory):
    root = Path(directory)
    if not root.is_dir():
        raise ValueError(f"not a directory: {directory}")
    files = [p for p in sorted(root.iterdir()) if p.is_file()]
    if not files:
        raise ValueError(f"no graph files in {directory}")
    return files


def _cmd_exp(args):
    files = _graph_files(args.dir)
    category = args.category or Path(args.dir).resolve().name
    reports = []
    total_aa = total_la = 0.0
    for path in files:
        g = load_graph(path)
        report, aa_s, la_s = run_instance(
            path.stem,
            g,
            approx=Approximator(args.approx),
            time_limit=None if args.no_exact else args.time_limit,
        )
        reports.append(report)
        total_aa += aa_s
        total_la += la_s
        print(
            f"{report.id}: n={report.n} m={report.m} "
            f"aa={report.aa} la={report.la} ex={report.ex} "
            f"aa_s={aa_s:.3f} la_s={la_s:.3f}"
        )
    stats = aggregate(reports, category)
    write_report_csv(reports, args.csv, aggregates=[stats])
    avg = "--" if stats.avg_imprv is None else f"{stats.avg_imprv:.2f}"
    print(
        f"{category}: {stats.count} instances, "
        f"{stats.pct_improved:.2f}% improved, avg imprv {avg}"
    )
    print(f"pipeline seconds: aa={total_aa:.3f} la={total_la:.3f}")
    print(f"wrote {args.csv}")
    return 0


def _cmd_verify(args):
    g = load_graph(args.input)
    check_graph_invariants(g)
    run_instance(Path(args.input).stem, g, time_limit=None)
    print(f"ok: n={g.n} m={g.m} invariants hold")
    return 0


def cli_main(argv=None):
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.run(args)
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
