"""Lossy preprocessing and solvers for the red-blue dominating set problem."""

from .approx import Approximator, approximate
from .exact import brute_force_min, exact_min
from .generate import (
    gen_barabasi_albert,
    gen_gnm,
    gen_gnp,
    gen_random_regular,
    gen_watts_strogatz,
)
from .graph import (
    Graph,
    InvariantError,
    build_graph,
    check_graph_invariants,
    degeneracy_order,
)
from .instance import RBInstance, all_blue, is_valid_solution
from .io import (
    ParseError,
    UnsupportedFormatError,
    load_graph,
    parse_edge_list,
    parse_matrix_market,
    write_edge_list,
    write_report_csv,
)
from .pipeline import (
    AggregateStats,
    RunReport,
    aggregate,
    improvement_pct,
    reduce_instance,
    run_exp_aa,
    run_exp_la,
    run_instance,
)
from .reduce import (
    LiftRecord,
    ReductionTrace,
    lift,
    rr_isolated,
    rr_lossy2,
    rr_pendant_exhaustive,
    scd_nbr,
    verify_psi,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateStats",
    "Approximator",
    "Graph",
    "InvariantError",
    "LiftRecord",
    "ParseError",
    "RBInstance",
    "ReductionTrace",
    "RunReport",
    "UnsupportedFormatError",
    "aggregate",
    "all_blue",
    "approximate",
    "brute_force_min",
    "build_graph",
    "check_graph_invariants",
    "degeneracy_order",
    "exact_min",
    "gen_barabasi_albert",
    "gen_gnm",
    "gen_gnp",
    "gen_random_regular",
    "gen_watts_strogatz",
    "improvement_pct",
    "is_valid_solution",
    "lift",
    "load_graph",
    "parse_edge_list",
    "parse_matrix_market",
    "reduce_instance",
    "rr_isolated",
    "rr_lossy2",
    "rr_pendant_exhaustive",
    "run_exp_aa",
    "run_exp_la",
    "run_instance",
    "scd_nbr",
    "verify_psi",
    "write_edge_list",
    "write_report_csv",
]
