"""The two experiment pipelines and their report aggregation.

Both pipelines start from the all-blue instance and apply the isolated rule
once, then the pendant rule exhaustively. The lossy pipeline additionally
applies the lossy rule once before handing the reduced instance to the
drop-in approximator; lifting then unions the recorded add-sets into the
approximator's solution. AA/LA denote the lifted solution sizes of the plain
and lossy pipelines; an instance counts as improved when LA < AA, and its
improvement percentage is (AA - LA) * 100 / EX.
"""

import time
from dataclasses import dataclass

from .approx import Approximator, approximate
from .exact import exact_min
from .graph import InvariantError
from .instance import all_blue, is_valid_solution
from .reduce import (
    ReductionTrace,
    lift,
    rr_isolated,
    rr_lossy2,
    rr_pendant_exhaustive,
    verify_psi,
)


@dataclass
class RunReport:
    """One benchmark row: instance id, sizes, and the three solution values."""

    id: str
    n: int
    m: int
    ex: int | None
    aa: int
    la: int
    imprv: float | None
    ex_proven: bool = True


@dataclass
class AggregateStats:
    category: str
    count: int
    pct_improved: float
    avg_imprv: float | None


def reduce_instance(inst, lossy):
    """Apply isolated once, pendant exhaustively, then optionally lossy once.

    Mutates ``inst`` and returns the trace, one record per rule run. The
    lossy pair map is checked against the reduced instance, where its images
    must still be blue; an invalid one raises InvariantError.
    """
    trace = ReductionTrace([rr_isolated(inst), *rr_pendant_exhaustive(inst)])
    if lossy:
        rec = rr_lossy2(inst)
        if not verify_psi(inst, rec.psi):
            raise InvariantError("lossy rule produced an invalid pair map")
        trace.records.append(rec)
    return trace


def _run_exp(g, approx, lossy):
    """Reduce a fresh all-blue instance of g, approximate, lift."""
    inst = all_blue(g)
    trace = reduce_instance(inst, lossy)
    return lift(trace, approximate(inst, approx))


def run_exp_aa(g, approx=Approximator.GREEDY_COVER):
    """Reduce (isolated + pendant), approximate, lift. Returns a valid solution."""
    return _run_exp(g, approx, lossy=False)


def run_exp_la(g, approx=Approximator.GREEDY_COVER):
    """Like run_exp_aa with the lossy rule inserted before the approximator."""
    return _run_exp(g, approx, lossy=True)


def improvement_pct(aa, la, ex):
    """(aa - la) * 100 / ex when aa > la, else None. ex must be positive."""
    if ex <= 0:
        raise ValueError(f"exact value must be positive, got {ex}")
    if aa <= la:
        return None
    return (aa - la) * 100.0 / ex


def aggregate(reports, category):
    """Share of improved instances and mean improvement among them."""
    reports = list(reports)
    if not reports:
        raise ValueError("cannot aggregate an empty report list")
    improved = [r for r in reports if r.la < r.aa]
    pct = 100.0 * len(improved) / len(reports)
    vals = [r.imprv for r in improved if r.imprv is not None]
    avg = sum(vals) / len(vals) if vals else None
    return AggregateStats(category, len(reports), pct, avg)


def run_instance(instance_id, g, approx=Approximator.GREEDY_COVER, time_limit=30.0):
    """Run both pipelines, and the exact solver unless ``time_limit`` is None, on one graph.

    Returns (RunReport, aa_seconds, la_seconds). Both pipeline outputs and
    the exact solution are checked for validity; a failure raises
    InvariantError.
    """
    inst = all_blue(g)

    t0 = time.perf_counter()
    s_aa = run_exp_aa(g, approx)
    aa_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    s_la = run_exp_la(g, approx)
    la_seconds = time.perf_counter() - t0

    checks = [("AA pipeline output", s_aa), ("LA pipeline output", s_la)]
    ex, proven = None, True
    if time_limit is not None:
        s_ex, proven, _ = exact_min(inst, time_limit)
        checks.append(("exact solution", s_ex))
        ex = len(s_ex)
    for what, s in checks:
        if not is_valid_solution(inst, s):
            raise InvariantError(f"{instance_id}: {what} is not valid")

    aa, la = len(s_aa), len(s_la)
    imprv = improvement_pct(aa, la, ex) if ex else None
    report = RunReport(str(instance_id), g.n, g.m, ex, aa, la, imprv, proven)
    return report, aa_seconds, la_seconds
