"""The benchmark's unit of work: edge-list text in, validated result out.

``solve`` is the untraced operation whose time is the end-to-end metric.
``traced_solve`` calls the same public functions one by one, in the order
``run_exp_aa``, ``run_exp_la`` and ``exact_min`` callers use them, with a
span around each call, so the per-layer times come from outside the package.
"""

from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from rbdom import (
    Approximator,
    ReductionTrace,
    all_blue,
    approximate,
    build_graph,
    degeneracy_order,
    exact_min,
    is_valid_solution,
    lift,
    parse_edge_list,
    rr_isolated,
    rr_lossy2,
    rr_pendant_exhaustive,
    run_exp_aa,
    run_exp_la,
    scd_nbr,
    verify_psi,
)
from rbdom.exact import WORK_UNITS_PER_SECOND


@dataclass
class Result:
    aa: tuple  # sorted solutions
    la: tuple
    ex: tuple | None
    proven: bool | None
    lb: int | None
    valid: bool
    op_s: float  # the whole operation
    aa_s: float
    la_s: float
    ex_s: float

    def outputs(self):
        return self.aa, self.la, self.ex, self.proven, self.lb


def _outputs(s_aa, s_la, ex):
    """Sorted AA and LA solutions and exact_min's (solution, proven, lb), as Result fields."""
    if ex is None:
        return tuple(sorted(s_aa)), tuple(sorted(s_la)), None, None, None
    return tuple(sorted(s_aa)), tuple(sorted(s_la)), tuple(sorted(ex[0])), ex[1], ex[2]


def solve(text, wl):
    """Parse, run AA and LA (and EX), check every solution. Returns (graph, Result)."""
    t0 = perf_counter()
    g = parse_edge_list(text)
    t1 = perf_counter()
    s_aa = run_exp_aa(g, wl.approx)
    t2 = perf_counter()
    s_la = run_exp_la(g, wl.approx)
    t3 = perf_counter()
    ex = exact_min(all_blue(g), wl.exact_limit) if wl.exact_limit else None
    t4 = perf_counter()
    inst = all_blue(g)
    valid = is_valid_solution(inst, s_aa) and is_valid_solution(inst, s_la)
    if ex is not None:
        valid = valid and is_valid_solution(inst, ex[0])
    t5 = perf_counter()
    res = Result(*_outputs(s_aa, s_la, ex), valid, op_s=t5 - t0, aa_s=t2 - t1, la_s=t3 - t2, ex_s=t4 - t3)
    return g, res


def problems(g, res):
    """Reasons the result is wrong, checked outside the timed region."""
    out = [] if res.valid else ["a solution does not dominate every vertex"]
    if res.ex is None:
        return out
    size, lb = len(res.ex), res.lb
    incumbent = len(approximate(all_blue(g), Approximator.GREEDY_COVER))
    if lb > size:
        out.append(f"exact lower bound {lb} above its solution size {size}")
    if res.proven and lb != size:
        out.append(f"proven optimum {size} but lower bound {lb}")
    if size > incumbent:
        out.append(f"exact size {size} above the greedy incumbent {incumbent}")
    if lb > min(len(res.aa), len(res.la)):
        out.append(f"lower bound {lb} above a valid AA/LA solution")
    if res.proven and size > min(len(res.aa), len(res.la)):
        out.append(f"proven optimum {size} above a valid AA/LA solution")
    return out


def budget_units(time_limit):
    """The work budget exact_min derives from its time limit."""
    return max(10_000, int(time_limit * WORK_UNITS_PER_SECOND))


class Tracer:
    """Spans kept in memory as [name, parent index, start, end].

    ``call`` times one public call with nothing else inside the span, so the
    span's own cost stays outside the layer it measures.
    """

    def __init__(self):
        self.spans = []

    def begin(self, name, parent=None):
        self.spans.append([name, parent, perf_counter(), None])
        return len(self.spans) - 1

    def end(self, sid):
        self.spans[sid][3] = perf_counter()

    def call(self, name, parent, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        self.spans.append([name, parent, t0, perf_counter()])
        return out

    def duration(self, sid):
        _, _, t0, t1 = self.spans[sid]
        return t1 - t0

    def totals(self):
        """Summed duration per span name."""
        out = Counter()
        for name, _, t0, t1 in self.spans:
            out[name] += t1 - t0
        return out

    def children_time(self, parents):
        parents = set(parents)
        return sum(t1 - t0 for _, p, t0, t1 in self.spans if p in parents)


def _pipeline(tr, parent, g, approx, lossy, counts):
    """run_exp_aa / run_exp_la, one span per public call.

    Returns the lifted solution and, for LA, the pre-rule instance and the
    lossy record so the pair map can be checked outside the timed pipeline.
    """
    tag = "la" if lossy else "aa"
    inst = tr.call("instance.all_blue", parent, all_blue, g)
    trace = ReductionTrace()
    rec = tr.call("reduce.rr_isolated", parent, rr_isolated, inst)
    if rec is not None:
        trace.records.append(rec)
        counts["reduce.isolated_recolored"] += len(rec.add_set)
    blue = inst.blue_count
    recs = tr.call("reduce.rr_pendant_exhaustive", parent, rr_pendant_exhaustive, inst)
    trace.records.extend(recs)
    counts["reduce.pendant_applications"] += len(recs)
    counts["reduce.pendant_recolored"] += blue - inst.blue_count
    before = rec = None
    if lossy:
        before = inst.copy()
        blue = inst.blue_count
        rec = tr.call("reduce.rr_lossy2", parent, rr_lossy2, inst)
        counts["reduce.lossy_blue_before"] += blue
        if rec is not None:
            trace.records.append(rec)
            counts["reduce.lossy_x_size"] += len(rec.add_set)
            counts["reduce.lossy_recolored"] += blue - inst.blue_count
    counts[f"approx.blue_{tag}"] += inst.blue_count
    s_reduced = tr.call(f"approx.approximate_{tag}", parent, approximate, inst, approx)
    counts[f"approx.picks_{tag}"] += len(s_reduced)
    s = tr.call("reduce.lift", parent, lift, trace, s_reduced)
    return s, before, rec


def traced_solve(tr, text, wl, counts):
    """``solve`` composed from its public calls, plus standalone layer calls.

    Returns (op span id, pipeline span ids, outputs as in Result.outputs,
    problems found by the standalone checks).
    """
    op = tr.begin("op")
    g = tr.call("io.parse_edge_list", op, parse_edge_list, text)
    p_aa = tr.begin("pipeline.aa", op)
    s_aa, _, _ = _pipeline(tr, p_aa, g, wl.approx, False, counts)
    tr.end(p_aa)
    p_la = tr.begin("pipeline.la", op)
    s_la, before, rec = _pipeline(tr, p_la, g, wl.approx, True, counts)
    tr.end(p_la)
    ex = None
    if wl.exact_limit:
        inst = tr.call("instance.all_blue", op, all_blue, g)
        ex = tr.call("exact.exact_min", op, exact_min, inst, wl.exact_limit)
        ex_s = tr.duration(-1)
    inst = tr.call("instance.all_blue", op, all_blue, g)
    for s in (s_aa, s_la) if ex is None else (s_aa, s_la, ex[0]):
        tr.call("instance.is_valid_solution", op, is_valid_solution, inst, s)
    tr.end(op)
    if ex is not None:
        counts["exact.proven"] += ex[1]
        counts["exact.lb_sum"] += ex[2]
        if not ex[1]:
            counts["exact.budget_units"] += budget_units(wl.exact_limit)
            counts["exact.budget_s"] += ex_s

    found = []
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    keep = src < g.indices
    edges = np.column_stack([src[keep], g.indices[keep]])
    alone = tr.begin("standalone")
    if tr.call("graph.build_graph", alone, build_graph, g.n, edges) != g:
        found.append("build_graph on the graph's own edges changed the graph")
    tr.call("reduce.scd_nbr", alone, scd_nbr, g)
    tr.call("graph.degeneracy_order", alone, degeneracy_order, g)
    if rec is not None and not tr.call("reduce.verify_psi", alone, verify_psi, before, rec.psi):
        found.append("lossy rule produced an invalid pair map")
    tr.end(alone)
    return op, (p_aa, p_la), _outputs(s_aa, s_la, ex), found
