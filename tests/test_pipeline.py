import pytest
from hypothesis import given, settings

from rbdom import (
    Approximator,
    InvariantError,
    LiftRecord,
    aggregate,
    all_blue,
    build_graph,
    improvement_pct,
    is_valid_solution,
    run_exp_aa,
    run_exp_la,
    run_instance,
)
from rbdom.pipeline import RunReport, reduce_instance

from conftest import (
    coloured_instances,
    cycle_graph,
    domination_number,
    milp_optimum,
    path_graph,
    random_graph,
    star_graph,
)


def test_exp_star():
    g = star_graph(5)
    assert len(run_exp_aa(g)) == 1
    assert len(run_exp_la(g)) == 1


def test_exp_edgeless():
    g = build_graph(4, [])
    assert run_exp_aa(g) == {0, 1, 2, 3}
    assert run_exp_la(g) == {0, 1, 2, 3}


def test_exp_aa_c6():
    g = cycle_graph(6)
    sol = run_exp_aa(g)
    assert len(sol) == 2 == domination_number(g)
    assert is_valid_solution(all_blue(g), sol)


def test_exp_la_p7():
    g = path_graph(7)
    sol = run_exp_la(g)
    assert is_valid_solution(all_blue(g), sol)
    opt = domination_number(g)
    assert opt == 3
    assert len(sol) <= 2 * opt
    assert len(sol) == 3  # pendant rule takes {1, 5}, greedy finishes with {2}


def test_pipelines_always_valid(rng):
    for _ in range(40):
        g = random_graph(rng, n_max=60)
        inst = all_blue(g)
        for which in Approximator:
            assert is_valid_solution(inst, run_exp_aa(g, which))
            assert is_valid_solution(inst, run_exp_la(g, which))


def test_run_exp_la_rejects_invalid_pair_map(neighbour_image_lossy):
    with pytest.raises(InvariantError, match="pair map"):
        run_exp_la(cycle_graph(6))


def test_pair_map_checked_on_the_reduced_instance(recoloured_image_lossy):
    with pytest.raises(InvariantError, match="pair map"):
        reduce_instance(all_blue(cycle_graph(6)), lossy=True)
    with pytest.raises(InvariantError, match="pair map"):
        run_exp_la(cycle_graph(6))


def test_improvement_pct_appendix_rows():
    assert improvement_pct(254, 238, 194) == pytest.approx(8.2474, abs=1e-4)
    assert improvement_pct(498, 467, 306) == pytest.approx(10.1307, abs=1e-4)
    assert improvement_pct(1114, 1016, 376) == pytest.approx(26.0638, abs=1e-4)


def test_improvement_pct_none_when_no_gain():
    assert improvement_pct(100, 100, 50) is None
    assert improvement_pct(90, 100, 50) is None


def test_improvement_pct_rejects_nonpositive_ex():
    with pytest.raises(ValueError):
        improvement_pct(5, 4, 0)


def _report(i, aa, la, ex=100):
    imprv = improvement_pct(aa, la, ex)
    return RunReport(str(i), 10, 10, ex, aa, la, imprv)


def test_aggregate_pct():
    rows = [_report(i, 10, 9) for i in range(57)]
    rows += [_report(i, 10, 10) for i in range(57, 100)]
    stats = aggregate(rows, "er-large")
    assert stats.count == 100
    assert stats.pct_improved == pytest.approx(57.00)


def test_aggregate_avg_over_improved_only():
    rows = [
        _report(0, 5000, 1289, 10000),  # imprv 37.11
        _report(1, 4000, 289, 10000),  # imprv 37.11
        _report(2, 100, 100, 100),  # not improved, excluded from the mean
    ]
    stats = aggregate(rows, "x")
    assert stats.avg_imprv == pytest.approx(37.11)
    assert stats.pct_improved == pytest.approx(200 / 3)


def test_aggregate_single_unimproved():
    stats = aggregate([_report(0, 5, 5)], "one")
    assert stats.pct_improved == 0
    assert stats.avg_imprv is None


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate([], "none")


@pytest.mark.parametrize(
    "k, lossy_rec",
    [(9, LiftRecord(frozenset({3}), {3: 5})), (7, LiftRecord(frozenset(), {}))],
)
def test_trace_holds_one_record_per_rule_run(k, lossy_rec):
    # P_k has pendants at both ends and no isolated vertex
    trace = reduce_instance(all_blue(path_graph(k)), lossy=True)
    assert trace.records == [
        LiftRecord(frozenset()),
        LiftRecord(frozenset({1})),
        LiftRecord(frozenset({k - 2})),
        lossy_rec,
    ]


@settings(max_examples=150)
@given(coloured_instances(n_max=40))
def test_lossless_rules_keep_milp_optimum(inst):
    opt = milp_optimum(inst)
    trace = reduce_instance(inst, lossy=False)
    added = sum(len(rec.add_set) for rec in trace.records)
    assert milp_optimum(inst) + added == opt


@settings(max_examples=150)
@given(coloured_instances(n_max=40))
def test_lossy_rule_bounds_against_milp_optimum(inst):
    # |X| never exceeds the reduced optimum, so lifting at most doubles OPT
    opt = milp_optimum(inst)
    trace = reduce_instance(inst, lossy=True)
    opt_red = milp_optimum(inst)
    assert len(trace.records[-1].add_set) <= opt_red  # the lossy record comes last
    added = sum(len(rec.add_set) for rec in trace.records)
    assert opt_red + added <= 2 * opt


def test_run_instance_report_invariant(rng):
    for seed in range(5):
        g = random_graph(rng, n_max=30, n_min=5)
        report, aa_s, la_s = run_instance("g", g, time_limit=2.0)
        assert report.n == g.n and report.m == g.m
        assert (report.imprv is not None) == (
            report.ex is not None and report.ex > 0 and report.aa > report.la
        )
        assert aa_s >= 0 and la_s >= 0


def test_run_instance_deterministic(rng):
    g = random_graph(rng, n_max=40, n_min=10)
    a, _, _ = run_instance("g", g, time_limit=1.0)
    b, _, _ = run_instance("g", g, time_limit=1.0)
    assert a == b


def test_run_instance_rejects_invalid_exact_solution(monkeypatch):
    # an empty set leaves every vertex of P4 undominated
    monkeypatch.setattr("rbdom.pipeline.exact_min", lambda inst, limit: (set(), True, 0))
    with pytest.raises(InvariantError, match="p4: exact solution is not valid"):
        run_instance("p4", path_graph(4), time_limit=1.0)


def test_run_instance_without_time_limit_skips_exact(monkeypatch):
    def fail(inst, limit):
        raise AssertionError("exact_min called")

    monkeypatch.setattr("rbdom.pipeline.exact_min", fail)
    report, _, _ = run_instance("p4", path_graph(4), time_limit=None)
    assert report.ex is None and report.imprv is None
    assert (report.aa, report.la) == (2, 2)


@pytest.mark.parametrize("pipeline, label", [("run_exp_aa", "AA"), ("run_exp_la", "LA")])
def test_run_instance_rejects_invalid_pipeline_output(monkeypatch, pipeline, label):
    # an empty set leaves every vertex of P4 undominated
    monkeypatch.setattr(f"rbdom.pipeline.{pipeline}", lambda g, approx: set())
    with pytest.raises(InvariantError, match=f"p4: {label} pipeline output is not valid"):
        run_instance("p4", path_graph(4), time_limit=1.0)
