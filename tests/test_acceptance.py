"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Random suites are fully seeded; reruns are bit-identical.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from rbdom import (
    Approximator,
    all_blue,
    approximate,
    brute_force_min,
    build_graph,
    exact_min,
    gen_barabasi_albert,
    gen_gnm,
    gen_gnp,
    gen_random_regular,
    gen_watts_strogatz,
    improvement_pct,
    is_valid_solution,
    lift,
    run_exp_aa,
    run_exp_la,
    rr_isolated,
    rr_lossy2,
    rr_pendant_exhaustive,
    verify_psi,
)
from rbdom.io import round_half_up
from rbdom.pipeline import reduce_instance

from conftest import random_edges


def _report(name, ok, detail=""):
    print(f"\n[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def _mixed_suite_graph(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(16, 201))
    model = seed % 4
    if model == 0:
        return gen_gnp(n, float(rng.uniform(2.0, 12.0)), seed)
    if model == 1:
        return gen_gnm(n, float(rng.uniform(2.0, 12.0)), seed)
    if model == 2:
        return gen_watts_strogatz(n, int(rng.integers(2, 11)), float(rng.choice(np.arange(1, 10) / 10)), seed)
    d = int(rng.integers(3, 9))
    if (n * d) % 2:
        n += 1
    return gen_random_regular(n, d, seed)


@pytest.fixture(scope="module")
def mixed_suite():
    return [_mixed_suite_graph(seed) for seed in range(1, 1001)]


def test_lift_validity_on_mixed_suite(mixed_suite):
    t0 = time.perf_counter()
    failures = 0
    for g in mixed_suite:
        inst = all_blue(g)
        if not is_valid_solution(inst, run_exp_aa(g)):
            failures += 1
        if not is_valid_solution(inst, run_exp_la(g)):
            failures += 1
    elapsed = time.perf_counter() - t0
    _report(
        "lift validity (1000 mixed instances)",
        failures == 0 and elapsed < 60.0,
        f"failures={failures} elapsed={elapsed:.1f}s",
    )


def test_psi_properties_on_mixed_suite(mixed_suite):
    checked = 0
    bad = 0
    for g in mixed_suite:
        inst = all_blue(g)
        rr_isolated(inst)
        rr_pendant_exhaustive(inst)
        before = inst.copy()
        rec = rr_lossy2(inst)
        if rec is not None:
            checked += 1
            if not verify_psi(before, rec.psi):
                bad += 1
    _report(
        "pair-map properties on every lossy application",
        bad == 0 and checked > 0,
        f"checked={checked} bad={bad}",
    )


def _small_graph(i):
    rng = np.random.default_rng(10_000 + i)
    n = int(rng.integers(4, 17))
    p = float(rng.uniform(0.15, 0.65))
    return build_graph(n, random_edges(rng, n, p))


def _drop_ins(inst_reduced, opt_reduced_set):
    yield approximate(inst_reduced, Approximator.GREEDY_COVER)
    yield set(opt_reduced_set)
    yield set(range(inst_reduced.graph.n))


def test_strictness_of_isolated_and_pendant_rules():
    violations = 0
    for i in range(500):
        g = _small_graph(i)
        orig = all_blue(g)
        opt = len(brute_force_min(orig))
        inst = orig.copy()
        trace = reduce_instance(inst, lossy=False)
        opt_red_set = brute_force_min(inst)
        opt_red = len(opt_red_set)
        for s_red in _drop_ins(inst, opt_red_set):
            lifted = lift(trace, s_red)
            if not (is_valid_solution(inst, s_red) and is_valid_solution(orig, lifted)):
                violations += 1
                continue
            ds_red, ds_lift = len(s_red), len(lifted)
            if opt_red == 0:
                ok = ds_red > 0 or Fraction(ds_lift, opt) <= 1
            else:
                bound = max(Fraction(ds_red, opt_red), Fraction(1))
                ok = Fraction(ds_lift, opt) <= bound
            violations += not ok
    _report("strict factor-one bound (isolated+pendant)", violations == 0, f"violations={violations}")


def test_factor_two_bound_of_lossy_rule():
    violations = 0
    witness_failures = 0
    for i in range(500):
        g = _small_graph(i)
        orig = all_blue(g)
        opt = len(brute_force_min(orig))
        inst = orig.copy()
        trace = reduce_instance(inst, lossy=True)
        opt_red_set = brute_force_min(inst)
        opt_red = len(opt_red_set)

        lossy_recs = [r for r in trace.records if r.psi is not None]
        if lossy_recs:
            pm = lossy_recs[0].psi
            if len(pm) > opt_red:
                witness_failures += 1  # |X| = |Z| must not exceed any solution
            touched = set()
            for z in pm.values():
                ball = set(int(u) for u in g.neighbors(z)) | {z}
                if touched & ball:
                    witness_failures += 1
                touched |= ball

        for s_red in _drop_ins(inst, opt_red_set):
            lifted = lift(trace, s_red)
            if not (is_valid_solution(inst, s_red) and is_valid_solution(orig, lifted)):
                violations += 1
                continue
            ds_red, ds_lift = len(s_red), len(lifted)
            if opt_red == 0:
                ok = ds_red > 0 or Fraction(ds_lift, opt) <= 1
            else:
                ok = Fraction(ds_lift, opt) <= 2 * Fraction(ds_red, opt_red)
            violations += not ok
    _report(
        "factor-two bound and packing witness (lossy rule)",
        violations == 0 and witness_failures == 0,
        f"violations={violations} witness_failures={witness_failures}",
    )


def test_exact_solver_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    unproven = 0
    for i in range(200):
        rng = np.random.default_rng(20_000 + i)
        n = int(rng.integers(1, 15))
        g = build_graph(n, random_edges(rng, n, float(rng.uniform(0.1, 0.7))))
        inst = all_blue(g)
        sol, proven, lb = exact_min(inst, 10.0)
        if not proven:
            unproven += 1
            continue
        if len(sol) != len(brute_force_min(inst)) or lb != len(sol):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(
        "exact-solver equivalence (200 graphs, n <= 14)",
        mismatches == 0 and unproven == 0 and elapsed < 120.0,
        f"mismatches={mismatches} unproven={unproven} elapsed={elapsed:.1f}s",
    )


def test_improvement_formula_reference_rows():
    rows = [
        ((254, 238, 194), 8.25),
        ((498, 467, 306), 10.13),
        ((1114, 1016, 376), 26.06),
    ]
    ok = all(
        round_half_up(improvement_pct(aa, la, ex)) == expected
        for (aa, la, ex), expected in rows
    )
    _report("improvement formula on reference rows", ok)


@pytest.mark.slow
def test_directional_improvement_on_random_binomial_graphs():
    # 50 instances, n in [1000, 10000], avg_deg in [6, 20]; improvement
    # fraction must reach 30%
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    improved = 0
    for i in range(50):
        n = int(rng.integers(1000, 10001))
        avg = float(rng.uniform(6.0, 20.0))
        g = gen_gnp(n, avg, 777_000 + i)
        if len(run_exp_la(g)) < len(run_exp_aa(g)):
            improved += 1
    elapsed = time.perf_counter() - t0
    _report(
        "directional improvement on binomial graphs",
        improved >= 15 and elapsed < 600.0,
        f"improved={improved}/50 elapsed={elapsed:.1f}s",
    )


@pytest.mark.slow
def test_preferential_attachment_rarely_improves():
    rng = np.random.default_rng(31415)
    improved = 0
    for i in range(25):
        n = int(rng.integers(1000, 10001))
        attach = int(rng.integers(3, 11))
        g = gen_barabasi_albert(n, attach, 888_000 + i)
        if len(run_exp_la(g)) < len(run_exp_aa(g)):
            improved += 1
    _report(
        "preferential-attachment negative result",
        improved <= 5,
        f"improved={improved}/25",
    )


@pytest.mark.slow
def test_reduction_and_pipeline_performance():
    # warm-up call outside the timed region
    small = gen_gnp(200, 8.0, 1)
    run_exp_la(small)

    g = gen_gnp(50_000, 20.0, 4242)
    inst = all_blue(g)
    t0 = time.perf_counter()
    reduce_instance(inst, lossy=True)
    t_reduce = time.perf_counter() - t0

    t0 = time.perf_counter()
    sol = run_exp_la(g)
    t_full = time.perf_counter() - t0
    ok = t_reduce < 10.0 and t_full < 60.0 and is_valid_solution(all_blue(g), sol)
    _report(
        "performance on n=50000, avg_deg=20",
        ok,
        f"reductions={t_reduce:.2f}s full={t_full:.2f}s",
    )


def test_generator_sanity():
    expected = 12.0 / 10000 * (10000 * 9999 / 2)  # 59994 expected edges
    mean_m = np.mean([gen_gnp(10000, 12.0, seed).m for seed in range(20)])
    gnp_ok = abs(mean_m - expected) <= 0.05 * expected

    dreg_ok = True
    for d, seed in ((4, 1), (9, 2)):
        g = gen_random_regular(500, d, seed)
        dreg_ok = dreg_ok and np.diff(g.indptr).tolist() == [d] * 500

    g = gen_watts_strogatz(40, 6, 0.0, 3)
    ring_ok = g.m == 40 * 3 and set(np.diff(g.indptr).tolist()) == {6}
    for off in (1, 2, 3):
        ring_ok = ring_ok and all((u + off) % 40 in g.neighbors(u) for u in range(40))

    _report(
        "generator sanity",
        gnp_ok and dreg_ok and ring_ok,
        f"gnp mean m={mean_m:.0f} (target {expected:.0f})",
    )
