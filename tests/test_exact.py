import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbdom import (
    Approximator,
    RBInstance,
    all_blue,
    approximate,
    brute_force_min,
    build_graph,
    exact_min,
    is_valid_solution,
)
from rbdom.exact import _greedy_cover, _masks
from rbdom.generate import gen_barabasi_albert, gen_gnp, gen_watts_strogatz
from rbdom.pipeline import reduce_instance

from conftest import (
    coloured_instances,
    cycle_graph,
    domination_number,
    exact_min_reference,
    greedy_cover_reference,
    milp_optimum,
    path_graph,
    random_graph,
    small_instances,
    star_graph,
)


def test_brute_force_p5():
    sol = brute_force_min(all_blue(path_graph(5)))
    assert len(sol) == 2


def test_brute_force_c6():
    assert len(brute_force_min(all_blue(cycle_graph(6)))) == 2


def test_brute_force_all_red():
    inst = RBInstance(path_graph(4), np.zeros(4, dtype=bool))
    assert brute_force_min(inst) == set()


def test_brute_force_lexicographic_tiebreak():
    # many optimal pairs exist in C6; the lexicographically least is {0, 3}
    assert brute_force_min(all_blue(cycle_graph(6))) == {0, 3}


def test_brute_force_guard():
    with pytest.raises(ValueError, match="n=25"):
        brute_force_min(all_blue(build_graph(25, [])))


def test_brute_force_matches_enumeration_oracle(rng):
    for _ in range(25):
        g = random_graph(rng, n_max=9, n_min=1)
        got = brute_force_min(all_blue(g))
        assert len(got) == domination_number(g)
        assert is_valid_solution(all_blue(g), got)


def test_exact_p7():
    sol, proven, lb = exact_min(all_blue(path_graph(7)), 5.0)
    assert len(sol) == 3 and proven and lb == 3


def test_exact_star():
    sol, proven, lb = exact_min(all_blue(star_graph(5)), 5.0)
    assert sol == {0} and proven and lb == 1


def test_exact_rejects_bad_budget():
    for budget in (0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="time budget"):
            exact_min(all_blue(path_graph(3)), budget)


def test_exact_leaves_recursion_limit_alone():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        inst = all_blue(gen_gnp(70, 5.0, 14))
        greedy = approximate(inst, Approximator.GREEDY_COVER)
        sol, _, _ = exact_min(inst, 0.1)
        assert len(sol) < len(greedy)  # the search ran past the incumbent
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(old)


def _check_against_brute_force(inst):
    sol, proven, lb = exact_min(inst, 10.0)
    assert proven
    assert lb == len(sol) == len(brute_force_min(inst))
    assert len(sol) == domination_number(inst.graph, np.flatnonzero(inst.blue))
    assert is_valid_solution(inst, sol)


@settings(max_examples=150)
@given(small_instances(12, all_blue_only=True))
def test_exact_agrees_with_brute_force(inst):
    _check_against_brute_force(inst)


@settings(max_examples=150)
@given(small_instances(12, all_blue_only=False))
def test_exact_partial_blue(inst):
    _check_against_brute_force(inst)


@settings(max_examples=150)
@given(coloured_instances(n_max=60), st.sampled_from([0.04, 1.0]))
def test_exact_brackets_milp_optimum(inst, budget):
    opt = milp_optimum(inst)
    greedy = approximate(inst, Approximator.GREEDY_COVER)
    sol, proven, lb = exact_min(inst, budget)
    assert lb <= opt <= len(sol) <= len(greedy)
    if proven:
        assert len(sol) == opt
    assert is_valid_solution(inst, sol)


def test_exact_budget_expiry_is_sound_and_deterministic():
    g = gen_gnp(600, 8.0, 3)
    inst = all_blue(g)
    a = exact_min(inst, 0.05)
    b = exact_min(inst, 0.05)
    assert a == b  # deterministic work budget
    sol, proven, lb = a
    assert is_valid_solution(inst, sol)
    assert lb <= len(sol)
    if proven:
        assert lb == len(sol)

    # Golden values: each search improves the greedy incumbent, then spends
    # its budget. They pin the work accounting, which decides where a search
    # stops and so what it returns. At 0.083 s the root packing bound, paid
    # for once, leaves just enough budget to reach the size-16 solution.
    golden = [
        (14, 0.1, 19, 18, 13, [1, 3, 4, 5, 10, 11, 14, 18, 19, 22, 24, 27, 28, 31, 33, 39, 49, 59]),
        (29, 0.1, 17, 16, 13, [0, 1, 4, 5, 6, 13, 18, 20, 26, 31, 36, 37, 43, 46, 50, 59]),
        (29, 0.083, 17, 16, 13, [0, 1, 4, 5, 6, 13, 18, 20, 26, 31, 36, 37, 43, 46, 50, 59]),
    ]
    for seed, budget, greedy, size, lb, solution in golden:
        inst = all_blue(gen_gnp(70, 5.0, seed))
        assert len(approximate(inst, Approximator.GREEDY_COVER)) == greedy
        sol, proven, got_lb = exact_min(inst, budget)
        assert (len(sol), proven, got_lb) == (size, False, lb)
        assert sorted(sol) == solution
        assert is_valid_solution(inst, sol)


def test_exact_budget_spent_at_the_root_returns_the_incumbent():
    # the root packing bound alone charges n + 2m > 10,000 units, the least
    # budget, so the search stops before its first node
    g = gen_gnp(2000, 8.0, 1)
    assert g.n + 2 * g.m > 10_000
    inst = all_blue(g)
    greedy = approximate(inst, Approximator.GREEDY_COVER)
    assert len(greedy) == 337
    assert exact_min(inst, 0.001) == (greedy, False, 190)


def test_lower_bound_is_valid(rng):
    # the packing bound never exceeds the true optimum
    for _ in range(30):
        g = random_graph(rng, n_max=12, n_min=1)
        inst = all_blue(g)
        _, _, lb = exact_min(inst, 10.0)
        assert lb <= domination_number(g)


def test_incumbent_matches_greedy_reference(rng):
    # the bitset greedy picks what GREEDY_COVER picks, in the same order
    graphs = [build_graph(0, [])]
    graphs += [random_graph(rng, n_max=30) for _ in range(20)]
    graphs += [gen_gnp(300, 6.0, 1), gen_barabasi_albert(200, 3, 2), gen_watts_strogatz(250, 6, 0.3, 3)]
    for g in graphs:
        reduced = all_blue(g)
        reduce_instance(reduced, lossy=True)
        for blue in (np.ones(g.n, bool), rng.random(g.n) < 0.4, np.zeros(g.n, bool), reduced.blue):
            picks = _greedy_cover(*_masks(RBInstance(g, blue)))
            assert picks == greedy_cover_reference(g, np.flatnonzero(blue).tolist())


def _same_as_reference(inst, budget):
    sol, proven, lb = exact_min(inst, budget)
    ref_sol, ref_proven, ref_lb = exact_min_reference(inst, budget)
    assert (sorted(sol), proven, lb) == (sorted(ref_sol), ref_proven, ref_lb)


@settings(max_examples=150)
@given(coloured_instances(n_max=60), st.sampled_from([0.001, 0.04, 0.4]))
def test_exact_search_matches_reference(inst, budget):
    # same nodes, same work charged: identical results for every budget
    _same_as_reference(inst, budget)


def test_exact_search_matches_reference_on_truncated_searches():
    # n 40-90 as on the benchmark's exact set, where most budgets run out
    rng = np.random.default_rng(11)
    for i in range(30):
        n = int(rng.integers(40, 91))
        deg = float(rng.uniform(2.0, 8.0))
        if i % 3 == 0:
            g = gen_gnp(n, deg, i)
        elif i % 3 == 1:
            g = gen_watts_strogatz(n, max(2, round(deg)), 0.3, i)
        else:
            g = gen_barabasi_albert(n, max(1, round(deg / 2)), i)
        for budget in (0.001, 0.04, 0.4):
            _same_as_reference(all_blue(g), budget)
