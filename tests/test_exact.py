import sys
from itertools import combinations

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
from rbdom.generate import gen_gnp

from conftest import cycle_graph, domination_number, path_graph, random_graph, star_graph


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


@st.composite
def small_instances(draw, all_blue_only):
    """n <= 12, edge density 0.1..0.5, all blue or an arbitrary blue mask.

    The greedy incumbent is most often beaten at densities 0.2..0.4, where
    the branch and bound has to find the optimum itself.
    """
    n = draw(st.integers(1, 12))
    pairs = list(combinations(range(n), 2))
    density = draw(st.integers(1, 5))
    draws = draw(st.lists(st.integers(0, 9), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, x in zip(pairs, draws) if x < density]
    blue = [True] * n if all_blue_only else draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return RBInstance(build_graph(n, edges), np.array(blue, dtype=bool))


def _check_against_brute_force(inst):
    sol, proven, lb = exact_min(inst, 10.0)
    assert proven
    assert lb == len(sol) == len(brute_force_min(inst))
    assert len(sol) == domination_number(inst.graph, np.flatnonzero(inst.blue))
    assert is_valid_solution(inst, sol)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(small_instances(all_blue_only=True))
def test_exact_agrees_with_brute_force(inst):
    _check_against_brute_force(inst)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(small_instances(all_blue_only=False))
def test_exact_partial_blue(inst):
    _check_against_brute_force(inst)


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
    # stops and so what it returns.
    golden = [
        (14, 19, 18, 13, [1, 3, 4, 5, 10, 11, 14, 18, 19, 22, 24, 27, 28, 31, 33, 39, 49, 59]),
        (29, 17, 16, 13, [0, 1, 4, 5, 6, 13, 18, 20, 26, 31, 36, 37, 43, 46, 50, 59]),
    ]
    for seed, greedy, size, lb, solution in golden:
        inst = all_blue(gen_gnp(70, 5.0, seed))
        assert len(approximate(inst, Approximator.GREEDY_COVER)) == greedy
        sol, proven, got_lb = exact_min(inst, 0.1)
        assert (len(sol), proven, got_lb) == (size, False, lb)
        assert sorted(sol) == solution
        assert is_valid_solution(inst, sol)


def test_lower_bound_is_valid(rng):
    # the packing bound never exceeds the true optimum
    for _ in range(30):
        g = random_graph(rng, n_max=12, n_min=1)
        inst = all_blue(g)
        _, _, lb = exact_min(inst, 10.0)
        assert lb <= domination_number(g)
