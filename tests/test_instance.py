import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbdom import (
    INFEASIBLE,
    RBInstance,
    all_blue,
    build_graph,
    ds_value,
    is_valid_solution,
)

from conftest import closed_sets, coloured_instances, cycle_graph, path_graph, random_graph


def test_all_blue():
    assert all_blue(path_graph(3)).blue_count == 3
    assert all_blue(build_graph(0, [])).blue_count == 0
    assert all_blue(cycle_graph(6)).blue_count == 6


def test_is_valid_solution_examples():
    p3 = all_blue(path_graph(3))
    assert is_valid_solution(p3, {1})
    assert not is_valid_solution(p3, {0})
    all_red = RBInstance(path_graph(3), np.zeros(3, dtype=bool))
    assert is_valid_solution(all_red, set())


def test_ds_value_examples():
    p3 = all_blue(path_graph(3))
    assert ds_value(p3, {1}) == 1
    assert ds_value(p3, {0, 2}) == 2
    assert ds_value(p3, {0}) == INFEASIBLE


def test_infeasible_orders_above_every_integer():
    assert INFEASIBLE > 10**18
    assert not INFEASIBLE < 0


def test_solution_vertices_must_be_in_range():
    p3 = all_blue(path_graph(3))
    for s in ({5}, {2**63}, {2**70}, {-2**70}):
        with pytest.raises(ValueError):
            is_valid_solution(p3, s)


def test_solution_vertices_must_be_integers():
    p3 = all_blue(path_graph(3))
    for s in ({1.5}, {"1"}):
        with pytest.raises(TypeError):
            is_valid_solution(p3, s)
        with pytest.raises(TypeError):
            ds_value(p3, s)
    assert is_valid_solution(p3, {np.int64(1)})


def test_validity_monotone_under_supersets(rng):
    for _ in range(30):
        g = random_graph(rng)
        if g.n == 0:
            continue
        inst = all_blue(g)
        s = set(int(v) for v in rng.choice(g.n, size=min(3, g.n), replace=False))
        if is_valid_solution(inst, s):
            bigger = s | {int(rng.integers(g.n))}
            assert is_valid_solution(inst, bigger)


def test_recoloring_preserves_validity(rng):
    # turning blue vertices red never invalidates an existing solution
    for _ in range(30):
        g = random_graph(rng)
        if g.n == 0:
            continue
        inst = all_blue(g)
        s = set(int(v) for v in rng.choice(g.n, size=max(1, g.n // 3), replace=False))
        reduced = inst.copy()
        recolor = rng.random(g.n) < 0.5
        reduced.blue[recolor] = False
        if is_valid_solution(inst, s):
            assert is_valid_solution(reduced, s)


def test_color_vector_length_checked():
    with pytest.raises(ValueError):
        RBInstance(path_graph(3), np.ones(2, dtype=bool))


@settings(max_examples=200)
@given(coloured_instances(n_max=40), st.data())
def test_validity_matches_closed_neighbourhood_sets(inst, data):
    s = data.draw(st.sets(st.integers(0, inst.graph.n - 1)))
    closed = closed_sets(inst.graph)
    covered = set().union(*(closed[v] for v in s))
    assert is_valid_solution(inst, s) == (set(np.flatnonzero(inst.blue).tolist()) <= covered)
