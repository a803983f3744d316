import math

import numpy as np
import pytest

from rbdom import (
    Approximator,
    RBInstance,
    all_blue,
    approximate,
    build_graph,
    degeneracy_order,
    is_valid_solution,
)
from rbdom.approx import _greedy_picks, _heap_pop, _heap_push
from rbdom.generate import gen_barabasi_albert, gen_gnp, gen_watts_strogatz
from rbdom.pipeline import reduce_instance

from conftest import cycle_graph, domination_number, greedy_cover_reference, random_graph, star_graph


def test_star_center():
    assert approximate(all_blue(star_graph(9))) == {0}


def test_all_red_returns_empty():
    g = cycle_graph(5)
    inst = RBInstance(g, np.zeros(5, dtype=bool))
    assert approximate(inst) == set()
    assert approximate(inst, Approximator.DEGENERACY_GUIDED) == set()


def test_c6_matches_optimum():
    g = cycle_graph(6)
    sol = approximate(all_blue(g))
    assert len(sol) == 2 == domination_number(g)


def test_heap_sorts(rng):
    values = rng.integers(0, 1 << 40, size=200)
    heap = np.empty(values.size, dtype=np.int64)
    size = 0
    for v in values:
        size = _heap_push(heap, size, int(v))
    popped = []
    while size:
        item, size = _heap_pop(heap, size)
        popped.append(item)
    assert popped == sorted(int(v) for v in values)


def _check_against_reference(g, colourings):
    """Pick order, not only the set, under both tie rules."""
    ident = np.arange(g.n, dtype=np.int64)
    order, _ = degeneracy_order(g)
    rank = np.empty(g.n, dtype=np.int64)
    rank[order] = ident
    for blue in colourings:
        inst = RBInstance(g, blue.copy())
        targets = np.flatnonzero(blue).tolist()
        for which, tie, untie in (
            (Approximator.GREEDY_COVER, ident, ident),
            (Approximator.DEGENERACY_GUIDED, rank, order),
        ):
            want = greedy_cover_reference(g, targets, tie)
            assert _greedy_picks(g, blue.copy(), tie, untie) == want
            assert approximate(inst, which) == set(want)
        assert np.array_equal(inst.blue, blue)  # caller state untouched


def test_matches_reference_greedy(rng):
    # the empty graph and four colourings of small random graphs, then
    # all-blue and LA-reduced mid-size generator graphs, whose heaps go
    # several levels deeper
    for g in [build_graph(0, [])] + [random_graph(rng, n_max=30) for _ in range(60)]:
        reduced = all_blue(g)
        reduce_instance(reduced, lossy=True)
        _check_against_reference(
            g,
            (np.ones(g.n, bool), rng.random(g.n) < 0.5, np.zeros(g.n, bool), reduced.blue),
        )
    for g in (
        gen_gnp(300, 6.0, 1),
        gen_gnp(400, 3.0, 2),
        gen_barabasi_albert(300, 2, 3),
        gen_watts_strogatz(300, 6, 0.3, 4),
    ):
        reduced = all_blue(g)
        reduce_instance(reduced, lossy=True)
        _check_against_reference(g, (np.ones(g.n, dtype=bool), reduced.blue))


def test_drop_in_named_by_its_value():
    # on this graph the two tie rules pick different sets of the same size
    inst = all_blue(gen_gnp(300, 6.0, 1))
    for which in Approximator:
        assert approximate(inst, which.value) == approximate(inst, which)
    assert approximate(inst, "degeneracy") != approximate(inst, Approximator.GREEDY_COVER)
    for bad in ("nonsense", "GREEDY_COVER", None):
        with pytest.raises(ValueError, match="not a valid Approximator"):
            approximate(inst, bad)


def test_output_always_valid_and_deterministic(rng):
    for _ in range(40):
        g = random_graph(rng, n_max=50)
        inst = all_blue(g)
        for which in Approximator:
            a = approximate(inst, which)
            b = approximate(inst, which)
            assert a == b
            assert len(a) <= g.n
            assert is_valid_solution(inst, a)


def test_partial_blue_instances(rng):
    for _ in range(30):
        g = random_graph(rng, n_max=30)
        if g.n == 0:
            continue
        blue = rng.random(g.n) < 0.5
        inst = RBInstance(g, blue)
        for which in Approximator:
            assert is_valid_solution(inst, approximate(inst, which))


def test_greedy_within_log_factor_of_optimum(rng):
    # classical set-cover guarantee, used as a sanity bound on small graphs
    for _ in range(20):
        g = random_graph(rng, n_max=12, n_min=1)
        opt = domination_number(g)
        got = len(approximate(all_blue(g)))
        if opt:
            assert got <= (1 + math.log(max(g.n, 2))) * opt
