import pytest

from rbdom import (
    InvariantError,
    avg_degree,
    build_graph,
    check_graph_invariants,
    closed_neighborhood,
    degeneracy_order,
)

from conftest import complete_graph, cycle_graph, degeneracy_by_subgraphs, path_graph, random_graph, star_graph


def test_build_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.n == 3 and g.m == 2
    assert list(g.neighbors(1)) == [0, 2]


def test_build_drops_loops_and_duplicates():
    g = build_graph(2, [(0, 1), (1, 0), (0, 0)])
    assert g.m == 1
    assert list(g.neighbors(0)) == [1]


def test_build_large_edge_list():
    # 9857 distinct pairs over 1643 vertices, a benchmark-sized instance
    pairs = []
    for u in range(1643):
        for v in range(u + 1, 1643):
            pairs.append((u, v))
            if len(pairs) == 9857:
                break
        if len(pairs) == 9857:
            break
    g = build_graph(1643, pairs)
    assert g.n == 1643 and g.m == 9857
    assert avg_degree(g) == 2 * 9857 / 1643
    assert 11.99 < avg_degree(g) < 12.0


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"\(1, 5\)"):
        build_graph(3, [(0, 1), (1, 5)])


def test_build_empty():
    g = build_graph(0, [])
    assert g.n == 0 and g.m == 0


def test_build_idempotent_under_permutation_and_duplication(rng):
    for _ in range(25):
        g = random_graph(rng)
        edges = [(u, v) for u, v in g.edges()]
        perm = list(edges)
        rng.shuffle(perm)
        doubled = [(v, u) for u, v in perm] + perm + edges
        assert build_graph(g.n, doubled) == g


def test_edges_sorted_python_ints():
    g = build_graph(4, [(2, 1), (0, 3), (1, 0), (3, 2)])
    edges = list(g.edges())
    assert edges == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert all(type(u) is int and type(v) is int for u, v in edges)


def test_closed_neighborhood():
    p3 = path_graph(3)
    assert set(closed_neighborhood(p3, 1)) == {0, 1, 2}
    lonely = build_graph(2, [])
    assert set(closed_neighborhood(lonely, 0)) == {0}
    star = star_graph(4)
    assert set(closed_neighborhood(star, 0)) == {0, 1, 2, 3, 4}
    with pytest.raises(ValueError):
        closed_neighborhood(p3, 3)


def test_degeneracy_examples():
    tree = build_graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    assert degeneracy_order(tree)[1] == 1
    assert degeneracy_order(cycle_graph(6))[1] == 2
    assert degeneracy_order(complete_graph(5))[1] == 4
    assert degeneracy_order(build_graph(0, []))[1] == 0


def test_degeneracy_matches_subgraph_definition(rng):
    for _ in range(40):
        g = random_graph(rng, n_max=7)
        assert degeneracy_order(g)[1] == degeneracy_by_subgraphs(g)


def test_degeneracy_order_properties(rng):
    for _ in range(25):
        g = random_graph(rng, n_max=40)
        order, d = degeneracy_order(g)
        assert sorted(order) == list(range(g.n))
        position = {int(v): i for i, v in enumerate(order)}
        for v in range(g.n):
            later = sum(1 for u in g.neighbors(v) if position[int(u)] > position[v])
            assert later <= d
        assert g.m <= d * g.n


def test_avg_degree():
    assert avg_degree(path_graph(3)) == pytest.approx(4 / 3)
    assert avg_degree(cycle_graph(6)) == 2
    with pytest.raises(ValueError):
        avg_degree(build_graph(0, []))


def test_check_invariants_passes_on_built_graphs(rng):
    for _ in range(10):
        check_graph_invariants(random_graph(rng))


def test_check_invariants_catches_via_handcrafted_breakage():
    g = build_graph(3, [(0, 1), (1, 2)])
    bad = build_graph(3, [(0, 1), (1, 2)])
    bad.indices = g.indices.copy()
    bad.indices[0] = 2  # 0 -> 2 present, 2 -> 0 missing
    with pytest.raises(InvariantError):
        check_graph_invariants(bad)
