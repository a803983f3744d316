from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbdom import (
    Graph,
    InvariantError,
    build_graph,
    check_graph_invariants,
    degeneracy_order,
)
from rbdom import graph
from rbdom.generate import gen_gnp

from conftest import (
    build_graph_reference,
    complete_graph,
    cycle_graph,
    degeneracy_by_subgraphs,
    degeneracy_reference,
    random_graph,
)


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
    assert 11.99 < 2 * g.m / g.n < 12.0


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"\(1, 5\)"):
        build_graph(3, [(0, 1), (1, 5)])


@pytest.mark.parametrize(
    "edges", [[(0.5, 1.7)], [("0", "1")], [(0, 2**70)], np.array([[0.0, 1.0]])]
)
def test_build_rejects_non_integer_ids(edges):
    with pytest.raises(ValueError, match="integers"):
        build_graph(3, edges)


def test_build_takes_any_integer_dtype():
    for dtype in (np.int8, np.uint16, np.int32, np.uint64):
        g = build_graph(3, np.array([[0, 1], [2, 1]], dtype))
        assert g == build_graph(3, [(0, 1), (1, 2)])


def test_build_empty():
    g = build_graph(0, [])
    assert g.n == 0 and g.m == 0


def test_build_idempotent_under_permutation_and_duplication(rng):
    for _ in range(25):
        g = random_graph(rng)
        edges = list(map(tuple, g.edge_array().tolist()))
        perm = list(edges)
        rng.shuffle(perm)
        doubled = [(v, u) for u, v in perm] + perm + edges
        assert build_graph(g.n, doubled) == g


@st.composite
def edge_arrays(draw):
    """n in 0..30 and up to 90 raw pairs: loops, duplicates, both orientations, any order."""
    n = draw(st.integers(0, 30))
    if n == 0:
        return 0, []
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=90))


@settings(max_examples=300)
@given(edge_arrays())
@example((0, []))
@example((1, []))
@example((1, [(0, 0), (0, 0)]))
@example((3, [(2, 1), (1, 2), (0, 2), (2, 0), (1, 1), (2, 1)]))
@example((4, [(3, 0), (0, 3), (3, 3), (0, 3), (2, 3), (3, 2), (1, 1)]))
def test_build_matches_set_reference(case):
    n, edges = case
    ref_indptr, ref_indices = build_graph_reference(n, edges)
    arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
    # C-ordered, Fortran-ordered and a strided view of a wider array
    for given_edges in (edges, arr, np.asfortranarray(arr), np.hstack((arr, arr))[:, :2]):
        g = build_graph(n, given_edges)
        assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int64
        assert g.indptr.tolist() == ref_indptr
        assert g.indices.tolist() == ref_indices
        assert g.n == n and g.m == len(ref_indices) // 2


def test_edge_array_in_small_blocks(rng):
    graphs = [random_graph(rng, n_max=30) for _ in range(10)] + [build_graph(0, []), build_graph(3, [])]
    for block in (1, 2, 3, 5, 8, 1 << 16):
        with patch.object(graph, "_EDGE_BLOCK", block):
            for g in graphs:
                pairs = g.edge_array()
                assert pairs.dtype == np.int64 and pairs.shape == (g.m, 2)
                expected = sorted((u, v) for u in range(g.n) for v in g.neighbors(u).tolist() if u < v)
                assert [tuple(e) for e in pairs.tolist()] == expected


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


def test_degeneracy_order_matches_reference(rng):
    # the order itself, not only d: degeneracy-guided tie-breaks depend on it
    graphs = [build_graph(1, []), build_graph(0, []), gen_gnp(400, 6.0, 1)]
    graphs += [random_graph(rng, n_max=60) for _ in range(60)]
    for g in graphs:
        order, d = degeneracy_order(g)
        ref_order, ref_d = degeneracy_reference(g)
        assert order.dtype == np.int64 and type(d) is int
        assert order.tolist() == ref_order
        assert d == ref_d


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


def test_check_invariants_passes_on_built_graphs(rng):
    for _ in range(10):
        g = random_graph(rng)
        check_graph_invariants(g)
        check_graph_invariants(Graph(g.n, g.indptr.astype(np.int32), g.indices.astype(np.int32)))


def test_check_invariants_catches_via_handcrafted_breakage():
    g = build_graph(3, [(0, 1), (1, 2)])
    bad = build_graph(3, [(0, 1), (1, 2)])
    bad.indices = g.indices.copy()
    bad.indices[0] = 2  # 0 -> 2 present, 2 -> 0 missing
    with pytest.raises(InvariantError):
        check_graph_invariants(bad)
    # rows sorted and loop-free, but 0 -> 2 and 2 -> 1 have no reverse
    lopsided = Graph(3, np.array([0, 2, 3, 4]), np.array([1, 2, 0, 1]))
    with pytest.raises(InvariantError, match="not symmetric"):
        check_graph_invariants(lopsided)
    # the same entries with row 0 out of order fail the row check first
    unsorted = Graph(3, np.array([0, 2, 3, 4]), np.array([2, 1, 0, 1]))
    with pytest.raises(InvariantError, match="not strictly increasing"):
        check_graph_invariants(unsorted)


@pytest.mark.parametrize(
    "indptr, indices, message",
    [
        # row 1 would hold -1 entries
        (np.array([0, 2, 1, 2]), np.array([1, 2]), "indptr decreases"),
        (np.array([0, 1, 2, 2]), np.array([1.0, 0.0]), "integer dtypes"),
        # the path 0-1-2, valid but for its unsigned arrays
        (np.array([0, 1, 3, 4]), np.array([1, 0, 2, 1], np.uint64), "signed integer dtypes"),
        (np.array([0, 1, 3, 4], np.uint64), np.array([1, 0, 2, 1]), "signed integer dtypes"),
    ],
    ids=["decreasing-indptr", "float-indices", "uint64-indices", "uint64-indptr"],
)
def test_check_invariants_rejects_malformed_csr(indptr, indices, message):
    with pytest.raises(InvariantError, match=message):
        check_graph_invariants(Graph(3, indptr, indices))
