import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbdom import (
    avg_degree,
    build_graph,
    check_graph_invariants,
    gen_barabasi_albert,
    gen_gnm,
    gen_gnp,
    gen_random_regular,
    gen_watts_strogatz,
    write_edge_list,
)

from rbdom.generate import _gnp_edges

from conftest import gen_gnp_reference


def test_gnp_rejects_bad_params():
    with pytest.raises(ValueError):
        gen_gnp(10, 0.0, 1)
    with pytest.raises(ValueError):
        gen_gnp(10, 10.0, 1)
    with pytest.raises(ValueError):
        gen_gnp(0, 1.0, 1)


def test_gnp_deterministic_and_wellformed():
    a = gen_gnp(500, 8.0, 11)
    b = gen_gnp(500, 8.0, 11)
    assert a == b
    check_graph_invariants(a)
    assert gen_gnp(500, 8.0, 12) != a


def test_gnp_edge_concentration():
    # E[m] = p * n(n-1)/2 with p = avg_deg / n
    expected = 12.0 / 10000 * (10000 * 9999 / 2)
    ms = [gen_gnp(10000, 12.0, seed).m for seed in range(20)]
    assert abs(np.mean(ms) - expected) <= 0.05 * expected


def test_gnp_pairs_uniform():
    # every unordered pair should appear with probability ~ p; a skew here
    # would point at the linear-index decoding
    from collections import Counter

    counts = Counter()
    trials = 3000
    n, avg = 6, 2.0
    for seed in range(trials):
        for e in gen_gnp(n, avg, seed).edges():
            counts[e] += 1
    expected = trials * avg / n
    for i in range(n):
        for j in range(i + 1, n):
            assert abs(counts[(i, j)] - expected) <= 0.12 * expected


def test_gnm_exact_counts():
    assert gen_gnm(6, 5.0, 3).m == 15  # forced complete graph
    g = gen_gnm(1000, 6.0, 4)
    assert g.m == 3000
    check_graph_invariants(g)


def test_gnm_deterministic():
    assert gen_gnm(200, 5.0, 9) == gen_gnm(200, 5.0, 9)


def test_gnm_rejects_overfull():
    with pytest.raises(ValueError):
        gen_gnm(4, 4.0, 1)  # m=8 > C(4,2)=6


def test_ws_ring_lattice_at_p_zero():
    g = gen_watts_strogatz(20, 6, 0.0, 1)
    assert g.m == 20 * 3
    assert set(np.diff(g.indptr).tolist()) == {6}
    for off in (1, 2, 3):
        for u in range(20):
            v = (u + off) % 20
            assert v in g.neighbors(u)


def test_ws_edge_count_preserved_under_rewiring():
    for p in (0.1, 0.5, 0.9):
        g = gen_watts_strogatz(300, 7, p, 5)
        assert g.m == 300 * 3
        check_graph_invariants(g)


def test_ws_rejects_bad_params():
    with pytest.raises(ValueError):
        gen_watts_strogatz(5, 5, 0.1, 1)
    with pytest.raises(ValueError):
        gen_watts_strogatz(10, 1, 0.1, 1)


def test_dreg_k4():
    g = gen_random_regular(4, 3, 1)
    assert g.m == 6  # the unique 3-regular graph on 4 vertices


def test_dreg_rejects_odd_product():
    with pytest.raises(ValueError):
        gen_random_regular(7, 3, 1)


def test_dreg_degree_histogram():
    for d, seed in ((3, 1), (8, 2), (13, 3)):
        n = 200
        g = gen_random_regular(n, d, seed)
        assert np.diff(g.indptr).tolist() == [d] * n
        check_graph_invariants(g)


def test_dreg_deterministic():
    assert gen_random_regular(100, 4, 6) == gen_random_regular(100, 4, 6)


def test_ba_tree_when_attach_one():
    g = gen_barabasi_albert(50, 1, 2)
    assert g.m == 49


def test_ba_edge_count_formula():
    n, attach = 200, 4
    g = gen_barabasi_albert(n, attach, 7)
    assert g.m == attach * (n - attach) + attach * (attach - 1) // 2
    check_graph_invariants(g)


def test_ba_heavy_tailed_degrees():
    g = gen_barabasi_albert(10000, 3, 1)
    degs = np.diff(g.indptr)
    assert degs.max() > 10 * avg_degree(g)


def test_ba_rejects_bad_attach():
    with pytest.raises(ValueError):
        gen_barabasi_albert(10, 0, 1)
    with pytest.raises(ValueError):
        gen_barabasi_albert(10, 10, 1)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


# (n, avg_deg, seed) -> (m, sha256 of indptr bytes, sha256 of indices bytes),
# recorded from the whole-array form of gen_gnp (conftest.gen_gnp_reference)
GNP_GOLDEN = {
    (1, 0.5, 3): (
        0,
        "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (2, 1.5, 5): (
        1,
        "ab25350e3e65efebe24584461683ecda68725576e825e550038b90e7b1479946",
        "4cbbd8ca5215b8d161aec181a74b694f4e24b001d5b081dc0030ed797a8973e0",
    ),
    (7, 3.0, 2): (
        7,
        "afa322801154dd23113765da2c99dc1ba3d6137021d5c87bb2e74626f2aa393f",
        "caf617a47da19f4dcb2bd403f87695c00151d0252dbdd31c06e5374de5dec90a",
    ),
    (500, 8.0, 11): (
        1962,
        "9aebfc4227cbba82378111bac89dbc39d66a96d24e8c89f2631418eb6be9f3fb",
        "a19d0cc039cbb45ae58eb7cce5043398afc74896eb35e736672372d07b1513a6",
    ),
    (3000, 8.0, 1): (
        12071,
        "21449a94ebe0816703c2e43fa4182c4750db454e7f5af9356d76c2189709bbec",
        "aa556ae99572985d8073239a120a50a1f2769540a38ea91c111ea63247df9228",
    ),
}


@pytest.mark.parametrize("args", sorted(GNP_GOLDEN))
def test_gnp_golden_digests(args):
    m, indptr_sha, indices_sha = GNP_GOLDEN[args]
    g = gen_gnp(*args)
    assert g.m == m
    assert _sha256(g.indptr.tobytes()) == indptr_sha
    assert _sha256(g.indices.tobytes()) == indices_sha


def test_gnp_headline_golden_digests():
    g = gen_gnp(50_000, 20.0, 4242)
    assert g.m == 500_911
    assert _sha256(g.indptr.tobytes()) == "f1ca222be0b9844cb3f20559c2878ab7f8a22115b2eb02712cc4f08a708a6071"
    assert _sha256(g.indices.tobytes()) == "7920afc8cb5c2f67cee5f0ac7a03ca4769bd159f311cf555b2367a3dd0a05769"
    text = write_edge_list(g)
    assert _sha256(text.encode("ascii")) == "a9b976e81340dad99f44fec5823b80c04e2f87d84b7b7d202043e1a075a66225"


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    st.integers(1, 300),
    st.floats(0.01, 0.999, allow_nan=False),
    st.integers(0, 2**32 - 1),
)
@example(1, 0.5, 0)
@example(2, 0.999, 0)
@example(2, 0.01, 7)
def test_gnp_matches_reference(n, share, seed):
    avg_deg = share * n
    assert gen_gnp(n, avg_deg, seed) == gen_gnp_reference(n, avg_deg, seed)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    st.integers(2, 120),
    st.floats(0.01, 0.999, allow_nan=False),
    st.integers(0, 2**32 - 1),
    st.integers(1, 64),
)
@example(2, 0.5, 3, 1)
def test_gnp_multi_block_matches_reference(n, share, seed, block):
    # gen_gnp's own block covers all pairs in one draw; a small one needs many
    avg_deg = share * n
    p = avg_deg / n
    total = n * (n - 1) // 2
    g = build_graph(n, _gnp_edges(total, p, seed, block))
    assert g == gen_gnp_reference(n, avg_deg, seed, block=block)
