import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbdom import (
    build_graph,
    check_graph_invariants,
    gen_barabasi_albert,
    gen_gnm,
    gen_gnp,
    gen_random_regular,
    gen_watts_strogatz,
    write_edge_list,
)

from rbdom.generate import _MAX_BLOCK, _Draws, _gnp_edges

from conftest import complete_graph, gen_gnp_reference


def test_gnp_rejects_bad_params():
    with pytest.raises(ValueError):
        gen_gnp(10, 0.0, 1)
    with pytest.raises(ValueError):
        gen_gnp(10, 10.0, 1)
    with pytest.raises(ValueError):
        gen_gnp(0, 1.0, 1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "n, avg_deg, seed", [(10, 1e-300, 1), (50, 1e-290, 5), (10, 1e-310, 1), (10, 5e-324, 1)]
)
def test_gnp_tiny_avg_deg_is_edgeless(n, avg_deg, seed):
    # gaps beyond int64 (or infinite, once p underflows to 0) pass every pair
    g = gen_gnp(n, avg_deg, seed)
    assert (g.n, g.m) == (n, 0)


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
        for e in map(tuple, gen_gnp(n, avg, seed).edge_array().tolist()):
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("avg_deg", [float("inf"), float("-inf"), float("nan")])
def test_gnm_rejects_non_finite_avg_deg(avg_deg):
    with pytest.raises(ValueError, match="avg_deg"):
        gen_gnm(10, avg_deg, 1)


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


def test_dreg_complete_graph():
    assert gen_random_regular(40, 39, 1) == complete_graph(40)
    assert gen_random_regular(40, 0, 1).m == 0


@pytest.mark.parametrize("n, d", [(100, 90), (34, 31), (9, 6)])
def test_dreg_dense(n, d):
    # 2 * d > n: the complement of a sparse regular graph on the same seed
    g = gen_random_regular(n, d, 3)
    assert np.diff(g.indptr).tolist() == [d] * n
    check_graph_invariants(g)
    assert g == gen_random_regular(n, d, 3)
    sparse = gen_random_regular(n, n - 1 - d, 3)
    both = np.concatenate((g.edge_array(), sparse.edge_array()))
    assert build_graph(n, both).m == n * (n - 1) // 2


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
    assert degs.max() > 10 * 2 * g.m / g.n


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


# generator -> {args: (m, sha256 of indptr bytes, sha256 of indices bytes)},
# recorded from the loop forms of these generators so that a vectorised
# rewrite can be checked to draw the same graphs
GENERATOR_GOLDEN = {
    gen_gnm: {
        (6, 5.0, 3): (
            15,
            "5147cc832058951a70de810e75b6707f98378232cbd1d3824aab9a81aabc03ca",
            "1f903a9d8f254c37054859d2d9664f051feda1fdaf54936a64b5c702e45097d3",
        ),
        (200, 5.0, 9): (
            500,
            "70881f688875d41e01a1f00a0b573c4f8f8293a7c22415f68868d1be84b02a0f",
            "e43040171e178f5c4fbdb1f7c66f680687b7db3ebe07764eca6ab1fcef4231f9",
        ),
        (1000, 6.0, 4): (
            3000,
            "27cf89c39b2aea3b43c4522cfdfe5de8cb501239b5a94387ff8149162ecc9aeb",
            "8012ad150fb8c75e2979ee4c5f8e7b9957c6e5efc6dd43469e71d185eac3d825",
        ),
        # every pair, so many batches each accept a few new edges
        (30, 29.0, 2): (
            435,
            "8dc23e2bd79e7e530c80b23fbf474bed5632d0896e63345e5951a6150874740c",
            "b26a5eb765ce4b063d079a442656916765e66f6ce877101096a0b0a330d37aba",
        ),
        (2000, 12.0, 5): (
            12000,
            "642ea7063f4f76784fe19de6cbd4ef181053622c0ab74a4d91f34e8a50973378",
            "eea7cbf7192bdc72ff6b969a8521848ac2a09a7b8ca7acf65c791525dfc21a46",
        ),
    },
    gen_watts_strogatz: {
        (10, 4, 0.0, 1): (
            20,
            "17f076101ae12ebee5cd40b535bf350afb28f6fe143a5afa504cee868b09f6ff",
            "40df499b6a4ee021a81bf2587483d37db43efe718dd90bdc91caa0908a58816e",
        ),
        (100, 4, 0.3, 7): (
            200,
            "a50f527971e64b20b0c7267e54a3a04053e9901359de31e6270b3875f4e6baf3",
            "4c1cc1b0003682fa9dd8c50fd6dd94508ebe1686d31ba412db78ae5c1736e4d7",
        ),
        (1000, 6, 0.5, 2): (
            3000,
            "e0ad97e3f5d5263bd1d18773cc972d38ef7066fa4d21990db5e18bb5febbd224",
            "5d349efffd6e6697cda6407be57801a9ba559f8f25d1207c1c4329a3045e8395",
        ),
        # every edge draws a uniform and then a rewiring target
        (20000, 10, 1.0, 5): (
            100000,
            "4e5b3241bcc893503833ec80fd2e3a07ac3143cda9c87e1d568bdaac903ea961",
            "cb4f9c26b19a34ebdfca3b53b0ec8e409542e8e56df86fc9245b62650133f276",
        ),
        (20000, 10, 0.3, 13): (
            100000,
            "ff5174233aaf1d046677cd06014fa7973a918133284c7a5c4b9e13924811cd63",
            "dcc36b517d74ac3c5b17f524b3e6bd8d7a8aaccfc764f1917e076bf6e5da3452",
        ),
    },
    gen_random_regular: {
        (8, 3, 1): (
            12,
            "fd327a75686f1d1b900e2f6e35d0f78d0337ac52936814813b01947531b02daa",
            "3a9d5a6d38f19b3213c348c0ff1ba2b1b82888224c9da1b6bb4bd8c893ee38c3",
        ),
        (100, 4, 5): (
            200,
            "3fc63e8aa24b72e2ba21b8d564b7c431d38cc0539b50764ed5488e19c218a8d1",
            "2ec7f3a977049bfdaa14d4ab7cedd4956dc55bc7ebd6bfa00dcb50d1a3a55dab",
        ),
        (1000, 5, 3): (
            2500,
            "4ab07116b9a4e8251e004869f1056e0fd5d38db2be3660dc03d7d0085ccf435f",
            "3b2d65baae503eacb3a2ff92a1690b0d3c4313bdf12a37bab8855d16842539fc",
        ),
        (5000, 7, 3): (
            17500,
            "f62af875bf0126d2a5be87f12a6d26f92c6b7d8c95639cf2c5b2992dcd7b0aae",
            "31fd44d77e999ae76dedd36b1c13599baa664032c1e3fc0882190b0a66623cad",
        ),
    },
    gen_barabasi_albert: {
        (5, 1, 2): (
            4,
            "d719fb77330b6c2109c14fda9b6665436a7700d0788a3ead09d08fe307ac2bb7",
            "b391744620acf0ed1215d5eb796ea73bd04e9598d4aa6d7c8231314ed0de4db9",
        ),
        (100, 3, 4): (
            294,
            "3c1adfec91133d812ac88aafc4c5944490012ca1ea3fa01da35525a204d541d8",
            "080c0811f951c9879a32608de1af06031e9a7cdaf94565c260811594ba9c4369",
        ),
        (1000, 5, 6): (
            4985,
            "c5a870ba607050c61628966b58b9bd8602eff0c3a8d0a2430f24c4c8670ca461",
            "1f292fe4efa7fd9c2713639bdaf6eb209d42180e66602d2a54f183f0f91106b3",
        ),
        (20000, 7, 21): (
            139972,
            "4d44e6539612ed4c8322c9cda709504e0e448dd6b210e3b04d56db0632dfcc6a",
            "55b4cbdb33e40f8c381e97ce0cb708e35c8a6dbd7ce215561db58848154855b5",
        ),
        # no edge yet when vertex 1 attaches, so its target is drawn below 1
        (3, 1, 9): (
            2,
            "f04c3238dcd069b56d1a0baa5fe0dd6a507a374d607269ad965750fbb5796ff0",
            "61cf0779682923ad84576de9bd059eff1ff0ae3a5f60b3d8d65e9bb777c5c938",
        ),
    },
}


@pytest.mark.parametrize(
    "gen, args",
    [
        pytest.param(gen, args, id=f"{gen.__name__}{args}")
        for gen, table in GENERATOR_GOLDEN.items()
        for args in table
    ],
)
def test_generator_golden_digests(gen, args):
    m, indptr_sha, indices_sha = GENERATOR_GOLDEN[gen][args]
    g = gen(*args)
    assert g.m == m
    assert _sha256(g.indptr.tobytes()) == indptr_sha
    assert _sha256(g.indices.tobytes()) == indices_sha


@settings(max_examples=200)
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


@settings(max_examples=100)
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
    g = build_graph(n, _gnp_edges(n, p, seed, block))
    assert g == gen_gnp_reference(n, avg_deg, seed, block=block)


@pytest.mark.parametrize("n", [2, 3, 64, 2000])
def test_gnp_near_one_is_complete(n):
    # p just below 1 keeps every pair, so every pair index and every
    # triangular boundary is decoded
    k = complete_graph(n)
    for seed in (0, 1, 2):
        assert gen_gnp(n, n - 1e-9, seed) == k


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gnp_decode_at_large_b(seed):
    n = 3_000_000
    total = n * (n - 1) // 2
    edges = _gnp_edges(n, 2000 / total, seed, 4096)
    a, b = edges[:, 0], edges[:, 1]
    assert edges.shape[0] > 0
    assert ((0 <= a) & (a < b) & (b < n)).all()
    assert (np.diff(b * (b - 1) // 2 + a) > 0).all()


# a call list holds None for uniform() and k for below(k)
_DRAW_CALLS = st.lists(st.one_of(st.none(), st.integers(1, 2**32), st.integers(1, 50)), max_size=300)


@settings(max_examples=300)
@given(st.integers(0, 2**64 - 1), _DRAW_CALLS)
@example(1, [1, None, 1, 5, 1])  # k = 1 draws nothing
@example(2, [2**31 + 1] * 64)  # about half of these draws are rejected
@example(3, [2**32, None, 2**32, 2**32])
@example(4, [None, 3, None] * _MAX_BLOCK)  # 2.5 * _MAX_BLOCK words, past a full block
def test_draws_match_numpy(seed, calls):
    draws = _Draws(np.random.default_rng(seed))
    twin = np.random.default_rng(seed)
    for k in calls:
        if k is None:
            assert draws.uniform() == twin.random()
        else:
            assert draws.below(k) == twin.integers(0, k)


@pytest.mark.parametrize("k", [0, 2**32 + 1])
def test_draws_below_rejects_unsupported_bounds(k):
    # above 2^32 numpy switches to 64-bit draws, which _Draws does not decode
    with pytest.raises(ValueError):
        _Draws(np.random.default_rng(0)).below(k)
