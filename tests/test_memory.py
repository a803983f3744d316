"""Peak memory of graph construction and neighbor sums, relative to the CSR.

Each bound divides a call's tracemalloc peak by the bytes of the CSR arrays
of ``gen_gnp(20_000, 20.0, 1)`` (``indptr.nbytes + indices.nbytes``, 3.2
MiB). The whole-array forms these layers replaced peaked at 8.2 (gen_gnp),
3.6 (build_graph), 5.8 (parse_edge_list) and 3.0 (write_edge_list) times the
CSR; the ratios hold steady from n = 5,000 to n = 50,000. A build_graph that
sorted undirected keys before it sorted both orientations peaked at 1.43, and
at 2.38 inside gen_gnp and parse_edge_list; one sort of the directed keys
takes these to 1.07, 2.08 and 2.02. Decoding gen_gnp's pair indices by a
lookup in the triangular numbers, gathered in place, takes it to 2.05; the
same gather into the strided output column holds one more m-entry array and
peaks at 2.52. A neighbor sum that gathered into a temporary before its
prefix sum peaked at 2.0.

The list-built generators are held to the same unit. With their edges kept
as lists of tuples and one numpy scalar call per draw, Watts-Strogatz,
preferential attachment and random regular peaked at 19.6, 7.8 and 12.0;
decoding from blocks of raw words and keeping edges as integer keys takes
them to 10.6, 3.6 and 10.9, and building with one sort takes preferential
attachment to 3.3. Reading a whole graph's words at once would lift the
first two past their bounds again.
"""

import tracemalloc

import pytest

from rbdom import (
    build_graph,
    gen_barabasi_albert,
    gen_gnp,
    gen_random_regular,
    gen_watts_strogatz,
    parse_edge_list,
    write_edge_list,
)
from rbdom.reduce import scd_nbr

from conftest import scd_nbr_reference

N, AVG_DEG, SEED = 20_000, 20.0, 1


def traced_peak(fn, *args):
    """(result, bytes of the tracemalloc peak above the memory traced at the call)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def headline():
    g = gen_gnp(N, AVG_DEG, SEED)
    return g, g.indptr.nbytes + g.indices.nbytes


def test_gen_gnp_peak(headline):
    g, csr = headline
    built, peak = traced_peak(gen_gnp, N, AVG_DEG, SEED)
    assert built == g
    assert peak / csr <= 2.25


@pytest.mark.parametrize(
    "gen, args, m, bound",
    [
        pytest.param(gen_watts_strogatz, (N, 20, 0.3, SEED), N * 10, 12.0, id="watts_strogatz"),
        pytest.param(gen_barabasi_albert, (N, 10, SEED), 10 * (N - 10) + 45, 3.5, id="barabasi_albert"),
        pytest.param(gen_random_regular, (N, 20, SEED), N * 10, 11.5, id="random_regular"),
    ],
)
def test_list_built_generator_peak(headline, gen, args, m, bound):
    _, csr = headline
    built, peak = traced_peak(gen, *args)
    assert built.m == m
    assert peak / csr <= bound


def test_build_graph_peak(headline):
    g, csr = headline
    edges = g.edge_array()
    built, peak = traced_peak(build_graph, g.n, edges)
    assert built == g
    assert peak / csr <= 1.25


def test_parse_edge_list_peak(headline):
    g, csr = headline
    text = write_edge_list(g)
    parsed, peak = traced_peak(parse_edge_list, text)
    assert parsed == g
    assert peak / csr <= 2.25


def test_write_edge_list_peak(headline):
    g, csr = headline
    text, peak = traced_peak(write_edge_list, g)
    assert parse_edge_list(text) == g
    assert peak / csr <= 2.0


def test_neighbor_sums_peak(headline):
    g, csr = headline
    sums, peak = traced_peak(scd_nbr, g)
    assert sums.tolist() == scd_nbr_reference(g)
    assert peak / csr <= 1.25
