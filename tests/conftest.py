"""Shared helpers: slow reference oracles, independent of the package kernels.

Everything here recomputes results with plain sets and exhaustive loops so
the fast CSR/heap implementations have something trustworthy to be checked
against.
"""

import itertools
import logging

import numpy as np
import pytest

from rbdom import ParseError, build_graph

logger = logging.getLogger(__name__)


def adj_sets(g):
    return [set(int(u) for u in g.neighbors(v)) for v in range(g.n)]


def closed_sets(g):
    return [set(int(u) for u in g.neighbors(v)) | {v} for v in range(g.n)]


def domination_number(g, blue=None):
    """Minimum size of a set dominating all blue vertices, by enumeration."""
    blue = set(range(g.n)) if blue is None else set(blue)
    closed = closed_sets(g)
    for k in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), k):
            covered = set()
            for v in combo:
                covered |= closed[v]
            if blue <= covered:
                return k
    raise AssertionError("unreachable")


def degeneracy_by_subgraphs(g):
    """Degeneracy as max over vertex subsets of the induced minimum degree."""
    best = 0
    verts = list(range(g.n))
    nbrs = adj_sets(g)
    for k in range(1, g.n + 1):
        for sub in itertools.combinations(verts, k):
            s = set(sub)
            mina = min(len(nbrs[v] & s) for v in sub)
            best = max(best, mina)
    return best


def pendant_reference(g, blue):
    """Set-based replay of the exhaustive pendant rule; returns (reps, blue)."""
    blue = set(blue)
    closed = closed_sets(g)
    reps = []
    while True:
        pendants = [v for v in sorted(blue) if g.degree(v) == 1]
        if not pendants:
            return reps, blue
        v = pendants[0]
        u = int(g.neighbors(v)[0])
        reps.append(u)
        blue -= closed[u]


def scd_nbr_reference(g):
    """Per-vertex sum of neighbor degrees, by looping over adjacency sets."""
    nbrs = adj_sets(g)
    return [sum(len(nbrs[u]) for u in nbrs[v]) for v in range(g.n)]


def lossy_reference(g, blue):
    """Set-based replay of the lossy greedy; returns (xs, psi, blue)."""
    blue = set(blue)
    nbrs = adj_sets(g)
    closed = closed_sets(g)
    scd = scd_nbr_reference(g)
    pool = set(blue)
    blocked = set()
    xs, psi = [], {}
    while pool:
        x = min(pool, key=lambda v: (-len(nbrs[v] & blue), v))
        cands = [
            z
            for z in blue
            if z not in closed[x] and z not in blocked
        ]
        if not cands:
            pool.discard(x)
            continue
        z = min(cands, key=lambda c: (scd[c], c))
        xs.append(x)
        psi[x] = z
        for w in closed[x] & blue:
            pool.discard(w)
        blue -= closed[x]
        for u in closed[z]:
            blocked |= closed[u]
        pool -= closed[z]
    return xs, psi, blue


def greedy_cover_reference(g, blue, rank=None):
    """Set-based greedy cover; returns picks in order.

    Ties on cover size go to the lowest ``rank[v]`` (default: vertex id).
    """
    blue = set(blue)
    closed = closed_sets(g)
    rank = range(g.n) if rank is None else rank
    picks = []
    while blue:
        v = min(range(g.n), key=lambda v: (-len(closed[v] & blue), rank[v]))
        picks.append(v)
        blue -= closed[v]
    return picks


def parse_edge_list_reference(text):
    """The line-by-line edge-list parser the bulk reader replaced."""
    header = None
    edges = []
    n = m = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected header 'n m'")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer header") from None
            if n < 0 or m < 0:
                raise ParseError(f"line {lineno}: negative counts in header")
            header = lineno
            continue
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected edge 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer edge") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {lineno}: edge ({u}, {v}) out of range for n={n}")
        edges.append((u, v))
    if header is None:
        raise ParseError("line 1: missing header 'n m'")
    if len(edges) != m:
        raise ParseError(f"header promised {m} edges, found {len(edges)}")
    g = build_graph(n, edges)
    dropped = len(edges) - g.m
    if dropped:
        logger.warning("edge list: dropped %d duplicate/self-loop entries", dropped)
    return g


def write_edge_list_reference(g):
    """The per-edge formatter write_edge_list replaced, walking the CSR rows."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u in range(g.n) for v in g.neighbors(u) if u < v)
    return "\n".join(lines) + "\n"


def random_edges(rng, n, p):
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]


def random_graph(rng, n_max=20, n_min=1):
    """A small random graph with density spread across draws."""
    n = int(rng.integers(n_min, n_max + 1))
    p = float(rng.uniform(0.05, 0.6))
    return build_graph(n, random_edges(rng, n, p))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def path_graph(k):
    return build_graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k):
    return build_graph(k, [(i, (i + 1) % k) for i in range(k)])


def star_graph(leaves):
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(k):
    return build_graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])
