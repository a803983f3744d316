"""Immutable simple undirected graphs in CSR form.

Vertices are dense ids 0..n-1; adjacency rows are sorted ascending with no
self-loops and no duplicates. External labels (file formats, matrix ids) are
mapped to dense ids by :mod:`rbdom.io`.
"""

import numpy as np

from .kernels import degeneracy_kernel


class InvariantError(Exception):
    """An internal structural invariant was violated."""


class Graph:
    """Simple undirected graph over vertices 0..n-1, CSR adjacency.

    Immutable after construction; safe to share across threads. Use
    :func:`build_graph` rather than calling the constructor with raw arrays.
    """

    __slots__ = ("n", "m", "indptr", "indices")

    def __init__(self, n, indptr, indices):
        self.n = int(n)
        self.m = int(indices.shape[0] // 2)
        self.indptr = indptr
        self.indices = indices

    def neighbors(self, v):
        """Sorted open neighborhood of v as an array view."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v):
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self):
        return np.diff(self.indptr)

    def edge_array(self):
        """Edges as an (m, 2) int64 array of rows (u, v) with u < v, sorted."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        upper = src < self.indices
        return np.column_stack((src[upper], self.indices[upper]))

    def edges(self):
        """Iterate edges as (u, v) with u < v, sorted, as Python ints."""
        pairs = self.edge_array()
        yield from zip(pairs[:, 0].tolist(), pairs[:, 1].tolist())

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self):
        return hash((self.n, self.m, self.indices.tobytes()))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n, edges):
    """Build a Graph from an edge list, dropping self-loops and duplicates.

    Raises ValueError if n < 0 or an endpoint falls outside 0..n-1 (the
    message names the offending pair).
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if n >= 1 << 31:
        raise ValueError(f"vertex count {n} exceeds the supported 2^31 limit")
    # keeps every priority the kernels pack (degrees, covers, neighbor-degree
    # sums <= 2m) inside 31 bits
    edge_cap = 1 << 30
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be pairs of vertex ids")

    bad = (arr < 0) | (arr >= n)
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        u, v = arr[i]
        raise ValueError(f"edge ({u}, {v}) out of range for n={n}")

    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    if lo.size:
        key = np.unique(lo * np.int64(n) + hi)
        lo, hi = key // n, key % n
    if lo.size >= edge_cap:
        raise ValueError(f"edge count {lo.size} exceeds the supported 2^30 limit")

    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.lexsort((dst, src))
    indices = dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return Graph(n, indptr, indices)


def closed_neighborhood(g, v):
    """N[v] = N(v) plus v itself, sorted ascending."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    nbrs = g.neighbors(v)
    return np.insert(nbrs, np.searchsorted(nbrs, v), v)


def degeneracy_order(g):
    """Remove-minimum-degree ordering and the degeneracy d.

    Every vertex has at most d neighbors later in the returned ordering.
    """
    if g.n == 0:
        return np.empty(0, dtype=np.int64), 0
    order, d = degeneracy_kernel(g.n, g.indptr, g.indices)
    return order, int(d)


def avg_degree(g):
    """2m/n; raises ValueError on the empty graph."""
    if g.n == 0:
        raise ValueError("average degree undefined for n=0")
    return 2.0 * g.m / g.n


def check_graph_invariants(g):
    """Raise InvariantError unless g is a well-formed simple graph."""
    if g.indptr.shape[0] != g.n + 1 or g.indptr[0] != 0:
        raise InvariantError("indptr shape/start mismatch")
    if g.indptr[-1] != g.indices.shape[0]:
        raise InvariantError("indptr end does not match indices length")
    if 2 * g.m != g.indices.shape[0]:
        raise InvariantError("edge count inconsistent with adjacency size")
    if g.indices.size and (g.indices.min() < 0 or g.indices.max() >= g.n):
        raise InvariantError("neighbor id out of range")
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    if (src == g.indices).any():
        raise InvariantError("self-loop present")
    # strictly increasing within each row: the only non-increases in the
    # flat indices array may sit at row boundaries
    flat_drops = np.flatnonzero(np.diff(g.indices) <= 0) + 1
    if not np.isin(flat_drops, g.indptr[1:-1]).all():
        raise InvariantError("adjacency rows not strictly increasing")
    fwd = np.sort(src * np.int64(max(g.n, 1)) + g.indices)
    rev = np.sort(g.indices * np.int64(max(g.n, 1)) + src)
    if not np.array_equal(fwd, rev):
        raise InvariantError("adjacency not symmetric")
