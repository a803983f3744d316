"""Immutable simple undirected graphs in CSR form.

Vertices are dense ids 0..n-1; adjacency rows are sorted ascending with no
self-loops and no duplicates. External labels (file formats, matrix ids) are
mapped to dense ids by :mod:`rbdom.io`.
"""

import numpy as np


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

    def degrees(self):
        return np.diff(self.indptr)

    def edge_array(self):
        """Edges as an (m, 2) int64 array of rows (u, v) with u < v, sorted."""
        out = np.empty((self.m, 2), np.int64)
        i = 0
        for pairs in _edge_blocks(self):
            out[i : i + pairs.shape[0]] = pairs
            i += pairs.shape[0]
        return out

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


# adjacency entries turned into edges per block of _edge_blocks
_EDGE_BLOCK = 8192


def _edge_blocks(g):
    """Consecutive (k, 2) int64 blocks of ``g.edge_array()``, one per ``_EDGE_BLOCK`` adjacency entries."""
    for i in range(0, g.indices.shape[0], _EDGE_BLOCK):
        dst = g.indices[i : i + _EDGE_BLOCK]
        j = i + dst.shape[0]
        # rows first..last hold entries i..j-1; clipped bounds count each row's share
        first, last = np.searchsorted(g.indptr, (i, j - 1), side="right") - 1
        shares = np.diff(np.clip(g.indptr[first : last + 2], i, j))
        src = np.repeat(np.arange(first, last + 1), shares)
        upper = src < dst
        yield np.column_stack((src[upper], dst[upper]))


# Greedy cover and the lossy rule's x queue key their heaps (-count << 32) | id
# in one int64: larger counts first, ties to the lower id (greedy cover may put
# a tie rank there instead). The low 32 bits give the id back.
_ID_MASK = (1 << 32) - 1


# vertex counts stay below this cap, which keeps the packed heap keys (counts
# at most n, ids below 2^31; see _ID_MASK) and build_graph's src * n + dst
# edge keys from overflowing
_VERTEX_CAP = 1 << 31


def build_graph(n, edges):
    """Build a Graph from an edge list, dropping self-loops and duplicates.

    Raises ValueError if n < 0, an endpoint is not an integer, or one falls
    outside 0..n-1 (the message names the offending pair).
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if n >= _VERTEX_CAP:
        raise ValueError(f"vertex count {n} exceeds the supported 2^31 limit")
    arr = np.asarray(edges)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"vertex ids must be integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be pairs of vertex ids")

    if arr.size and (arr.min() < 0 or arr.max() >= n):
        bad = (arr < 0) | (arr >= n)
        i = int(np.argmax(bad.any(axis=1)))
        u, v = arr[i]
        raise ValueError(f"edge ({u}, {v}) out of range for n={n}")

    # both orientations of every non-loop edge as src * n + dst; one sort
    # orders the rows and, within each row, the neighbors
    u, v = arr[:, 0], arr[:, 1]
    keep = u != v
    if not keep.all():
        u, v = u[keep], v[keep]
    del keep  # freed before the key array, the largest temporary, is allocated
    k = u.size
    keys = np.empty(2 * k, np.int64)
    np.multiply(u, n, out=keys[:k])
    keys[:k] += v
    np.multiply(v, n, out=keys[k:])
    keys[k:] += u
    del u, v
    keys.sort()
    keep = keys[1:] != keys[:-1]
    if not keep.all():
        keys = keys[np.concatenate(([True], keep))]
    del keep
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    keys %= n
    return Graph(n, indptr, keys)


def _neighbor_sums(g, values):
    """Per-vertex sum of ``values[u]`` over the neighbors u, as int64."""
    # prefix sums over the adjacency list, differenced at the row bounds; the
    # in-range gather fills the sum buffer directly (mode="raise" would copy)
    csum = np.zeros(g.indices.shape[0] + 1, np.int64)
    np.take(values.astype(np.int64, copy=False), g.indices, out=csum[1:], mode="clip")
    np.cumsum(csum[1:], out=csum[1:])
    return csum[g.indptr[1:]] - csum[g.indptr[:-1]]


def degeneracy_order(g):
    """Remove-minimum-degree ordering and the degeneracy d.

    Peels vertices in increasing current-degree order with a bucket queue,
    linear in n + m. Returns (order, d): ``order`` is the removal sequence
    and ``d`` the largest degree seen at removal time. Every vertex has at
    most d neighbors later in the ordering. Degrees at removal are
    non-decreasing, which keeps the bucket fronts ahead of processed
    vertices.
    """
    indices = g.indices
    deg = np.diff(g.indptr)
    # vert lists the vertices by degree, ids ascending within a degree;
    # bin_start[d] is where degree d starts in vert, pos inverts vert. The
    # loop peels vert in place, so it ends as the removal order.
    vert = np.argsort(deg, kind="stable")
    pos = np.empty(g.n, np.int64)
    pos[vert] = np.arange(g.n)
    count = np.bincount(deg)
    bin_start = (np.cumsum(count) - count).tolist()
    indptr, deg, vert, pos = g.indptr.tolist(), deg.tolist(), vert.tolist(), pos.tolist()

    d_out = 0
    for i in range(g.n):
        v = vert[i]
        dv = deg[v]
        if dv > d_out:
            d_out = dv
        for u in indices[indptr[v] : indptr[v + 1]].tolist():
            du = deg[u]
            if du > dv:
                pu = pos[u]
                pw = bin_start[du]
                w = vert[pw]
                if u != w:
                    vert[pu] = w
                    vert[pw] = u
                    pos[u] = pw
                    pos[w] = pu
                bin_start[du] = pw + 1
                deg[u] = du - 1
    return np.array(vert, np.int64), d_out


def check_graph_invariants(g):
    """Raise InvariantError unless g is a well-formed simple graph.

    After the dtype, shape, range, self-loop and row-order checks, g is
    symmetric exactly when ``build_graph`` rebuilds it unchanged from its
    own entries: the rebuild adds every missing reverse entry.
    """
    if g.indptr.dtype.kind != "i" or g.indices.dtype.kind != "i":
        raise InvariantError("indptr and indices must have signed integer dtypes")
    if g.indptr.shape[0] != g.n + 1 or g.indptr[0] != 0:
        raise InvariantError("indptr shape/start mismatch")
    row_sizes = np.diff(g.indptr)
    if (row_sizes < 0).any():
        raise InvariantError("indptr decreases")
    if g.indptr[-1] != g.indices.shape[0]:
        raise InvariantError("indptr end does not match indices length")
    if 2 * g.m != g.indices.shape[0]:
        raise InvariantError("edge count inconsistent with adjacency size")
    if g.indices.size and (g.indices.min() < 0 or g.indices.max() >= g.n):
        raise InvariantError("neighbor id out of range")
    src = np.repeat(np.arange(g.n, dtype=np.int64), row_sizes)
    if (src == g.indices).any():
        raise InvariantError("self-loop present")
    # ids are in range, so (row, id) keys rise strictly iff every row does
    if (np.diff(src * g.n + g.indices) <= 0).any():
        raise InvariantError("adjacency rows not strictly increasing")
    if build_graph(g.n, np.column_stack((src, g.indices))) != g:
        raise InvariantError("adjacency not symmetric")
