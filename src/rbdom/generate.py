"""Seeded random graph generators.

Five models, all driven by numpy's default PRNG: binomial G(n, p) with
p = avg_deg/n, uniform G(n, m) with m = round(n * avg_deg / 2), Watts-Strogatz
ring rewiring, random d-regular via the pairing model with restarts (the
complement of a sparser one when 2d > n), and preferential attachment seeded
with a clique on ``attach`` vertices (so
m = attach * (n - attach) + attach * (attach - 1) / 2). Outputs are
deterministic per (parameters, seed) within this implementation; no attempt
is made to match any other library's edge stream.

Draw order is part of that contract: each generator makes its draws from its
own ``default_rng(seed)`` in a fixed order. Watts-Strogatz and
Barabasi-Albert make one scalar draw at a time, so they decode
``Generator.random()`` and ``Generator.integers(0, k)`` from the raw 64-bit
words themselves (:class:`_Draws`), which gives numpy's values at a fraction
of a scalar call's cost. The decoder reads words a block ahead; the words
past the last draw are never used, and since the generator owns its
``Generator`` nothing else sees them.
"""

import itertools
import math

import numpy as np

from .graph import build_graph


# raw words per block: small graphs read few past their last draw, and the
# blocks stop doubling at the cap so memory does not grow with n
_FIRST_BLOCK, _MAX_BLOCK = 64, 4096
_LOW32 = (1 << 32) - 1


def _raw_blocks(bits):
    """Endless lists of raw 64-bit words from ``bits``, in stream order."""
    size = _FIRST_BLOCK
    while True:
        yield bits.random_raw(size).tolist()
        size = min(2 * size, _MAX_BLOCK)


def _halves(word):
    """32-bit halves of the words ``word()`` returns: low half, then high half.

    A word is read only when its low half is asked for, so words that other
    callers of ``word`` read in between are skipped, as numpy's buffered
    32-bit draws skip the words that 64-bit draws take.
    """
    while True:
        w = word()
        yield w & _LOW32
        yield w >> 32


class _Draws:
    """numpy's scalar ``random()`` and ``integers(0, k)`` decoded from raw words.

    Takes a fresh ``default_rng`` Generator, whose PCG64 serves 32-bit draws
    as halves of its 64-bit words, and returns the values that the same
    sequence of calls on it would: ``uniform()`` is ``random()``, which turns one
    64-bit word w into (w >> 11) * 2**-53. ``below(k)`` is ``integers(0, k)``
    for 1 <= k <= 2**32, numpy's 32-bit Lemire rejection on 32-bit halves:
    the low half of a fresh word, then its high half at the next 32-bit draw,
    however many ``uniform()`` calls come between.
    """

    __slots__ = ("_word", "_half")

    def __init__(self, rng):
        words = itertools.chain.from_iterable(_raw_blocks(rng.bit_generator))
        self._word = words.__next__
        self._half = _halves(self._word).__next__

    def uniform(self):
        return (self._word() >> 11) * 2.0**-53

    def below(self, k):
        if not 1 <= k <= 1 << 32:
            raise ValueError(f"need 1 <= k <= 2**32, got {k}")
        if k == 1:
            return 0  # numpy draws nothing for a single value
        while True:
            m = self._half() * k
            low = m & _LOW32
            # low >= k already clears the threshold (2**32 - k) % k < k
            if low >= k or low >= ((1 << 32) - k) % k:
                return m >> 32


def _graph_from_keys(n, keys):
    """The graph on n vertices whose edges are the lo * n + hi int64 ``keys``."""
    return build_graph(n, np.column_stack(np.divmod(keys, n)))


def gen_gnp(n, avg_deg, seed):
    """Each unordered pair becomes an edge independently with p = avg_deg/n.

    Pairs are visited through geometric gap skipping, so the cost scales
    with the number of edges produced rather than n^2.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0 < avg_deg < n:
        raise ValueError(f"need 0 < avg_deg < n, got avg_deg={avg_deg}")
    p = avg_deg / n
    block = max(1024, int(n * (n - 1) // 2 * p * 1.2))
    return build_graph(n, _gnp_edges(n, p, seed, block))


def _gnp_edges(n, p, seed, block):
    """(m, 2) int64 pairs (a, b), 0 <= a < b < n, each pair kept w.p. p.

    Draws ``block`` uniforms per ``rng.random`` call until the skipped gaps
    pass the last of the n(n-1)/2 pairs, so ``block`` is part of the seeded
    stream. Each array is worked on in place, and a pair index decodes
    exactly by one search in the n + 1 triangular numbers; gen_gnp's
    tracemalloc peak is 2.05 times the CSR it builds.
    """
    total = n * (n - 1) // 2
    rng = np.random.default_rng(seed)
    log_q = math.log1p(-p)
    picked = []
    last = -1
    while last < total - 1:
        u = rng.random(block)
        np.clip(u, 1e-300, None, out=u)
        np.log(u, out=u)
        with np.errstate(divide="ignore", over="ignore"):
            u /= log_q  # inf where p is tiny or underflowed to 0
        np.floor(u, out=u)
        np.minimum(u, total, out=u)  # a gap of total already passes the last pair
        positions = u.astype(np.int64)
        del u
        positions += 1
        np.cumsum(positions, out=positions)
        positions += last
        # positions rise strictly, so the pairs in range are a prefix
        picked.append(positions[: np.searchsorted(positions, total - 1, side="right")])
        last = int(positions[-1])
    if not picked:
        return np.empty((0, 2), np.int64)
    t = picked[0] if len(picked) == 1 else np.concatenate(picked)
    del picked

    # pair (a, b), a < b, has linear index t = first[b] + a, so b is the last
    # row with first[b] <= t; gathering first[b] into b's own array keeps
    # a = t - first[b] from holding one more m-entry array
    first = np.arange(n + 1, dtype=np.int64)
    first *= first - 1
    first //= 2
    edges = np.empty((t.size, 2), np.int64)
    b = np.searchsorted(first, t, side="right")
    b -= 1
    edges[:, 1] = b
    np.take(first, b, out=b, mode="clip")
    np.subtract(t, b, out=edges[:, 0])
    return edges


def gen_gnm(n, avg_deg, seed):
    """Exactly m = round(n * avg_deg / 2) distinct edges, uniform over edge sets.

    Samples unordered pairs with rejection until m distinct ones have been
    accepted, which is the uniform-model process itself.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not math.isfinite(avg_deg):
        raise ValueError(f"need a finite avg_deg, got avg_deg={avg_deg}")
    m = int(round(n * avg_deg / 2))
    total = n * (n - 1) // 2
    if m < 0 or m > total:
        raise ValueError(f"edge count {m} outside [0, {total}] for n={n}")
    rng = np.random.default_rng(seed)
    # accepted edges as lo * n + hi keys, in the order they were first drawn
    chosen = np.empty(0, np.int64)
    while chosen.size < m:
        k = max(64, int((m - chosen.size) * 1.3))
        us = rng.integers(0, n, size=k)
        vs = rng.integers(0, n, size=k)
        keys = np.minimum(us, vs) * n + np.maximum(us, vs)
        keys = keys[us != vs]
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
        keys = keys[~np.isin(keys, chosen)]
        chosen = np.concatenate((chosen, keys[: m - chosen.size]))
    return _graph_from_keys(n, chosen)


def gen_watts_strogatz(n, d, p, seed):
    """Ring lattice with d//2 neighbors per side, each edge rewired w.p. p.

    Rewiring replaces (u, v) by (u, w) for a uniform w; draws that would
    create a loop or duplicate are skipped, so the edge count stays exactly
    n * (d // 2). Edges are scanned offset-major: offset 1 around the ring,
    then offset 2, and so on.
    """
    if not d >= 2:
        raise ValueError(f"need d >= 2, got {d}")
    if not n > d:
        raise ValueError(f"need n > d, got n={n}, d={d}")
    if not 0 <= p <= 1:
        raise ValueError(f"need 0 <= p <= 1, got {p}")
    draws = _Draws(np.random.default_rng(seed))
    uniform, below = draws.uniform, draws.below
    half = d // 2
    # ring edges (u, u + off) as lo * n + hi keys, offset-major; u keeps its
    # end when the edge rewires
    us = np.tile(np.arange(n, dtype=np.int64), half)
    vs = us + np.repeat(np.arange(1, half + 1, dtype=np.int64), n)
    vs %= n
    ring = np.minimum(us, vs) * n + np.maximum(us, vs)
    present = set(ring.tolist())
    for u, key in zip(us.tolist(), ring.tolist()):
        if uniform() < p:
            w = below(n)
            new = u * n + w if u < w else w * n + u
            if w != u and new not in present:
                present.discard(key)
                present.add(new)
    return _graph_from_keys(n, np.fromiter(present, np.int64, len(present)))


def gen_random_regular(n, d, seed):
    """Random d-regular simple graph via the pairing model with restarts.

    Pairing stalls near the complete graph, so for 2 * d > n the graph is
    the complement of ``gen_random_regular(n, n - 1 - d, seed)``.
    """
    if d < 0 or d >= n:
        raise ValueError(f"need 0 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    if 2 * d > n:
        sparse = gen_random_regular(n, n - 1 - d, seed)
        free = np.ones((n, n), np.bool_)
        free[np.repeat(np.arange(n), sparse.degrees()), sparse.indices] = False
        return build_graph(n, np.argwhere(np.triu(free, 1)))
    rng = np.random.default_rng(seed)
    while True:
        keys = _pairing_attempt(n, d, rng)
        if keys is not None:
            return _graph_from_keys(n, keys)


def _pairing_attempt(n, d, rng):
    """Edges as lo * n + hi keys, or None when a round pairs nothing new."""
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    edges = set()
    while stubs.size:
        rng.shuffle(stubs)
        leftover = []
        progress = False
        it = stubs.tolist()
        for i in range(0, len(it) - 1, 2):
            u, v = it[i], it[i + 1]
            e = u * n + v if u < v else v * n + u
            if u == v or e in edges:
                leftover.append(u)
                leftover.append(v)
            else:
                edges.add(e)
                progress = True
        if leftover and not progress:
            return None  # stuck; caller restarts with fresh randomness
        stubs = np.asarray(leftover, dtype=np.int64)
    return np.fromiter(edges, np.int64, len(edges))


def gen_barabasi_albert(n, attach, seed):
    """Preferential attachment on a clique seed of ``attach`` vertices.

    Every later vertex attaches to ``attach`` distinct existing vertices
    drawn proportionally to degree (uniformly while no edge exists yet).
    """
    if not 1 <= attach < n:
        raise ValueError(f"need 1 <= attach < n, got attach={attach}, n={n}")
    below = _Draws(np.random.default_rng(seed)).below
    # every edge's two ends in order: the clique's, then (v, t) per target
    endpoints = [v for i in range(attach) for j in range(i + 1, attach) for v in (i, j)]
    for v in range(attach, n):
        # ends are drawn proportionally to degree; vertices uniformly while
        # there is no edge yet
        pool = endpoints or range(v)
        k = len(pool)
        targets = set()
        while len(targets) < attach:
            targets.add(pool[below(k)])
        for t in sorted(targets):
            endpoints += (v, t)
    return build_graph(n, np.array(endpoints, np.int64).reshape(-1, 2))
