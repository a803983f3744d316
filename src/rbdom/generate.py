"""Seeded random graph generators.

Five models, all driven by numpy's default PRNG: binomial G(n, p) with
p = avg_deg/n, uniform G(n, m) with m = round(n * avg_deg / 2), Watts-Strogatz
ring rewiring, random d-regular via the pairing model with restarts, and
preferential attachment seeded with a clique on ``attach`` vertices (so
m = attach * (n - attach) + attach * (attach - 1) / 2). Outputs are
deterministic per (parameters, seed) within this implementation; no attempt
is made to match any other library's edge stream.
"""

import math

import numpy as np

from .graph import build_graph


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
    total = n * (n - 1) // 2
    return build_graph(n, _gnp_edges(total, p, seed, max(1024, int(total * p * 1.2))))


def _gnp_edges(total, p, seed, block):
    """(m, 2) int64 pairs (a, b), a < b, each of the ``total`` pairs kept w.p. p.

    Draws ``block`` uniforms per ``rng.random`` call until the skipped gaps
    pass the last pair, so ``block`` is part of the seeded stream. Each
    array is worked on in place; the pair decode reuses one scratch array.
    """
    rng = np.random.default_rng(seed)
    log_q = math.log1p(-p)
    picked = []
    last = -1
    while last < total - 1:
        u = rng.random(block)
        np.clip(u, 1e-300, None, out=u)
        np.log(u, out=u)
        u /= log_q
        np.floor(u, out=u)
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

    # linear index t of pair (a, b), a < b, is b*(b-1)/2 + a
    edges = np.empty((t.size, 2), np.int64)
    a, b = edges[:, 0], edges[:, 1]
    f = np.multiply(t, 8.0)
    f += 1.0
    np.sqrt(f, out=f)
    f += 1.0
    f /= 2.0
    b[:] = f
    w = f.view(np.int64)  # scratch for b*(b-1)/2 and b*(b+1)/2
    np.subtract(b, 1, out=w)
    w *= b
    w //= 2
    b -= w > t
    np.add(b, 1, out=w)
    w *= b
    w //= 2
    b += w <= t
    np.subtract(b, 1, out=w)
    w *= b
    w //= 2
    np.subtract(t, w, out=a)
    return edges


def gen_gnm(n, avg_deg, seed):
    """Exactly m = round(n * avg_deg / 2) distinct edges, uniform over edge sets.

    Samples unordered pairs with rejection until m distinct ones have been
    accepted, which is the uniform-model process itself.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
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
    return build_graph(n, np.column_stack(np.divmod(chosen, n)))


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
    rng = np.random.default_rng(seed)
    half = d // 2
    ring = [(u, (u + off) % n) for off in range(1, half + 1) for u in range(n)]
    present = set((u, v) if u < v else (v, u) for u, v in ring)
    edges = []
    for u, v in ring:
        key = (u, v) if u < v else (v, u)
        if rng.random() < p:
            w = int(rng.integers(0, n))
            new = (u, w) if u < w else (w, u)
            if w != u and new not in present:
                present.discard(key)
                present.add(new)
                edges.append(new)
                continue
        edges.append(key)
    return build_graph(n, edges)


def gen_random_regular(n, d, seed):
    """Random d-regular simple graph via the pairing model with restarts."""
    if d < 0 or d >= n:
        raise ValueError(f"need 0 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    rng = np.random.default_rng(seed)
    if d == 0:
        return build_graph(n, [])
    while True:
        edges = _pairing_attempt(n, d, rng)
        if edges is not None:
            return build_graph(n, edges)


def _pairing_attempt(n, d, rng):
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    edges = set()
    while stubs.size:
        rng.shuffle(stubs)
        leftover = []
        progress = False
        it = stubs.tolist()
        for i in range(0, len(it) - 1, 2):
            u, v = it[i], it[i + 1]
            e = (u, v) if u < v else (v, u)
            if u == v or e in edges:
                leftover.append(u)
                leftover.append(v)
            else:
                edges.add(e)
                progress = True
        if leftover and not progress:
            return None  # stuck; caller restarts with fresh randomness
        stubs = np.asarray(leftover, dtype=np.int64)
    return list(edges)


def gen_barabasi_albert(n, attach, seed):
    """Preferential attachment on a clique seed of ``attach`` vertices.

    Every later vertex attaches to ``attach`` distinct existing vertices
    drawn proportionally to degree (uniformly while no edge exists yet).
    """
    if not 1 <= attach < n:
        raise ValueError(f"need 1 <= attach < n, got attach={attach}, n={n}")
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(attach) for j in range(i + 1, attach)]
    endpoints = [v for e in edges for v in e]
    for v in range(attach, n):
        targets = set()
        while len(targets) < attach:
            if endpoints:
                targets.add(endpoints[int(rng.integers(0, len(endpoints)))])
            else:
                targets.add(int(rng.integers(0, v)))
        for t in sorted(targets):
            edges.append((v, t))
            endpoints.append(v)
            endpoints.append(t)
    return build_graph(n, edges)
