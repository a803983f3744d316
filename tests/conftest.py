"""Shared helpers: slow reference oracles, independent of the package loops.

Everything here recomputes results with plain sets and exhaustive loops so
the fast CSR/heap implementations have something trustworthy to be checked
against.
"""

import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from rbdom import (
    Approximator,
    LiftRecord,
    ParseError,
    RBInstance,
    RuleKind,
    approximate,
    build_graph,
)
from rbdom.exact import WORK_UNITS_PER_SECOND, _masks

logger = logging.getLogger(__name__)

# every property runs the same seeded examples on every run and has no time
# limit per example; each test sets only its own max_examples
settings.register_profile("rbdom", derandomize=True, deadline=None)
settings.load_profile("rbdom")


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


def milp_optimum(inst):
    """Minimum solution size by the closed-neighborhood ILP over the blue rows.

    min sum x_v subject to sum of x_u over N[v] >= 1 for every blue v, x
    binary; solved exactly by scipy's HiGHS MILP. Test-only: scipy is not a
    runtime dependency of the package.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    g = inst.graph
    rows = np.flatnonzero(inst.blue)
    if rows.size == 0:
        return 0
    a = np.zeros((rows.size, g.n))
    for r, v in enumerate(rows.tolist()):
        a[r, v] = 1
        a[r, g.neighbors(v)] = 1
    res = milp(
        c=np.ones(g.n),
        constraints=LinearConstraint(a, lb=1),
        integrality=np.ones(g.n),
        bounds=Bounds(0, 1),
    )
    assert res.status == 0, res.message
    return int(round(res.fun))


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


def degeneracy_reference(g):
    """The bucket-queue peeling degeneracy_order replaced, over plain lists.

    Returns (order, d): the removal sequence and the largest degree seen at
    removal time.
    """
    n = g.n
    indptr = g.indptr.tolist()
    indices = g.indices.tolist()
    order = [0] * n
    deg = [0] * n
    maxdeg = 0
    for v in range(n):
        deg[v] = indptr[v + 1] - indptr[v]
        if deg[v] > maxdeg:
            maxdeg = deg[v]

    # counting sort of vertices by degree
    count = [0] * (maxdeg + 1)
    for v in range(n):
        count[deg[v]] += 1
    bin_start = [0] * (maxdeg + 1)
    acc = 0
    for d in range(maxdeg + 1):
        bin_start[d] = acc
        acc += count[d]
    fill = list(bin_start)
    pos = [0] * n
    vert = [0] * n
    for v in range(n):
        pos[v] = fill[deg[v]]
        vert[pos[v]] = v
        fill[deg[v]] += 1

    d_out = 0
    for i in range(n):
        v = vert[i]
        if deg[v] > d_out:
            d_out = deg[v]
        order[i] = v
        for idx in range(indptr[v], indptr[v + 1]):
            u = indices[idx]
            if deg[u] > deg[v]:
                du = deg[u]
                pu = pos[u]
                pw = bin_start[du]
                w = vert[pw]
                if u != w:
                    vert[pu] = w
                    vert[pw] = u
                    pos[u] = pw
                    pos[w] = pu
                bin_start[du] += 1
                deg[u] -= 1
    return order, d_out


def build_graph_reference(n, edges):
    """CSR arrays of build_graph, from one neighbor set per vertex.

    Returns (indptr, indices) as lists: self-loops dropped, each edge in
    both rows once, rows sorted ascending.
    """
    rows = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            rows[u].add(v)
            rows[v].add(u)
    indptr, indices = [0], []
    for row in rows:
        indices.extend(sorted(row))
        indptr.append(len(indices))
    return indptr, indices


def gen_gnp_reference(n, avg_deg, seed, block=None):
    """gen_gnp as whole-array expressions, the form the in-place version replaced.

    ``block`` overrides the draws per ``rng.random`` call, which the public
    function fixes at 1.2 times the expected edge count; a small block makes
    the multi-block path reachable.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0 < avg_deg < n:
        raise ValueError(f"need 0 < avg_deg < n, got avg_deg={avg_deg}")
    p = avg_deg / n
    total = n * (n - 1) // 2
    rng = np.random.default_rng(seed)
    log_q = math.log1p(-p)

    picked = []
    last = -1
    if block is None:
        block = max(1024, int(total * p * 1.2))
    while last < total - 1:
        u = rng.random(block)
        np.clip(u, 1e-300, None, out=u)
        gaps = np.floor(np.log(u) / log_q).astype(np.int64) + 1
        positions = last + np.cumsum(gaps)
        picked.append(positions[positions <= total - 1])
        last = int(positions[-1])
    if not picked:
        return build_graph(n, [])
    t = np.concatenate(picked)

    # linear index t of pair (a, b), a < b, is b*(b-1)/2 + a
    b = ((1.0 + np.sqrt(1.0 + 8.0 * t)) / 2.0).astype(np.int64)
    b -= b * (b - 1) // 2 > t
    b += b * (b + 1) // 2 <= t
    a = t - b * (b - 1) // 2
    return build_graph(n, np.column_stack([a, b]))


def pendant_reference(g, blue):
    """Set-based replay of the exhaustive pendant rule; returns (reps, blue)."""
    blue = set(blue)
    closed = closed_sets(g)
    reps = []
    while True:
        pendants = [v for v in sorted(blue) if g.neighbors(v).size == 1]
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


def verify_psi_reference(inst_before, images):
    """The per-vertex pair-map checker verify_psi replaced; images is x -> psi(x).

    True iff psi is injective into the then-blue vertices outside X, no
    image touches the closed neighborhood of its own x or the open
    neighborhood of any x, and image closed neighborhoods are pairwise
    disjoint.
    """
    g = inst_before.graph
    if not images:
        return True
    xs = list(images)
    zs = list(images.values())

    if len(set(zs)) != len(zs):
        return False
    x_flags = np.zeros(g.n, dtype=np.bool_)
    x_flags[xs] = True
    for z in zs:
        if not inst_before.blue[z] or x_flags[z]:
            return False

    z_flags = np.zeros(g.n, dtype=np.bool_)
    z_flags[zs] = True
    for x in xs:
        # own image outside N[x]; no image inside N(x)
        if images[x] == x or z_flags[g.neighbors(x)].any():
            return False

    touched = np.zeros(g.n, dtype=np.bool_)
    for z in zs:
        ball = np.append(g.neighbors(z), z)
        if touched[ball].any():
            return False
        touched[ball] = True
    return True


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


# every ASCII whitespace character but LF, mapped to a space
_ASCII_SPACE_TO_BLANK = str.maketrans("\t\r\v\f", "    ")


def _ascii_int(field):
    """int(field) for ASCII decimal digits with an optional sign, else ValueError."""
    digits = field[1:] if field[0] in "+-" else field
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(field)
    return int(field)


def parse_edge_list_reference(text):
    """The line-by-line edge-list parser the bulk reader replaced.

    Lines end at LF only; fields split on ASCII whitespace.
    """
    header = None
    edges = []
    n = m = 0
    for lineno, raw in enumerate(text.split("\n"), start=1):
        parts = raw.translate(_ASCII_SPACE_TO_BLANK).split(" ")
        parts = [p for p in parts if p]
        if not parts or parts[0].startswith("#"):
            continue
        if header is None:
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected header 'n m'")
            try:
                n, m = _ascii_int(parts[0]), _ascii_int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer header") from None
            if n < 0 or m < 0:
                raise ParseError(f"line {lineno}: negative counts in header")
            if n >= 1 << 31:
                raise ParseError(
                    f"line {lineno}: vertex count {n} exceeds the supported 2^31 limit"
                )
            header = lineno
            continue
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected edge 'u v'")
        try:
            u, v = _ascii_int(parts[0]), _ascii_int(parts[1])
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


def _packing_lower_bound_reference(ball, ball_size, by_ball, dom):
    """The per-vertex packing scan exact_min's size-class greedy replaced."""
    used = count = work = 0
    for v in by_ball:
        if dom >> v & 1:
            continue
        work += ball_size[v]
        if used & ball[v]:
            continue
        used |= ball[v]
        count += 1
    return count, work


def exact_min_reference(inst, time_budget):
    """exact_min's search as it was before size-class packing and early exit.

    Scans every blue vertex in ball-size order for each packing bound and
    keeps the path in a list. Returns (solution, proven_optimal, lower_bound).
    """
    best = sorted(approximate(inst, Approximator.GREEDY_COVER))
    best_size = len(best)
    if best_size == 0:
        return set(), True, 0

    left = max(10_000, int(time_budget * WORK_UNITS_PER_SECOND))

    ball, blue = _masks(inst)
    ball_size = (np.diff(inst.graph.indptr) + 1).tolist()
    by_ball = sorted(np.flatnonzero(inst.blue).tolist(), key=ball_size.__getitem__)

    root_lb, work = _packing_lower_bound_reference(ball, ball_size, by_ball, 0)
    left -= work
    if root_lb >= best_size:
        return set(best), True, best_size
    if left <= 0:
        return set(best), False, root_lb

    chosen = []
    stack = [[0, 0, 0, ball[by_ball[0]]]]
    truncated = False
    while stack:
        frame = stack[-1]
        del chosen[len(stack) - 1 :]
        scan, node_dom, banned, options = frame
        if options == 0:
            stack.pop()
            continue
        low = options & -options
        u = low.bit_length() - 1
        frame[2] = banned | low
        frame[3] = options ^ low
        left -= (ball[u] & ~node_dom).bit_count() + 1
        chosen.append(u)
        dom = node_dom | ball[u]

        depth = len(chosen)
        if blue & ~dom == 0:
            if depth < best_size:
                best = list(chosen)
                best_size = depth
        elif depth + 1 < best_size:
            lb, work = _packing_lower_bound_reference(ball, ball_size, by_ball, dom)
            left -= work
            if left <= 0:
                truncated = True
                break
            if depth + lb < best_size:
                i = scan
                while dom >> by_ball[i] & 1:
                    i += 1
                stack.append([i, dom, banned, ball[by_ball[i]] & ~banned])

    if best_size <= root_lb or not truncated:
        return set(best), True, best_size
    return set(best), False, root_lb


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


@st.composite
def small_instances(draw, n_max, all_blue_only):
    """n <= n_max, edge density 0.05..0.6, all blue or an arbitrary blue mask.

    A drawn seed fills an n_max x n_max matrix of uniform weights, and pair
    (u, v), u < v < n, is an edge when its weight falls under the drawn
    density, so dense graphs are as reachable as sparse ones. A failing
    example shrinks through three integers and the mask: a smaller n keeps
    the induced subgraph and a lower density a subgraph. The exact-search
    properties need densities 0.2..0.4, where the greedy incumbent is most
    often beaten and the branch and bound has to find the optimum itself.
    """
    n = draw(st.integers(1, n_max))
    density = draw(st.integers(1, 12)) / 20
    weights = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((n_max, n_max))
    edges = np.argwhere(np.triu(weights[:n, :n] < density, 1))
    blue = [True] * n if all_blue_only else draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return RBInstance(build_graph(n, edges), np.array(blue, dtype=bool))


def coloured_instances(n_max):
    """Instances that are all blue or carry an arbitrary blue mask, half each."""
    return st.one_of(small_instances(n_max, True), small_instances(n_max, False))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def neighbour_image_lossy(monkeypatch):
    """Make the pipelines' lossy rule pair x = 0 with its neighbour 1.

    An image inside N(x) breaks the pair map, so the pipelines' psi check
    must reject it.
    """

    def rule(inst):
        return LiftRecord(RuleKind.LOSSY2, frozenset({0}), {0: 1})

    monkeypatch.setattr("rbdom.pipeline.rr_lossy2", rule)


def path_graph(k):
    return build_graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k):
    return build_graph(k, [(i, (i + 1) % k) for i in range(k)])


def star_graph(leaves):
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(k):
    return build_graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])
