"""Exact minimum red-blue dominating set solvers.

Both solvers work on Python-int bitsets: bit v of ``ball[u]`` is set when v
lies in the closed neighborhood N[u], and the blue vertices form one more
mask. ``brute_force_min`` enumerates subsets and is the trusted reference at
toy sizes. ``exact_min`` is a depth-first branch and bound over an explicit
stack: it branches on a blue vertex that is hardest to dominate (smallest
closed neighborhood), trying the vertices of its ball lowest first, prunes
with a packing lower bound (blue vertices with pairwise-disjoint closed
neighborhoods, each forcing one distinct solution vertex), and starts from
a greedy incumbent that it computes on its own bitsets: a lazy greedy
(Minoux 1978) that recounts a vertex's blue cover only when it reaches the
top of the heap, and so takes exactly the picks of
``approximate(inst, GREEDY_COVER)``. The blue vertices are grouped into one
mask per ball size, so both the branch vertex and the packing are found a
size class at a time, and the packing blocks each pick's distance-2 mask,
built on first use. A frame keeps the dominated and banned masks, the
work and the vertex taken at its node, so backtracking resumes from the
frame with no state to undo. The search budget is a deterministic work
counter derived from the requested time limit, so repeated runs return
identical results; see WORK_UNITS_PER_SECOND.
"""

import heapq
import math
from itertools import combinations

import numpy as np

# Work units granted per second of time budget. A unit is one vertex of a
# closed neighborhood touched by the search: a fixed, deterministic measure
# of work, not a measured speed. A node is charged its newly dominated
# vertices plus one, and, when it computes a packing bound, the summed ball
# sizes of its undominated blue vertices, whether or not the bound stops
# early. On perfbench's exact-small workload the bitset search spends about
# 39 million units per second (CPython 3.11, 2 vCPU x86-64; exact.units_per_s
# of `python3 perfbench/run.py --workload exact-small --seed 777 --seconds 25
# --trace 1`), so a budget runs out long before its nominal time.
# Recalibrating changes which searches finish, and so the results.
WORK_UNITS_PER_SECOND = 300_000

BRUTE_FORCE_LIMIT = 24


def _bitset(flags):
    """Python-int bitset with bit v set where the bool array ``flags`` is."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _masks(inst):
    """Closed-neighborhood bitmask of every vertex, and the blue bitmask."""
    g = inst.graph
    indptr = g.indptr.tolist()
    indices = g.indices.tolist()
    ball = []
    for v in range(g.n):
        b = 1 << v
        for u in indices[indptr[v] : indptr[v + 1]]:
            b |= 1 << u
        ball.append(b)
    return ball, _bitset(inst.blue)


def _greedy_cover(ball, blue):
    """Greedy blue cover on bitsets: GREEDY_COVER's picks, in pick order.

    Takes the vertex whose ball holds the most blue vertices, lowest id on
    ties, until no blue vertex is left. The heap holds ``(-cover, v)`` keys
    that may be stale; covers only fall, so a top whose recount matches its
    key is the true maximum, and a stale top is re-keyed in place. A key of
    0 never reaches the top while some vertex still covers a blue one.
    """
    heap = [(-(b & blue).bit_count(), v) for v, b in enumerate(ball)]
    heapq.heapify(heap)
    picks = []
    while blue:
        key, v = heap[0]
        cover = (ball[v] & blue).bit_count()
        if cover == -key:
            picks.append(v)
            blue &= ~ball[v]
            heapq.heappop(heap)
        else:
            heapq.heapreplace(heap, (-cover, v))
    return picks


class _Distance2(dict):
    """Distance-2 masks, built on first use: N[N[v]], the w whose ball meets N[v]."""

    def __init__(self, graph, ball):
        self.indptr = graph.indptr.tolist()
        self.indices = graph.indices.tolist()
        self.ball = ball

    def __missing__(self, v):
        ball = self.ball
        reach = ball[v]
        for u in self.indices[self.indptr[v] : self.indptr[v + 1]]:
            reach |= ball[u]
        self[v] = reach
        return reach


def brute_force_min(inst):
    """Minimum solution by subset enumeration, smallest size first.

    Ties resolve to the lexicographically least vertex tuple. Guarded to
    n <= 24; raises ValueError beyond that.
    """
    n = inst.graph.n
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute_force_min refused: n={n} exceeds limit {BRUTE_FORCE_LIMIT}"
        )
    ball, blue = _masks(inst)
    if blue == 0:
        return set()
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            covered = 0
            for v in combo:
                covered |= ball[v]
            if covered & blue == blue:
                return set(combo)
    raise AssertionError("unreachable: the full vertex set dominates everything")


def _packing_lower_bound(classes, start, dom, cap, dist2):
    """Greedy count of undominated blue vertices with disjoint closed balls.

    Any valid solution needs one vertex inside each such ball, so the count
    lower-bounds the remaining solution size. ``classes`` holds one blue
    mask per ball size, smallest first; those before ``start`` hold no
    undominated vertex. The greedy takes blue vertices by ball size, ties by
    id, skipping any whose ball meets an earlier pick's: within a class it
    takes the lowest bit not yet blocked, then blocks the pick's distance-2
    mask ``dist2[v]``, which holds exactly the vertices whose balls meet
    N[v]. Counting stops once it reaches ``cap``, which is enough to prune.
    """
    count = 0
    blocked = dom
    for cls in classes[start:]:
        free = cls & ~blocked
        while free:
            v = (free & -free).bit_length() - 1
            count += 1
            if count >= cap:
                return count
            reach = dist2[v]
            blocked |= reach
            free &= ~reach
    return count


def exact_min(inst, time_budget=30.0):
    """Branch-and-bound minimum solution under a deterministic budget.

    Returns (solution, proven_optimal, lower_bound). The result is proven,
    with lower_bound the solution size, when the search ends or the
    incumbent meets the root packing bound; otherwise the budget ran out,
    possibly at the root, and lower_bound is the root packing bound.
    Raises ValueError unless time_budget is a positive finite number.
    """
    if not (time_budget > 0 and math.isfinite(time_budget)):
        raise ValueError(
            f"time budget must be a positive finite number, got {time_budget}"
        )
    g = inst.graph
    ball, blue = _masks(inst)
    best = _greedy_cover(ball, blue)
    best_size = len(best)
    left = max(10_000, int(time_budget * WORK_UNITS_PER_SECOND))

    sizes = np.diff(g.indptr) + 1
    ball_size = sizes.tolist()
    # one mask of blue vertices per ball size, smallest first
    classes = [_bitset(inst.blue & (sizes == s)) for s in np.unique(sizes[inst.blue])]
    dist2 = _Distance2(g, ball)

    # the work of a node is the summed ball size of its undominated blue vertices
    work = int(sizes[inst.blue].sum())
    root_lb = _packing_lower_bound(classes, 0, 0, math.inf, dist2)
    left -= work
    truncated = left <= 0

    # one frame per open node: [first class with an undominated vertex,
    # dominated mask, banned mask, options not yet tried, work, vertex taken
    # into the open child]; the root branches on the lowest bit of classes[0]
    stack = []
    if root_lb < best_size and not truncated:
        first = classes[0] & -classes[0]
        stack.append([0, 0, 0, ball[first.bit_length() - 1], work, -1])
    while stack:
        # descend into the next untried option of the deepest open node
        frame = stack[-1]
        start, node_dom, banned, options, work, _ = frame
        if options == 0:
            stack.pop()
            continue
        low = options & -options
        u = low.bit_length() - 1
        # solutions containing u are fully explored once its subtree ends
        frame[2] = banned | low
        frame[3] = options ^ low
        frame[5] = u
        fresh = ball[u] & ~node_dom
        left -= fresh.bit_count() + 1
        dom = node_dom | fresh

        # evaluate the node reached by the vertices taken along the stack
        depth = len(stack)
        if blue & ~dom == 0:
            if depth < best_size:
                best = [f[5] for f in stack]
                best_size = depth
        elif depth + 1 < best_size:
            fresh &= blue
            while fresh:
                low = fresh & -fresh
                work -= ball_size[low.bit_length() - 1]
                fresh ^= low
            left -= work
            if left <= 0:
                truncated = True
                break
            while not classes[start] & ~dom:
                start += 1
            lb = _packing_lower_bound(classes, start, dom, best_size - depth, dist2)
            if depth + lb < best_size:
                # branch on the first (smallest closed ball) undominated blue vertex
                low = classes[start] & ~dom
                v = (low & -low).bit_length() - 1
                stack.append([start, dom, banned, ball[v] & ~banned, work, -1])

    proven = best_size <= root_lb or not truncated
    return set(best), proven, best_size if proven else root_lb
