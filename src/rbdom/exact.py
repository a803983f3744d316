"""Exact minimum red-blue dominating set solvers.

Both solvers work on Python-int bitsets: bit v of ``ball[u]`` is set when v
lies in the closed neighborhood N[u], and the blue vertices form one more
mask. ``brute_force_min`` enumerates subsets and is the trusted reference at
toy sizes. ``exact_min`` is a depth-first branch and bound over an explicit
stack: it branches on a blue vertex that is hardest to dominate (smallest
closed neighborhood), trying the vertices of its ball lowest first, prunes
with a packing lower bound (blue vertices with pairwise-disjoint closed
neighborhoods, each forcing one distinct solution vertex), and starts from
the greedy incumbent. A frame keeps the dominated and banned masks of its
node, so backtracking resumes from the frame with no state to undo. The
search budget is a deterministic work counter derived from the requested
time limit, so repeated runs return identical results; see
WORK_UNITS_PER_SECOND.
"""

import math
from itertools import combinations

import numpy as np

from .approx import Approximator, approximate

# Work units granted per second of time budget. A unit is one vertex of a
# closed neighborhood touched by the search: a fixed, deterministic measure
# of work, not a measured speed. On perfbench's exact-small workload the
# bitset search spends about 8 million units per second (CPython 3.11, 2
# vCPU x86-64), so a budget runs out long before its nominal time.
# Recalibrating changes which searches finish, and so the results.
WORK_UNITS_PER_SECOND = 300_000

BRUTE_FORCE_LIMIT = 24


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
    blue = int.from_bytes(np.packbits(inst.blue, bitorder="little").tobytes(), "little")
    return ball, blue


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


def _packing_lower_bound(ball, ball_size, by_ball, dom):
    """Greedy count of undominated blue vertices with disjoint closed balls.

    Any valid solution needs one vertex inside each such ball, so the count
    lower-bounds the remaining solution size. Returns (count, work), where
    work is the summed ball size of the undominated blue vertices visited.
    """
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


def exact_min(inst, time_budget=30.0):
    """Branch-and-bound minimum solution under a deterministic budget.

    Returns (solution, proven_optimal, lower_bound). On budget expiry the
    incumbent found so far comes back with proven_optimal=False and the
    root packing bound as lower_bound; lower_bound always holds, and equals
    the solution size when proven. Raises ValueError unless time_budget is
    a positive finite number.
    """
    if not (time_budget > 0 and math.isfinite(time_budget)):
        raise ValueError(
            f"time budget must be a positive finite number, got {time_budget}"
        )
    best = sorted(approximate(inst, Approximator.GREEDY_COVER))
    best_size = len(best)
    if best_size == 0:
        return set(), True, 0

    left = max(10_000, int(time_budget * WORK_UNITS_PER_SECOND))

    ball, blue = _masks(inst)
    ball_size = (np.diff(inst.graph.indptr) + 1).tolist()
    # blue vertices by ball size, ties by id (the sort is stable)
    by_ball = sorted(np.flatnonzero(inst.blue).tolist(), key=ball_size.__getitem__)

    root_lb, work = _packing_lower_bound(ball, ball_size, by_ball, 0)
    left -= work
    if root_lb >= best_size:
        return set(best), True, best_size
    if left <= 0:
        return set(best), False, root_lb

    chosen = []
    # one frame per open node: [branch index in by_ball, dominated mask,
    # banned mask, options not yet tried]; the root branches on by_ball[0]
    stack = [[0, 0, 0, ball[by_ball[0]]]]
    truncated = False
    while stack:
        # descend into the next untried option of the deepest open node
        frame = stack[-1]
        del chosen[len(stack) - 1 :]
        scan, node_dom, banned, options = frame
        if options == 0:
            stack.pop()
            continue
        low = options & -options
        u = low.bit_length() - 1
        # solutions containing u are fully explored once its subtree ends
        frame[2] = banned | low
        frame[3] = options ^ low
        left -= (ball[u] & ~node_dom).bit_count() + 1
        chosen.append(u)
        dom = node_dom | ball[u]

        # evaluate the node reached by the vertices in chosen
        depth = len(chosen)
        if blue & ~dom == 0:
            if depth < best_size:
                best = list(chosen)
                best_size = depth
        elif depth + 1 < best_size:
            lb, work = _packing_lower_bound(ball, ball_size, by_ball, dom)
            left -= work
            if left <= 0:
                truncated = True
                break
            if depth + lb < best_size:
                # branch on the first (smallest closed ball) undominated blue vertex
                i = scan
                while dom >> by_ball[i] & 1:
                    i += 1
                stack.append([i, dom, banned, ball[by_ball[i]] & ~banned])

    if best_size <= root_lb or not truncated:
        return set(best), True, best_size
    return set(best), False, root_lb
