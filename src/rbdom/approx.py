"""Drop-in approximators: deterministic algorithms dominating all blue vertices.

Both run the same greedy cover loop (always valid, always terminates, at
most n picks); they differ only in how ties between equally-covering
candidates are broken. Either can be swapped into the experiment pipelines
without touching anything else.
"""

import enum

import numpy as np

from .graph import _ID_MASK, _neighbor_sums, degeneracy_order


class Approximator(enum.Enum):
    GREEDY_COVER = "greedy"
    DEGENERACY_GUIDED = "degeneracy"


def _heap_push(heap, size, item):
    """Push ``item`` onto the min-heap stored in ``heap[:size]``."""
    heap[size] = item
    i = size
    while i > 0:
        parent = (i - 1) >> 1
        if heap[parent] <= heap[i]:
            break
        tmp = heap[parent]
        heap[parent] = heap[i]
        heap[i] = tmp
        i = parent
    return size + 1


def _heap_pop(heap, size):
    """Pop the minimum item; returns (item, new_size)."""
    top = heap[0]
    size -= 1
    heap[0] = heap[size]
    i = 0
    while True:
        child = 2 * i + 1
        if child >= size:
            break
        right = child + 1
        if right < size and heap[right] < heap[child]:
            child = right
        if heap[i] <= heap[child]:
            break
        tmp = heap[i]
        heap[i] = heap[child]
        heap[child] = tmp
        i = child
    return top, size


def _greedy_picks(g, blue, tie, untie):
    """Greedy blue cover: take the vertex covering the most blue, repeat.

    ``tie[v]`` is the tie-break rank of v and ``untie`` its inverse
    permutation; identity arrays give lowest-id tie-breaking, a degeneracy
    ranking gives the degeneracy-guided variant. ``blue`` is mutated in
    place. Returns the chosen vertices in pick order.

    The queue is a binary min-heap on a preallocated int64 array keyed
    ``(-cover << 32) | tie``. Stale entries stay in it; a popped entry counts
    only if its cover still matches (lazy deletion).
    """
    indptr, indices = g.indptr, g.indices
    picks = []
    nblue = int(np.count_nonzero(blue))
    cover = _neighbor_sums(g, blue) + blue

    heap = np.empty(2 * g.n + indices.shape[0] + 2, np.int64)
    size = 0
    for v in np.flatnonzero(cover).tolist():
        size = _heap_push(heap, size, (-cover[v] << 32) | tie[v])

    while nblue > 0:
        item, size = _heap_pop(heap, size)
        v = untie[item & _ID_MASK]
        if cover[v] != -(item >> 32):
            continue
        picks.append(int(v))
        for off in range(-1, indptr[v + 1] - indptr[v]):
            w = v if off == -1 else indices[indptr[v] + off]
            if blue[w]:
                blue[w] = False
                nblue -= 1
                for woff in range(-1, indptr[w + 1] - indptr[w]):
                    t = w if woff == -1 else indices[indptr[w] + woff]
                    cover[t] -= 1
                    if cover[t] > 0:
                        size = _heap_push(heap, size, (-cover[t] << 32) | tie[t])
    return picks


def approximate(inst, which=Approximator.GREEDY_COVER):
    """Greedy blue cover on a scratch copy of the color state.

    Repeatedly picks the vertex whose closed neighborhood contains the most
    blue vertices and recolors that neighborhood. GREEDY_COVER breaks ties
    toward the lowest vertex id; DEGENERACY_GUIDED toward the earliest
    position in the degeneracy ordering. ``which`` is a member or its value;
    any other value raises ValueError. Returns a valid solution set.
    """
    g = inst.graph
    if Approximator(which) is Approximator.DEGENERACY_GUIDED:
        untie, _ = degeneracy_order(g)
        tie = np.empty(g.n, dtype=np.int64)
        tie[untie] = np.arange(g.n, dtype=np.int64)
    else:
        tie = untie = np.arange(g.n, dtype=np.int64)
    return set(_greedy_picks(g, inst.blue.copy(), tie, untie))
