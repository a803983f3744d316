"""The packed-priority binary heap behind greedy cover.

Greedy cover (:mod:`rbdom.approx`) keeps its priority queue as a binary heap
on a preallocated int64 array. Entries pack (priority, vertex) into one int64
as ``priority << 32 | vertex`` so ties break on the low 32 bits (lowest
vertex id, or lowest supplied rank). Stale entries are never removed eagerly;
a popped entry is valid only if its packed priority still matches the current
state (lazy deletion). The lossy rule (:func:`rbdom.reduce.rr_lossy2`) uses
``heapq`` over Python ints instead.
"""


# Priority values must stay below 2**31 so the packed entry fits in int64;
# inverted priorities (cap - value) must stay nonnegative and below 2**31 too.
_PRI_CAP = (1 << 31) - 1
_ID_MASK = (1 << 32) - 1


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
