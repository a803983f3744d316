"""The packed-priority binary heap behind greedy cover."""

import numpy as np

from rbdom.kernels import _heap_pop, _heap_push


def test_heap_sorts(rng):
    values = rng.integers(0, 1 << 40, size=200)
    heap = np.empty(values.size, dtype=np.int64)
    size = 0
    for v in values:
        size = _heap_push(heap, size, int(v))
    popped = []
    while size:
        item, size = _heap_pop(heap, size)
        popped.append(item)
    assert popped == sorted(int(v) for v in values)
