"""Inner loops for the reduction and approximation passes.

Every kernel works on flat CSR adjacency arrays (``indptr``/``indices``) plus
numpy state vectors.

Priority queues are binary heaps on preallocated int64 arrays. Entries pack
(priority, vertex) into one int64 as ``priority << 32 | vertex`` so ties
break on the low 32 bits (lowest vertex id, or lowest supplied rank). Stale
entries are never removed eagerly; a popped entry is valid only if its packed
priority still matches the current state (lazy deletion).
"""

import numpy as np


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


def degeneracy_kernel(n, indptr, indices):
    """Peel vertices in increasing current-degree order (bucket queue).

    Returns (order, d): ``order`` is the removal sequence and ``d`` the
    largest degree seen at removal time, i.e. the degeneracy. Linear in
    n + m; degrees at removal are non-decreasing, which keeps the bucket
    fronts ahead of processed vertices.
    """
    order = np.empty(n, np.int64)
    deg = np.empty(n, np.int64)
    maxdeg = 0
    for v in range(n):
        deg[v] = indptr[v + 1] - indptr[v]
        if deg[v] > maxdeg:
            maxdeg = deg[v]

    # counting sort of vertices by degree
    count = np.zeros(maxdeg + 1, np.int64)
    for v in range(n):
        count[deg[v]] += 1
    bin_start = np.zeros(maxdeg + 1, np.int64)
    acc = 0
    for d in range(maxdeg + 1):
        bin_start[d] = acc
        acc += count[d]
    fill = bin_start.copy()
    pos = np.empty(n, np.int64)
    vert = np.empty(n, np.int64)
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


def scd_nbr_kernel(n, indptr, indices):
    """scd_nbr(v) = sum of deg(u) over neighbors u of v, on the static graph."""
    deg = np.diff(indptr)
    # prefix sums of deg over the adjacency list, differenced at row bounds
    csum = np.zeros(indices.shape[0] + 1, np.int64)
    np.cumsum(deg[indices], out=csum[1:])
    return csum[indptr[1:]] - csum[indptr[:-1]]


def pendant_sweep_kernel(n, indptr, indices, blue):
    """Exhaustive pendant pass: recolor around each blue degree-1 vertex.

    Scans vertex ids ascending; a pendant already recolored by an earlier
    step is skipped, so the scan is exactly "lowest-id blue pendant first
    until none remain" (recoloring never creates new pendants). For each
    trigger v with unique neighbor u, the whole closed neighborhood of u
    turns red and u is recorded. ``blue`` is mutated in place; returns the
    recorded u's in application order.
    """
    reps = np.empty(n, np.int64)
    k = 0
    for v in range(n):
        if blue[v] and indptr[v + 1] - indptr[v] == 1:
            u = indices[indptr[v]]
            reps[k] = u
            k += 1
            blue[u] = False
            for idx in range(indptr[u], indptr[u + 1]):
                blue[indices[idx]] = False
    return reps[:k]


def lossy_greedy_kernel(n, indptr, indices, blue):
    """One greedy pass pairing pool vertices x with far-apart images z.

    Pool = blue vertices not yet excluded. Repeatedly pops the pool vertex x
    with the most blue neighbors (ties: lowest id) and looks for an image z
    that is blue, outside N[x], and not within distance two of any earlier
    image (ties: lowest scd_nbr, then lowest id). On success the pair is
    recorded, N[x]'s blue vertices turn red, everything within distance two
    of z is barred from being a future image, and N[z] leaves the pool. An
    x with no eligible image is dropped from the pool and the scan goes on.

    ``blue`` is mutated in place. Returns (xs, zs) in pick order.
    """
    m2 = indices.shape[0]
    xs = np.empty(n, np.int64)
    zs = np.empty(n, np.int64)
    k = 0
    if n == 0:
        return xs[:0], zs[:0]

    scd = scd_nbr_kernel(n, indptr, indices)

    blue_deg = np.zeros(n, np.int64)
    for v in range(n):
        c = 0
        for idx in range(indptr[v], indptr[v + 1]):
            if blue[indices[idx]]:
                c += 1
        blue_deg[v] = c

    in_pool = np.zeros(n, np.bool_)
    blocked = np.zeros(n, np.bool_)
    mark = np.full(n, -1, np.int64)

    # x side: max blue-degree behaves as min (cap - blue_deg)
    xheap = np.empty(n + m2 + 2, np.int64)
    xsize = 0
    # image side: static scd_nbr keys, so concurrent size never exceeds n + 1
    iheap = np.empty(n + 2, np.int64)
    isize = 0
    aside = np.empty(n + 1, np.int64)

    cap = _PRI_CAP
    for v in range(n):
        if blue[v]:
            in_pool[v] = True
            xsize = _heap_push(xheap, xsize, ((cap - blue_deg[v]) << 32) | v)
            isize = _heap_push(iheap, isize, (scd[v] << 32) | v)

    stamp = 0
    while xsize > 0:
        item, xsize = _heap_pop(xheap, xsize)
        x = item & _ID_MASK
        if not in_pool[x] or blue_deg[x] != cap - (item >> 32):
            continue

        mark[x] = stamp
        for idx in range(indptr[x], indptr[x + 1]):
            mark[indices[idx]] = stamp

        z = -1
        naside = 0
        while isize > 0:
            cand_item, isize = _heap_pop(iheap, isize)
            c = cand_item & _ID_MASK
            if not blue[c] or blocked[c]:
                continue  # dead for good; drop the entry
            if mark[c] == stamp:
                aside[naside] = cand_item  # inside N[x]; keep for other x's
                naside += 1
                continue
            z = c
            break
        for j in range(naside):
            isize = _heap_push(iheap, isize, aside[j])
        stamp += 1

        if z == -1:
            in_pool[x] = False
            continue

        xs[k] = x
        zs[k] = z
        k += 1

        # recolor N[x]'s blue vertices (x included)
        for off in range(-1, indptr[x + 1] - indptr[x]):
            w = x if off == -1 else indices[indptr[x] + off]
            if blue[w]:
                blue[w] = False
                in_pool[w] = False
                for idx in range(indptr[w], indptr[w + 1]):
                    t = indices[idx]
                    blue_deg[t] -= 1
                    if in_pool[t]:
                        xsize = _heap_push(
                            xheap, xsize, ((cap - blue_deg[t]) << 32) | t
                        )

        # bar everything within distance two of z from being an image,
        # and pull z's closed neighborhood out of the pool
        for off in range(-1, indptr[z + 1] - indptr[z]):
            u = z if off == -1 else indices[indptr[z] + off]
            in_pool[u] = False
            blocked[u] = True
            for idx in range(indptr[u], indptr[u + 1]):
                blocked[indices[idx]] = True

    return xs[:k], zs[:k]


def greedy_cover_kernel(n, indptr, indices, blue, tie, untie):
    """Greedy blue cover: take the vertex covering the most blue, repeat.

    ``tie[v]`` is the tie-break rank of v and ``untie`` its inverse
    permutation; identity arrays give lowest-id tie-breaking, a degeneracy
    ranking gives the degeneracy-guided variant. ``blue`` is mutated in
    place. Returns chosen vertices in pick order.
    """
    m2 = indices.shape[0]
    sol = np.empty(n, np.int64)
    ns = 0
    nblue = 0
    for v in range(n):
        if blue[v]:
            nblue += 1
    if nblue == 0:
        return sol[:0]

    cover = np.zeros(n, np.int64)
    for v in range(n):
        c = 1 if blue[v] else 0
        for idx in range(indptr[v], indptr[v + 1]):
            if blue[indices[idx]]:
                c += 1
        cover[v] = c

    heap = np.empty(2 * n + m2 + 2, np.int64)
    size = 0
    cap = _PRI_CAP
    for v in range(n):
        if cover[v] > 0:
            size = _heap_push(heap, size, ((cap - cover[v]) << 32) | tie[v])

    while nblue > 0:
        item, size = _heap_pop(heap, size)
        v = untie[item & _ID_MASK]
        if cover[v] != cap - (item >> 32) or cover[v] == 0:
            continue
        sol[ns] = v
        ns += 1
        for off in range(-1, indptr[v + 1] - indptr[v]):
            w = v if off == -1 else indices[indptr[v] + off]
            if blue[w]:
                blue[w] = False
                nblue -= 1
                for woff in range(-1, indptr[w + 1] - indptr[w]):
                    t = w if woff == -1 else indices[indptr[w] + woff]
                    cover[t] -= 1
                    if cover[t] > 0:
                        size = _heap_push(
                            heap, size, ((cap - cover[t]) << 32) | tie[t]
                        )
    return sol[:ns]
