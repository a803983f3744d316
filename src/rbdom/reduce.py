"""Recoloring reduction rules, their lifting records, and the pair-map checker.

Three rules, each recoloring blue vertices red. Every run of a rule (each
application, for the pendant rule) returns one record: the vertex set its
lifting step must union back into a solution, empty when the run recolored
nothing.

* isolated: every isolated blue vertex goes red; lifting adds all of them.
  Applied once per pipeline.
* pendant: while some blue degree-1 vertex v exists (degree in the original
  graph), the closed neighborhood of its unique neighbor u goes red and
  lifting adds u. Applied exhaustively.
* lossy2: greedily builds a set X of blue vertices plus an injection psi
  from X into the remaining blue vertices whose images are pairwise far
  apart; N[X]'s blue vertices go red and lifting adds X. Applied once. The
  lifted solution is at most a factor two worse relative to the reduced
  optimum, and |X| never exceeds any valid solution of the reduced instance
  (the images' closed neighborhoods are pairwise disjoint and stay blue).
  Its record carries psi as a plain dict x -> psi(x), in pick order, which
  ``verify_psi`` checks with one neighbor count over the images.

Rules never delete vertices or edges, so reduced instances share vertex ids
with the original and lifting is plain set union.
"""

import heapq
import operator
from dataclasses import dataclass, field

import numpy as np

from .graph import _ID_MASK, _neighbor_sums


@dataclass(frozen=True)
class LiftRecord:
    add_set: frozenset
    psi: dict | None = None  # lossy rule only: x -> psi(x), in pick order


@dataclass
class ReductionTrace:
    """One record per rule run, in order; lifting unions their add-sets."""

    records: list = field(default_factory=list)


def scd_nbr(g):
    """Per-vertex sum of neighbor degrees (bounds the distance-2 ball size)."""
    return _neighbor_sums(g, g.degrees())


def rr_isolated(inst):
    """Recolor all isolated blue vertices red; the record adds all of them."""
    iso = np.flatnonzero((inst.graph.degrees() == 0) & inst.blue)
    inst.blue[iso] = False
    return LiftRecord(frozenset(iso.tolist()))


def rr_pendant_exhaustive(inst):
    """Apply the pendant rule until no blue pendant remains.

    Pendant means degree one in the original graph; recoloring never changes
    degrees, so it never creates a pendant. Triggers are taken lowest-id
    first, skipping a pendant an earlier step already recolored. For each
    trigger v with unique neighbor u, the closed neighborhood of u turns red
    and lifting adds u. Returns one record per application, in order.
    """
    g = inst.graph
    indptr, indices, blue = g.indptr, g.indices, inst.blue
    records = []
    for v in np.flatnonzero((g.degrees() == 1) & blue).tolist():
        if blue[v]:
            u = int(indices[indptr[v]])
            records.append(LiftRecord(frozenset((u,))))
            blue[u] = False
            blue[indices[indptr[u] : indptr[u + 1]]] = False
    return records


def rr_lossy2(inst):
    """Apply the lossy rule once; the record is empty if no (x, image) pair forms.

    One greedy pass pairing pool vertices x with far-apart images z. Pool =
    blue vertices not yet excluded. Repeatedly pops the pool vertex x with
    the most blue neighbors (ties: lowest id) and looks for an image z that
    is blue, outside N[x], and not within distance two of any earlier image
    (ties: lowest scd_nbr, then lowest id). On success the pair is recorded,
    N[x]'s blue vertices turn red, everything within distance two of z is
    barred from being a future image, and N[z] leaves the pool. An x with no
    eligible image is dropped from the pool and the scan goes on. The psi
    map lists the pairs in pick order.

    The x queue is a ``heapq`` list of Python ints packed
    ``-blue_deg << 32 | v``, so ties break on the lowest id. Blue-degrees
    only fall, so it holds one entry per pool vertex and re-keys a stale top
    when it reaches it (lazy greedy); its pick is the same as with an exact
    queue. Image keys never change, so the images come off one list sorted
    once, best last; tops set aside inside N[x] go back in their order.
    """
    g = inst.graph
    indices = g.indices
    indptr = g.indptr.tolist()
    pool = np.flatnonzero(inst.blue)
    deg = _neighbor_sums(g, inst.blue)
    xheap = ((-deg[pool] << 32) | pool).tolist()
    heapq.heapify(xheap)
    stack = pool[np.argsort(scd_nbr(g)[pool], kind="stable")[::-1]].tolist()
    blue_deg = deg.tolist()
    blue = bytearray(inst.blue.tobytes())
    in_pool = bytearray(blue)
    blocked = bytearray(g.n)

    images = {}
    while xheap:
        item = xheap[0]
        x = item & _ID_MASK
        if not in_pool[x]:
            heapq.heappop(xheap)
            continue
        key = (-blue_deg[x] << 32) | x
        if key != item:
            heapq.heapreplace(xheap, key)  # stale: re-key in place
            continue
        heapq.heappop(xheap)
        in_pool[x] = 0

        closed_x = set(indices[indptr[x] : indptr[x + 1]].tolist())
        closed_x.add(x)
        z = -1
        aside = []
        while stack:
            c = stack[-1]
            if not blue[c] or blocked[c]:
                stack.pop()  # dead for good; drop the entry
            elif c in closed_x:
                aside.append(stack.pop())  # keep for other x's
            else:
                z = c
                break
        stack.extend(reversed(aside))
        if z == -1:
            continue

        images[x] = z

        # recolor N[x]'s blue vertices (x included)
        for w in closed_x:
            if blue[w]:
                blue[w] = 0
                in_pool[w] = 0
                for t in indices[indptr[w] : indptr[w + 1]].tolist():
                    blue_deg[t] -= 1

        # bar everything within distance two of z from being an image,
        # and pull z's closed neighborhood out of the pool
        row_z = indices[indptr[z] : indptr[z + 1]].tolist()
        row_z.append(z)
        for u in row_z:
            in_pool[u] = 0
            blocked[u] = 1
            for t in indices[indptr[u] : indptr[u + 1]].tolist():
                blocked[t] = 1

    inst.blue[:] = np.frombuffer(blue, np.bool_)
    return LiftRecord(frozenset(images), images)


def verify_psi(inst, psi):
    """Check a pair map against the instance the lossy rule produced.

    ``psi`` is the plain dict x -> psi(x). True iff the images are distinct,
    are blue in ``inst``, and lie outside X, no image lies in any N(x), and
    the images' closed neighborhoods are pairwise disjoint. The last three
    read one neighbor count: how many image closed neighborhoods contain each
    vertex (0 at every x, at most 1 everywhere). Rules only recolor blue to
    red, so images blue here were blue before the rule as well.
    """
    g = inst.graph
    xs = np.fromiter(psi, np.int64, len(psi))
    zs = np.fromiter(psi.values(), np.int64, len(psi))
    is_image = np.zeros(g.n, np.bool_)
    is_image[zs] = True
    balls = _neighbor_sums(g, is_image) + is_image
    return bool(
        np.count_nonzero(is_image) == zs.size
        and inst.blue[zs].all()
        and not balls[xs].any()
        and (balls <= 1).all()
    )


def lift(trace, s_reduced):
    """Union the recorded add-sets into a reduced-instance solution.

    Raises TypeError when s_reduced holds an id that is not an integer.
    """
    return set(map(operator.index, s_reduced)).union(*(rec.add_set for rec in trace.records))
