"""Recoloring reduction rules, their lifting records, and the pair-map checker.

Three rules, each recoloring blue vertices red and recording the vertex set
its lifting step must union back into a solution:

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

Rules never delete vertices or edges, so reduced instances share vertex ids
with the original and lifting is plain set union, replayed newest-first.
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from .graph import _neighbor_sums
from .kernels import _ID_MASK, _PRI_CAP, _heap_pop, _heap_push


class RuleKind(enum.Enum):
    ISOLATED = "isolated"
    PENDANT = "pendant"
    LOSSY2 = "lossy2"


@dataclass(frozen=True)
class PsiMap:
    """The set X and injection psi produced by the lossy rule."""

    images: dict  # x -> psi(x)

    @property
    def x_set(self):
        return frozenset(self.images)


@dataclass(frozen=True)
class LiftRecord:
    kind: RuleKind
    add_set: frozenset
    psi: PsiMap | None = None


@dataclass
class ReductionTrace:
    """Applied records in order; lifting replays them in reverse."""

    records: list = field(default_factory=list)

    def __len__(self):
        return len(self.records)


def scd_nbr(g):
    """Per-vertex sum of neighbor degrees (bounds the distance-2 ball size)."""
    return _neighbor_sums(g, g.degrees())


def rr_isolated(inst):
    """Recolor all isolated blue vertices red; None if there are none."""
    g = inst.graph
    iso = np.flatnonzero((np.diff(g.indptr) == 0) & inst.blue)
    if iso.size == 0:
        return None
    inst.blue[iso] = False
    return LiftRecord(RuleKind.ISOLATED, frozenset(int(v) for v in iso))


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
            u = indices[indptr[v]]
            records.append(LiftRecord(RuleKind.PENDANT, frozenset((int(u),))))
            blue[u] = False
            for idx in range(indptr[u], indptr[u + 1]):
                blue[indices[idx]] = False
    return records


def rr_lossy2(inst):
    """Apply the lossy rule once; None if no (x, image) pair can be formed.

    One greedy pass pairing pool vertices x with far-apart images z. Pool =
    blue vertices not yet excluded. Repeatedly pops the pool vertex x with
    the most blue neighbors (ties: lowest id) and looks for an image z that
    is blue, outside N[x], and not within distance two of any earlier image
    (ties: lowest scd_nbr, then lowest id). On success the pair is recorded,
    N[x]'s blue vertices turn red, everything within distance two of z is
    barred from being a future image, and N[z] leaves the pool. An x with no
    eligible image is dropped from the pool and the scan goes on. The psi
    map lists the pairs in pick order.
    """
    g = inst.graph
    n, indptr, indices, blue = g.n, g.indptr, g.indices, inst.blue
    scd = scd_nbr(g)
    blue_deg = _neighbor_sums(g, blue)
    in_pool = blue.copy()
    blocked = np.zeros(n, np.bool_)
    mark = np.full(n, -1, np.int64)

    # x side: max blue-degree behaves as min (cap - blue_deg)
    xheap = np.empty(n + indices.shape[0] + 2, np.int64)
    xsize = 0
    # image side: static scd_nbr keys, so concurrent size never exceeds n + 1
    iheap = np.empty(n + 2, np.int64)
    isize = 0
    aside = np.empty(n + 1, np.int64)

    cap = _PRI_CAP
    for v in np.flatnonzero(blue).tolist():
        xsize = _heap_push(xheap, xsize, ((cap - blue_deg[v]) << 32) | v)
        isize = _heap_push(iheap, isize, (scd[v] << 32) | v)

    images = {}
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

        images[int(x)] = int(z)

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

    if not images:
        return None
    psi = PsiMap(images)
    return LiftRecord(RuleKind.LOSSY2, psi.x_set, psi)


def verify_psi(inst_before, pm):
    """Check a PsiMap against the instance state the lossy rule started from.

    True iff psi is injective into the then-blue vertices outside X, no
    image touches the closed neighborhood of its own x or the open
    neighborhood of any x, and image closed neighborhoods are pairwise
    disjoint.
    """
    g = inst_before.graph
    images = pm.images
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


def lift(trace, s_reduced):
    """Union the recorded add-sets into a reduced-instance solution.

    Records replay newest-first; because every step is a union the result
    does not depend on the order, but the reverse order mirrors how the
    per-rule lifting steps compose.
    """
    out = set(int(v) for v in s_reduced)
    for rec in reversed(trace.records):
        out |= rec.add_set
    return out
