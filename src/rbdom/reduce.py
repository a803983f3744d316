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

from .kernels import lossy_greedy_kernel, pendant_sweep_kernel, scd_nbr_kernel


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

    def image_set(self):
        return frozenset(self.images.values())


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
    return scd_nbr_kernel(g.n, g.indptr, g.indices)


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
    degrees. Triggers are taken lowest-id first. Returns one record per
    application, in order.
    """
    g = inst.graph
    if g.n == 0:
        return []
    reps = pendant_sweep_kernel(g.n, g.indptr, g.indices, inst.blue)
    return [
        LiftRecord(RuleKind.PENDANT, frozenset((int(u),))) for u in reps
    ]


def rr_lossy2(inst):
    """Apply the lossy rule once; None if no (x, image) pair can be formed."""
    g = inst.graph
    if g.n == 0:
        return None
    xs, zs = lossy_greedy_kernel(g.n, g.indptr, g.indices, inst.blue)
    if xs.size == 0:
        return None
    psi = PsiMap({int(x): int(z) for x, z in zip(xs, zs)})
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
