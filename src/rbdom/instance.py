"""Red-blue dominating set instances and the solution check.

An instance is a graph plus a per-vertex color: blue vertices still need to
be dominated, red ones are already taken care of (but may still serve as
dominators). Solutions are plain vertex sets over the original graph.
"""

import operator

import numpy as np

from .graph import _neighbor_sums


class RBInstance:
    """A graph with a blue/red vertex bipartition.

    Mutated in place by the reduction pipeline that owns it (rules only
    recolor blue to red); safe for concurrent reads once reductions finish.
    """

    __slots__ = ("graph", "blue")

    def __init__(self, graph, blue):
        blue = np.asarray(blue, dtype=np.bool_)
        if blue.shape != (graph.n,):
            raise ValueError(
                f"color vector length {blue.shape} does not match n={graph.n}"
            )
        self.graph = graph
        self.blue = blue

    @property
    def blue_count(self):
        return int(self.blue.sum())

    def copy(self):
        return RBInstance(self.graph, self.blue.copy())

    def __repr__(self):
        return f"RBInstance(n={self.graph.n}, blue={self.blue_count})"


def all_blue(g):
    """The classical instance: every vertex must be dominated."""
    return RBInstance(g, np.ones(g.n, dtype=np.bool_))


def is_valid_solution(inst, s):
    """True iff every blue vertex lies in the closed neighborhood of s.

    Raises ValueError when s holds a vertex id outside 0..n-1, and TypeError
    when it holds one that is not an integer.
    """
    g = inst.graph
    try:
        arr = np.fromiter(map(operator.index, s), dtype=np.int64)
    except OverflowError:
        raise ValueError("solution contains vertex ids outside int64") from None
    if arr.size and (arr.min() < 0 or arr.max() >= g.n):
        raise ValueError("solution contains out-of-range vertex ids")
    taken = np.zeros(g.n, dtype=np.bool_)
    taken[arr] = True
    dominated = taken | (_neighbor_sums(g, taken) > 0)
    return bool((dominated | ~inst.blue).all())
