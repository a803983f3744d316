"""Seeded inputs of the benchmark workloads.

A workload is a recipe: a list of generator calls derived from the workload
seed, plus the drop-in approximator and the exact solver's time limit that
each instance is run with. The program under test only ever sees the
edge-list text that set-up writes from the generated graphs.

The small-graph workloads draw their shape parameters (model, n, degree)
from a fixed per-index stream and only the graph randomness from the
workload seed. Every seed therefore gets the same mix of sizes, so timings
stay comparable across seeds while the graphs themselves differ.
"""

from dataclasses import dataclass

import numpy as np

from rbdom import (
    Approximator,
    gen_barabasi_albert,
    gen_gnm,
    gen_gnp,
    gen_random_regular,
    gen_watts_strogatz,
)

GENERATORS = (
    gen_gnp,
    gen_gnm,
    gen_watts_strogatz,
    gen_random_regular,
    gen_barabasi_albert,
)


@dataclass(frozen=True)
class Workload:
    name: str
    recipe: object  # recipe(seed) -> [(generator, args), ...]
    approx: Approximator
    exact_limit: float | None = None  # exact_min time limit; None skips EX


def instance_seed(seed, i):
    """Independent 32-bit generator seed for instance i of a workload seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def gnp_50k(seed):
    # the acceptance instance; gen_gnp(50_000, 20.0, 4242) has 500,911 edges
    return [(gen_gnp, (50_000, 20.0, seed))]


def mixed_small(seed, count=1000):
    """The acceptance mixed-suite shapes (gnp, gnm, ws, dreg) plus ba."""
    specs = []
    for i in range(1, count + 1):
        rng = np.random.default_rng(i)
        s = instance_seed(seed, i)
        n = int(rng.integers(16, 201))
        model = i % 5
        if model == 0:
            specs.append((gen_gnp, (n, float(rng.uniform(2.0, 12.0)), s)))
        elif model == 1:
            specs.append((gen_gnm, (n, float(rng.uniform(2.0, 12.0)), s)))
        elif model == 2:
            p = float(rng.choice(np.arange(1, 10) / 10))
            specs.append((gen_watts_strogatz, (n, int(rng.integers(2, 11)), p, s)))
        elif model == 3:
            d = int(rng.integers(3, 9))
            specs.append((gen_random_regular, (n + (n * d) % 2, d, s)))
        else:
            specs.append((gen_barabasi_albert, (n, int(rng.integers(1, 7)), s)))
    return specs


def exact_small(seed, count=240):
    """n 40..90, average degree 2..8: about 37 % prove optimal at 0.4 s.

    The per-instance times form two modes, quick proofs and spent budgets.
    With half the graphs in each, the median time falls in the gap between
    the modes and jumps with the seed; with the proven share near 37 % it
    falls inside the denser budget-spent mode and stays steady across seeds.
    """
    specs = []
    for i in range(count):
        rng = np.random.default_rng([7, i])
        s = instance_seed(seed, i)
        n = int(rng.integers(40, 91))
        deg = float(rng.uniform(2.0, 8.0))
        model = i % 3
        if model == 0:
            specs.append((gen_gnp, (n, deg, s)))
        elif model == 1:
            specs.append((gen_watts_strogatz, (n, max(2, round(deg)), 0.3, s)))
        else:
            specs.append((gen_barabasi_albert, (n, max(1, round(deg / 2)), s)))
    return specs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gnp-50k", gnp_50k, Approximator.GREEDY_COVER),
        Workload("mixed-small", mixed_small, Approximator.DEGENERACY_GUIDED),
        Workload("exact-small", exact_small, Approximator.GREEDY_COVER, 0.4),
    )
}
