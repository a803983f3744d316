#!/usr/bin/env python3
"""Run one benchmark workload of the rbdom package.

Usage, from the repository root:

    python3 perfbench/run.py --workload gnp-50k --seed 4242 --seconds 25 --trace 0

Workloads are ``gnp-50k``, ``mixed-small`` and ``exact-small`` (see
``perfbench/workloads.py`` and ``perfbench/design.json``). ``--trace 0``
times the untraced operations and prints the ``end_to_end`` metrics of
``BENCHMARK.json``; ``--trace 1`` runs every instance once untraced and once
traced and prints the ``per_layer`` metrics. The last line of standard output
is the JSON result; the line before it stamps the environment. Full records,
and the spans of a traced run, are written under ``perfbench/out/``.

The package is imported from ``src/`` next to this directory and nowhere
else; without it the script exits with status 1 and prints no result.
"""

import os
import sys
from pathlib import Path


def main():
    # numpy's BLAS pools would start one thread per core at import; the load
    # is meant to run in one single-threaded process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    src = Path(__file__).resolve().parents[1] / "src"
    if not (src / "rbdom" / "__init__.py").is_file():
        sys.exit(f"perfbench: program source {src / 'rbdom'} not found")
    sys.path.insert(0, str(src))
    import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
