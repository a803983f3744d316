"""Small-scale self-test of the benchmark.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

It runs scaled-down versions of the workload recipes through the same code
the full runs use, so it finishes in well under a minute.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
from ops import Tracer, traced_solve  # noqa: E402
from rbdom import Approximator, gen_gnp, parse_edge_list, run_exp_aa, run_exp_la, write_edge_list  # noqa: E402
from workloads import WORKLOADS, Workload, exact_small, mixed_small  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DESIGN = json.loads((HERE / "design.json").read_text())

SMALL = (
    Workload("gnp-small", lambda seed: [(gen_gnp, (3000, 20.0, seed))], Approximator.GREEDY_COVER),
    Workload("mixed-small", lambda seed: mixed_small(seed, 25), Approximator.DEGENERACY_GUIDED),
    Workload("exact-small", lambda seed: exact_small(seed, 6), Approximator.GREEDY_COVER, 0.05),
)


@pytest.fixture(scope="module", params=SMALL, ids=lambda w: w.name)
def runs(request):
    wl = request.param
    specs = wl.recipe(11)
    texts = bench.setup(specs)
    passes, failures = bench.run_untraced(wl, texts, seconds=0.0)
    untraced = bench.untraced_metrics(passes, [0.5])
    traced, _, _, traced_failures = bench.run_traced(wl, specs)
    return wl, untraced, failures, traced, traced_failures


def test_every_named_metric_is_emitted_with_its_unit(runs):
    _, untraced, _, traced, _ = runs
    for kind, metrics in (("end_to_end", untraced), ("per_layer", traced)):
        line = bench.result_line(metrics, kind, 1, [])
        assert [e["name"] for e in SPEC[kind]] == list(line["metrics"])
        for e in SPEC[kind]:
            got = line["metrics"][e["name"]]
            assert got["unit"] == e["unit"]
            assert isinstance(got["value"], (int, float))


def test_runs_validate_and_traced_composition_matches(runs):
    wl, untraced, failures, traced, traced_failures = runs
    assert failures == [] and traced_failures == []
    assert untraced["aa_size"] > 0 and untraced["la_size"] > 0
    assert traced["approx.picks_aa"] > 0
    if wl.exact_limit:
        assert traced["exact.exact_min_s"] > 0


def test_composition_reproduces_pipelines_on_sparse_graphs():
    # sparse shapes trigger the isolated, pendant and lossy records
    counts = Counter()
    tr = Tracer()
    for gen, args in mixed_small(3, 30):
        text = write_edge_list(gen(*args))
        g = parse_edge_list(text)
        for approx in Approximator:
            wl = Workload("probe", None, approx)
            _, _, outputs, bad = traced_solve(tr, text, wl, counts)
            assert bad == []
            assert outputs[:2] == (tuple(sorted(run_exp_aa(g, approx))), tuple(sorted(run_exp_la(g, approx))))
    assert counts["reduce.pendant_applications"] > 0
    assert counts["reduce.isolated_recolored"] > 0
    assert counts["reduce.lossy_x_size"] > 0


def test_seed_determines_inputs():
    for recipe in (lambda s: mixed_small(s, 15), lambda s: exact_small(s, 6)):
        assert bench.setup(recipe(5)) == bench.setup(recipe(5))
        assert bench.setup(recipe(5)) != bench.setup(recipe(6))
    held_out = 2**40 + 17
    assert bench.parse_args(["--workload", "mixed-small", "--seed", str(held_out), "--seconds", "1", "--trace", "0"]).seed == held_out
    assert bench.setup(mixed_small(held_out, 5)) != bench.setup(mixed_small(5, 5))
    assert WORKLOADS["gnp-50k"].recipe(held_out) != WORKLOADS["gnp-50k"].recipe(4242)


def test_design_notes_cover_the_contract():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(WORKLOADS) == list(DESIGN["workloads"])
    for e in SPEC["per_layer"]:
        assert e["name"] in DESIGN["layer_map"], e["name"]
        for w in DESIGN["layer_map"][e["name"]]["on"]:
            assert w in names
        for m in DESIGN["layer_map"][e["name"]]["moves"]:
            assert m in [x["name"] for x in SPEC["end_to_end"]] + list(DESIGN["record_only"])
    for w in names:
        assert set(DESIGN["baseline"]["per_layer"][w]) == {e["name"] for e in SPEC["per_layer"]}


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
