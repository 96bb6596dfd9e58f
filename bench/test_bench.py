"""Tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest bench

They use the `--tiny` sizes, which finish in seconds; the full workloads
are only run by `bench/run.py` itself.
"""

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import nekrasov  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import TINY  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_names_the_runner_workloads():
    assert WORKLOAD_NAMES == list(run.WORKLOADS) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric(workload, trace, group):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        printed = rf"{re.escape(name)} = \S+ {re.escape(unit)}$"
        assert any(re.match(printed, line) for line in proc.stdout.splitlines()), name
    assert "error_rate = 0/" in proc.stdout
    # times are scaled to the reference speed by each worker's own factor
    record = json.loads((run.OUT_ROOT / f"result-{workload}-seed3-trace{trace}.json").read_text())
    low, high = min(record["scales"]), max(record["scales"])
    for name, unit in expected.items():
        value, unscaled = result["metrics"][name]["value"], record["unscaled"][name]
        if unit not in run.TIME_UNITS:
            assert value == unscaled, name
        elif name != "trace.overhead_s":  # a difference of two times
            assert low * unscaled <= value * (1 + 1e-12) and value <= high * unscaled * (1 + 1e-12)
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload == "branch_long":
        counts = {name: result["metrics"][name]["value"] for name in (
            "continuation.points", "continuation.corrector_solves",
            "continuation.refinements", "solver.solves_dense")}
        assert counts == {"continuation.points": TINY.branch_points,
                          "continuation.corrector_solves": TINY.branch_points,
                          "continuation.refinements": 0,
                          "solver.solves_dense": TINY.branch_points}


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "solve_batch", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_branch_check_rejects_corrupted_output(tmp_path):
    outcome = workloads.run_branch_long(0, tmp_path, TINY)
    assert workloads.check_branch_long(outcome, TINY).failed == 0

    outcome.outputs["branch"].points[3].residual = 1e-9
    verdict = workloads.check_branch_long(outcome, TINY)
    assert verdict.failed == 1 and "point 3" in verdict.failures[0]

    wrong_peak = dataclasses.replace(TINY, branch_peak=TINY.branch_peak + 1e-6)
    verdict = workloads.check_branch_long(outcome, wrong_peak)
    assert verdict.failed == verdict.attempted == TINY.branch_points

    outcome.outputs["branch"].points.pop()
    verdict = workloads.check_branch_long(outcome, TINY)
    assert verdict.failed == verdict.attempted == TINY.branch_points


def test_batch_check_rejects_corrupted_output(tmp_path):
    outcome = workloads.run_solve_batch(0, tmp_path, TINY)
    assert workloads.check_solve_batch(outcome, TINY).failed == 0
    results = outcome.outputs["results"]
    deep = next(i for i, r in enumerate(outcome.outputs["requests"])
                if math.isinf(r.depth_ratio))
    results[deep][0]["cross"] = 1e-6
    results[deep - 1] = (None, "DivergenceError: corrupted")
    results[deep - 2][0]["height"] = math.nan
    verdict = workloads.check_solve_batch(outcome, TINY)
    assert verdict.failed == 3 and verdict.attempted == TINY.batch_requests


def test_extreme_check_rejects_corrupted_output(tmp_path):
    outcome = workloads.run_extreme_ladder(0, tmp_path, TINY)
    assert workloads.check_extreme_ladder(outcome, TINY).failed == 0
    solution = outcome.outputs["solutions"][0][0]
    solution.crest_angle_estimate += 2e-6
    solution.grant_fit.c1 = 0.1
    verdict = workloads.check_extreme_ladder(outcome, TINY)
    assert verdict.failed == 1 and "crest angle" in verdict.failures[0]


def test_solve_batch_is_deterministic(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    for out_dir in (first, second):
        outcome = workloads.run_solve_batch(5, out_dir, TINY)
        assert workloads.check_solve_batch(outcome, TINY).failed == 0
    names = sorted(p.name for p in first.iterdir())
    assert len(names) == TINY.batch_requests
    assert all((first / n).read_bytes() == (second / n).read_bytes() for n in names)

    reports = [{"io_hashes": ["x", "y"]}, {"io_hashes": ["x", "y"]}, {"io_hashes": ["x", "z"]}]
    assert run._io_mismatches(reports) == 1


def test_a_second_seed_draws_other_inputs_of_the_same_mix():
    count = workloads.FULL.batch_requests
    a, b = workloads.batch_requests(1, count), workloads.batch_requests(2, count)
    assert a == workloads.batch_requests(1, count) and a != b
    mix = Counter((r.n, r.depth_ratio) for r in a)
    assert mix == Counter((r.n, r.depth_ratio) for r in b)
    assert len(mix) > 25  # more operator keys than the solver caches
    assert sum(n for (_, depth), n in mix.items() if math.isinf(depth)) == 0.3 * count


def test_tracing_leaves_the_library_unmodified(tmp_path):
    originals = (nekrasov.solve, nekrasov.solver.NekrasovOperator.apply,
                 vars(nekrasov.solver.NekrasovOperator)["b_dense"],
                 nekrasov.continuation.solve)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert nekrasov.solve is not originals[0]
        workloads.run_solve_batch(0, tmp_path, dataclasses.replace(TINY, batch_requests=2))
    finally:
        patches.restore()
    assert (nekrasov.solve, nekrasov.solver.NekrasovOperator.apply,
            vars(nekrasov.solver.NekrasovOperator)["b_dense"],
            nekrasov.continuation.solve) == originals
    metrics = tracing.layer_metrics(tracer, wall_s=1.0)
    assert metrics["solver.solves_dense"] == 2 and metrics["io.bytes_written"] > 0
    assert all(end >= start for _, start, end, _, _ in tracer.spans)


def test_self_time_subtracts_direct_children():
    spans = [["a.x", 0.0, 10.0, -1, True], ["b.y", 1.0, 4.0, 0, True],
             ["b.z", 2.0, 3.0, 1, True], ["a.w", 5.0, 6.0, 0, True]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
