"""Benchmark of the nekrasov solver, timed end to end or traced per layer.

    python3 bench/run.py --workload {branch_long,solve_batch,extreme_ladder}
                         --seed N --seconds S --trace {0,1}

Run it from anywhere inside a source checkout; it imports the package from
`src/` next to this directory.  Each repetition of the workload is a fresh
process (`bench/worker.py`), so every repetition pays set-up and starts with
cold library caches, as a user's process does.  Repetitions continue while
another one fits in S seconds; at least one always runs.

With `--trace 0` the last line of stdout is a JSON object with the end-to-end
metrics; with `--trace 1` each repetition is a pair of one untraced and one
traced process, and the metrics are the per-layer ones.  Lines before it
give each metric by name and unit, the error rate and the environment.  The
full record, and the spans of the last traced process, are written under
`.bench_out/` in the checkout.  The exit code is 0 whenever a result is
printed, also when outputs were wrong (then "correct" is false).

Every time is reported at a fixed host speed.  The parent and its workers
share one CPU; before and after each worker process the parent times a
reference kernel (`bench/reference.py`) on that CPU, and scales the
worker's times by how much faster or slower than its nominal speed the
kernel ran around it.  The unscaled values are printed and recorded too.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from worker import BLAS_ENV, STALL_S

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("branch_long", "solve_batch", "extreme_ladder")
MIN_SETUP_SAMPLES = 5
# reference kernel samples timed before the first worker and after each one
REFERENCE_SAMPLES = 20
TIME_UNITS = ("s", "ms")
# a run must end within 180 s; stop starting processes after this
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Runner:
    """Runs worker processes one at a time and times the reference kernel
    between them, all on the parent's CPU."""

    def __init__(self, deadline: float, host: reference.Reference):
        self.deadline = deadline
        self.host = host
        self.env = _child_env()
        self.last_kernel_s = host.measure(REFERENCE_SAMPLES)

    def spawn(self, *argv: str) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:g} s")
        try:
            proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), *argv],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {' '.join(argv)} timed out after {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker {' '.join(argv)} exited with {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        before_s, self.last_kernel_s = self.last_kernel_s, self.host.measure(REFERENCE_SAMPLES)
        # factor that takes this worker's times to the reference speed
        report["scale"] = reference.REFERENCE_S / (0.5 * (before_s + self.last_kernel_s))
        return report


def _quantile(samples: list[float], q: int) -> float:
    """q-th percentile with linear interpolation between order statistics."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _median_of(reports: list[dict], key: str, scaled: bool) -> float:
    """Median of a time over reports, each at the reference speed if scaled."""
    return statistics.median(r[key] * (r["scale"] if scaled else 1.0) for r in reports)


def measure(args, runner: Runner, work_dir: Path):
    """Repeat the workload in fresh processes while another repetition fits."""
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--out-dir", str(work_dir)]
    if args.tiny:
        argv.append("--tiny")
    plain, traced = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        plain.append(runner.spawn(*argv))
        if args.trace:
            traced.append(runner.spawn(*argv, "--trace"))
        now = time.monotonic()
        cycle = now - t0
        if now - start + cycle > args.seconds or now + cycle > runner.deadline - 10.0:
            break
    setups = [dict(r["setup"], scale=r["scale"]) for r in plain + traced]
    while len(setups) < MIN_SETUP_SAMPLES:
        report = runner.spawn("--setup-only")
        setups.append(dict(report["setup"], scale=report["scale"]))
    return plain, traced, setups


def _io_mismatches(reports: list[dict]) -> int:
    """Operations whose output file differs from the first repetition's;
    every repetition of a run uses the same seed, so outputs must agree."""
    first = reports[0]["io_hashes"]
    return sum(a != b for r in reports[1:] for a, b in zip(first, r["io_hashes"]))


def end_to_end(plain: list[dict], setups: list[dict], scaled: bool) -> dict:
    latencies = [x * (r["scale"] if scaled else 1.0) for r in plain for x in r["latencies_s"]]
    return {
        "wall_s": _median_of(plain, "wall_s", scaled),
        "op_p50_ms": 1e3 * _quantile(latencies, 50),
        "op_p90_ms": 1e3 * _quantile(latencies, 90),
        "setup_s": _median_of(setups, "setup_s", scaled),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(plain: list[dict], traced: list[dict], setups: list[dict], scaled: bool,
              timed: set[str]) -> dict:
    """Medians over traced repetitions; the metrics named in `timed` are times."""
    layers = {name: statistics.median(
        r["layers"][name] * (r["scale"] if scaled and name in timed else 1.0) for r in traced)
        for name in traced[0]["layers"]}
    layers["trace.overhead_s"] = (_median_of(traced, "wall_s", scaled)
                                  - _median_of(plain, "wall_s", scaled))
    layers["setup.import_s"] = _median_of(setups, "import_s", scaled)
    layers["setup.lapack_s"] = _median_of(setups, "lapack_s", scaled)
    layers["setup.lapack_stalls"] = sum(s["lapack_stall"] for s in setups)
    return layers


def _units(group: str) -> dict[str, str]:
    """Metric names and units, in the order BENCHMARK.json lists them."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[group]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "nekrasov" / "__init__.py").is_file():
        print(f"error: no nekrasov sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    nproc = _nproc()
    # one CPU for the parent and its workers, so the reference kernel runs
    # where the workload runs
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    host = reference.Reference()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT_ROOT / f"{tag}-{os.getpid()}"
    runner = Runner(time.monotonic() + RUN_LIMIT_S, host)
    try:
        plain, traced, setups = measure(args, runner, work_dir)
        spans = work_dir / "spans.json"
        if spans.exists():
            spans.replace(OUT_ROOT / f"spans-{tag}.json")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    reports = plain + traced
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports) + _io_mismatches(reports)
    units = _units("per_layer" if args.trace else "end_to_end")
    timed = {name for name, unit in units.items() if unit in TIME_UNITS}
    values, unscaled = ((per_layer(plain, traced, setups, scaled, timed) if args.trace
                         else end_to_end(plain, setups, scaled)) for scaled in (True, False))
    if set(values) != set(units):
        print(f"error: measured metrics {sorted(set(values) ^ set(units))} "
              f"disagree with {SPEC.name}", file=sys.stderr)
        return 1
    scales = [s["scale"] for s in setups]  # one per worker process
    env = {"seed": args.seed, "nproc": nproc, "git_commit": _git_commit(), **plain[0]["env"]}
    stalls = sum(s["lapack_stall"] for s in setups)

    for message in sorted({m for r in reports for m in r["failures"]})[:20]:
        print(f"failed: {message}", file=sys.stderr)
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# {args.workload}: {len(plain)} repetitions, "
          f"{sum(len(r['latencies_s']) for r in plain)} timed operations; "
          f"{stalls} of {len(setups)} fresh processes had a first-call LAPACK stall "
          f"(over {STALL_S:g} s)")
    print(f"# reference kernel: median {statistics.median(host.samples):.4g} s over "
          f"{len(host.samples)} samples, nominal {reference.REFERENCE_S:g} s; "
          f"worker times scaled by {min(scales):.4f} to {max(scales):.4f}")
    print("# unscaled: " + ", ".join(f"{name} = {unscaled[name]:.6g} {unit}"
                                     for name, unit in units.items() if name in timed))
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(f"error_rate = {failed}/{attempted} = {failed / attempted:.3g}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    record = {"args": vars(args), "env": env, "result": result, "unscaled": unscaled,
              "reference_s": host.samples, "scales": scales, "setups": setups,
              "repetitions": [{k: v for k, v in r.items() if k != "io_hashes"}
                              for r in reports]}
    OUT_ROOT.mkdir(exist_ok=True)
    (OUT_ROOT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
