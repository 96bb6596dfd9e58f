"""The three benchmark workloads, their inputs and their output checks.

Each workload is one client in a closed loop: the next operation starts
when the previous one has returned.  `run` does the timed work and returns
the raw outputs; `check` runs afterwards, outside the timed region and with
tracing removed, and counts every operation whose output is wrong.

Library calls go through the `nekrasov` module attributes (never names
bound at import time here), so the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import nekrasov
from nekrasov import io as nk_io

# output checks; README.md gives where each reference value comes from
BRANCH_TOL = 1e-12
BRANCH_TAIL_MAX = 1e-9
BRANCH_PEAK_TOL = 1e-7
BATCH_TOL = 1e-12
BATCH_CROSS_ROUTE_MAX = 1e-8
EXTREME_ANGLE_TOL = 1e-6
EXTREME_RESIDUAL_MAX = 1e-11

# depth ratios h/lambda of the finite-depth requests; with deep water and
# three grid sizes they give 30 operator keys, more than the solver caches
BATCH_DEPTHS = (0.12, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.7, 1.0)
BATCH_SIZES = (128, 256, 512)
BATCH_DEEP_SHARE = 0.3
BATCH_EXCESS = (0.05, 0.5)  # mu - mu_1, a little above the first bifurcation
BATCH_ORDER_SEED = 0


@dataclass(frozen=True)
class Sizes:
    branch_mu_end: float
    branch_points: int
    branch_peak: float
    batch_requests: int
    ladder: tuple[int, ...]


FULL = Sizes(branch_mu_end=1e4, branch_points=49, branch_peak=0.5271396,
             batch_requests=150, ladder=(600, 1200, 2400))
# a seconds-long version of each workload, for the benchmark's own tests
TINY = Sizes(branch_mu_end=3.5, branch_points=9, branch_peak=0.0484948,
             batch_requests=8, ladder=(200, 300))


@dataclass
class Outcome:
    """Timed part of one workload run: wall time, one latency per
    operation, and whatever the checks need."""

    wall_s: float
    latencies_s: list[float]
    outputs: dict = field(default_factory=dict)


@dataclass
class Verdict:
    attempted: int
    failed: int
    failures: list[str] = field(default_factory=list)
    io_hashes: list[str] = field(default_factory=list)


def _guarded(op):
    """Run one operation; a library exception is a failed operation."""
    try:
        return op(), None
    except Exception as exc:  # every failure is counted, none is dropped
        return None, f"{type(exc).__name__}: {exc}"


# -- branch_long --------------------------------------------------------------


def run_branch_long(seed: int, out_dir: Path, sizes: Sizes) -> Outcome:
    """The paper's headline branch, mu = 3.01 to 1e4 on deep water; one
    operation is one accepted branch point."""
    stamps: list[float] = []
    start = time.perf_counter()
    branch, error = _guarded(lambda: nekrasov.trace_branch(
        3.01, sizes.branch_mu_end, progress=lambda point: stamps.append(time.perf_counter())))
    wall = time.perf_counter() - start
    latencies = np.diff([start] + stamps).tolist()
    return Outcome(wall, latencies, {"branch": branch, "error": error})


def check_branch_long(outcome: Outcome, sizes: Sizes) -> Verdict:
    branch, error = outcome.outputs["branch"], outcome.outputs["error"]
    expected = sizes.branch_points
    if branch is None:
        return Verdict(expected, expected, [f"trace_branch raised {error}"])
    attempted = max(expected, len(branch.points))
    failures = []
    if len(branch.points) != expected:
        failures.append(f"{len(branch.points)} points, expected {expected}")
    if branch.truncated:
        failures.append(f"branch truncated: {branch.failure}")
    peak = nekrasov.branch_extrema(branch).peak_sup_norm if branch.points else math.nan
    if not abs(peak - sizes.branch_peak) <= BRANCH_PEAK_TOL:
        failures.append(f"peak sup-norm {peak!r}, expected {sizes.branch_peak}")
    if failures:  # a wrong branch makes every point of it wrong
        return Verdict(attempted, attempted, failures)
    bad_points = 0
    for i, point in enumerate(branch.points):
        tail = point.field.spectral_tail(band=point.field.n // 2)
        problems = []
        if not point.residual <= BRANCH_TOL:
            problems.append(f"residual {point.residual:.3e}")
        if not tail <= BRANCH_TAIL_MAX:
            problems.append(f"spectral tail {tail:.3e}")
        if point.cone is None or not point.cone.all_ok:
            problems.append("outside the cone")
        if problems:
            bad_points += 1
            failures.append(f"point {i} (mu={point.mu:g}): " + ", ".join(problems))
    return Verdict(attempted, bad_points, failures)


# -- solve_batch ----------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    n: int
    depth_ratio: float
    mu: float


def batch_requests(seed: int, count: int) -> list[Request]:
    """Requests whose mu is drawn from the seed.

    The mix of grid sizes and depths and its order are fixed: each grid
    size equally often, deep water for 3 requests in 10 and the finite
    depths in turn, in one fixed shuffled order.  The seed draws mu just
    above the first characteristic value of each request's depth.  A fixed
    order gives every seed the same operator-cache misses, so seeds change
    the inputs but not the amount of set-up work.
    """
    mix = []
    for i in range(count):
        turn = i // len(BATCH_SIZES)
        deep = turn % 10 < 10 * BATCH_DEEP_SHARE
        depth = math.inf if deep else BATCH_DEPTHS[turn % len(BATCH_DEPTHS)]
        mix.append((BATCH_SIZES[i % len(BATCH_SIZES)], depth))
    order = np.random.default_rng(BATCH_ORDER_SEED).permutation(count)
    rng = np.random.default_rng(seed)
    requests = []
    for k in order:
        n, depth = mix[k]
        excess = round(float(rng.uniform(*BATCH_EXCESS)), 6)
        spec = nekrasov.KernelSpec(depth_ratio=depth, n_modes=n // 2)
        mu1 = float(nekrasov.characteristic_values(spec, 1)[0])
        requests.append(Request(n=n, depth_ratio=depth, mu=mu1 + excess))
    return requests


def _batch_request(request: Request, path: Path) -> dict:
    """Seed and solve at mu, reconstruct the profile and write it as JSON,
    as `nekrasov profile --format json` does."""
    spec = nekrasov.KernelSpec(depth_ratio=request.depth_ratio, n_modes=request.n // 2)
    mu1 = float(nekrasov.characteristic_values(spec, 1)[0])
    grid = nekrasov.get_grid(request.n)
    if spec.is_infinite:
        expansion = nekrasov.expand_solution(3)
        values = nekrasov.eval_series(expansion, request.mu - mu1, grid.theta)
    else:
        values = (request.mu - mu1) / 9.0 * np.sin(grid.theta)
    result = nekrasov.solve(request.mu, nekrasov.AngleField(grid, values=values),
                            method="newton", tol=BATCH_TOL, spec=spec)
    profile = nekrasov.reconstruct_profile(result.field, request.mu)
    nk_io.write_json(path, nk_io.profile_payload(profile, nekrasov.__version__, spec))
    cross = None
    if spec.is_infinite:
        other = nekrasov.profile_from_map_coefficients(result.field, request.mu)
        cross = abs(other.height - profile.height)
    return {"residual": result.residual, "height": profile.height, "cross": cross}


def run_solve_batch(seed: int, out_dir: Path, sizes: Sizes) -> Outcome:
    """Many short, cold requests at small n, as a sweep or CLI user makes."""
    requests = batch_requests(seed, sizes.batch_requests)
    paths = [out_dir / f"profile_{i:03d}.json" for i in range(len(requests))]
    results, latencies = [], []
    start = time.perf_counter()
    for request, path in zip(requests, paths):
        t0 = time.perf_counter()
        results.append(_guarded(lambda: _batch_request(request, path)))
        latencies.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    return Outcome(wall, latencies,
                   {"requests": requests, "results": results, "paths": paths})


def check_solve_batch(outcome: Outcome, sizes: Sizes) -> Verdict:
    """Residual, a finite positive height and, on deep water only, the
    cross-route height; finite-depth routes differ by up to 1e-3 and are
    not compared."""
    requests = outcome.outputs["requests"]
    failures, hashes = [], []
    for i, (request, (out, error), path) in enumerate(zip(
            requests, outcome.outputs["results"], outcome.outputs["paths"])):
        problems = [] if error is None else [error]
        if out is not None:
            if not out["residual"] <= BATCH_TOL:
                problems.append(f"residual {out['residual']:.3e}")
            if not (math.isfinite(out["height"]) and out["height"] > 0):
                problems.append(f"height {out['height']!r}")
            if out["cross"] is not None and not out["cross"] <= BATCH_CROSS_ROUTE_MAX:
                problems.append(f"cross-route height difference {out['cross']:.3e}")
            hashes.append(hashlib.sha256(path.read_bytes()).hexdigest())
        else:
            hashes.append("")
        if problems:
            failures.append(f"request {i} {request}: " + ", ".join(problems))
    return Verdict(len(requests), len(failures), failures, hashes)


# -- extreme_ladder ---------------------------------------------------------------


def run_extreme_ladder(seed: int, out_dir: Path, sizes: Sizes) -> Outcome:
    """The limiting wave by direct graded collocation at growing N."""
    solutions, latencies = [], []
    start = time.perf_counter()
    for n_nodes in sizes.ladder:
        t0 = time.perf_counter()
        solutions.append(_guarded(lambda: nekrasov.solve_extreme(
            strategy="direct", n_nodes=n_nodes)))
        latencies.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    return Outcome(wall, latencies, {"solutions": solutions})


def check_extreme_ladder(outcome: Outcome, sizes: Sizes) -> Verdict:
    failures = []
    for n_nodes, (sol, error) in zip(sizes.ladder, outcome.outputs["solutions"]):
        problems = [] if error is None else [error]
        if sol is not None:
            angle_error = abs(sol.crest_angle_estimate - math.pi / 6.0)
            if not angle_error <= EXTREME_ANGLE_TOL:
                problems.append(f"crest angle off pi/6 by {angle_error:.3e}")
            if not sol.grant_fit.c1 < 0.0 < sol.grant_fit.c2:
                problems.append(f"C1 = {sol.grant_fit.c1:g}, C2 = {sol.grant_fit.c2:g}")
            if not sol.residual <= EXTREME_RESIDUAL_MAX:
                problems.append(f"residual {sol.residual:.3e}")
        if problems:
            failures.append(f"N = {n_nodes}: " + ", ".join(problems))
    return Verdict(len(sizes.ladder), len(failures), failures)


WORKLOADS = {
    "branch_long": (run_branch_long, check_branch_long),
    "solve_batch": (run_solve_batch, check_solve_batch),
    "extreme_ladder": (run_extreme_ladder, check_extreme_ladder),
}
