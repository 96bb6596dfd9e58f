"""Global branch tracing, cone diagnostics, and scaled continua.

The nontrivial solution branch bifurcates from the first characteristic
value (mu = 3 on deep water) and is followed in mu by a secant predictor
with a Newton corrector.  The grid is refined automatically whenever the
sine spectrum of a converged point stops decaying, which happens as the
crest boundary layer sharpens for large mu.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import profile as _profile
from .grid import AngleField
from .kernel import DEEP, KernelSpec
from .solver import (BreakdownError, DivergenceError, SolveResult, _seed_field,
                     get_operator, solve)


@dataclass
class ConeReport:
    """Cone membership diagnostics for an angle field.

    The three conditions are (i) nonnegativity on [0, pi], (ii)
    Phi(t)/sin(t/2) nonincreasing, (iii) Phi(t) <= Phi(s) for
    t in [pi/2, pi] and s in [pi - t, t].
    """

    nonneg_ok: bool
    ratio_monotone_ok: bool
    tail_ordering_ok: bool
    max_violation: float

    @property
    def all_ok(self) -> bool:
        return self.nonneg_ok and self.ratio_monotone_ok and self.tail_ordering_ok


@dataclass
class BranchPoint:
    mu: float
    field: AngleField
    sup_norm: float
    wave_height: float
    residual: float
    n: int
    cone: ConeReport | None = None


@dataclass
class Branch:
    points: list[BranchPoint]
    spec: KernelSpec
    tol: float
    truncated: bool = False
    failure: str | None = None
    metadata: dict = dataclass_field(default_factory=dict)

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    @property
    def mus(self) -> np.ndarray:
        return np.array([p.mu for p in self.points])

    @property
    def sup_norms(self) -> np.ndarray:
        return np.array([p.sup_norm for p in self.points])


@dataclass
class BranchExtrema:
    peak_sup_norm: float
    mu_at_peak: float
    monotone_increasing: bool


@dataclass
class StepPolicy:
    """Continuation step control.

    Steps grow multiplicatively while corrections succeed and are halved on
    failure; above geometric_start the sampling becomes geometric in mu
    (the extreme limit is approached logarithmically).  n doubles whenever
    the spectral tail of a converged point exceeds tail_threshold.
    """

    initial_step: float = 0.01
    growth: float = 1.5
    max_step: float = 1.0
    geometric_start: float = 10.0
    ratio: float = 1.25
    min_step: float = 1e-8
    tail_threshold: float = 1e-9
    n_start: int = 512
    n_max: int = 1 << 17
    max_points: int = 2000


def cone_membership(field: AngleField, eps: float = 1e-9) -> ConeReport:
    """Check the three cone conditions on the grid, within tolerance eps."""
    v = field.values
    theta = field.grid.theta
    neg_violation = max(0.0, float((-v).max(initial=0.0)))

    ratio = v / np.sin(0.5 * theta)
    increases = np.diff(ratio)
    ratio_violation = max(0.0, float(increases.max(initial=0.0)))

    tail_violation = _tail_violation(v)

    return ConeReport(
        nonneg_ok=neg_violation <= eps,
        ratio_monotone_ok=ratio_violation <= eps,
        tail_ordering_ok=tail_violation <= eps,
        max_violation=max(neg_violation, ratio_violation, tail_violation),
    )


def _tail_violation(v: np.ndarray) -> float:
    """Largest excess of Phi(t) over min Phi on [pi - t, t], t >= pi/2.

    The window is symmetric about pi/2, so its minimum is the smaller of
    the running minima taken outward from pi/2 on either side; grid index
    i is theta_{i+1}, and pi/2 sits at index n/2 - 1 of the n - 1 values.
    """
    half = (v.size + 1) // 2
    right = v[half - 1:]
    left_min = np.minimum.accumulate(v[half - 1::-1])
    left_min = np.pad(left_min, (0, right.size - left_min.size), mode="edge")
    window_min = np.minimum(np.minimum.accumulate(right), left_min)
    return max(0.0, float((right - window_min).max()))


def _branch_point(result: SolveResult, eps: float) -> BranchPoint:
    height = _profile.reconstruct_profile(result.field, result.mu).height
    return BranchPoint(
        mu=result.mu,
        field=result.field,
        sup_norm=result.field.sup_norm(),
        wave_height=height / (2.0 * np.pi),
        residual=result.residual,
        n=result.field.n,
        cone=cone_membership(result.field, eps),
    )


def _corrector(mu, guess, spec, tol) -> SolveResult:
    return solve(mu, guess, method="newton", tol=tol,
                 spec=spec.with_modes(guess.n // 2))


def _converge_resolved(mu, guess, spec, tol, policy):
    """Solve at mu, doubling the grid until the spectral tail decays."""
    result = _corrector(mu, guess, spec, tol)
    while (result.field.spectral_tail(band=result.field.n // 2) > policy.tail_threshold
           and result.field.n < policy.n_max):
        result = _corrector(mu, result.field.resample(result.field.n * 2), spec, tol)
    return result


def trace_branch(mu_start: float, mu_end: float, spec: KernelSpec = DEEP,
                 policy: StepPolicy | None = None, tol: float = 1e-12,
                 cone_eps: float = 1e-9, progress=None) -> Branch:
    """Trace the solution branch from mu_start to mu_end.

    mu_start must exceed the first characteristic value of the kernel;
    every accepted point satisfies the residual bound on its own grid.
    On corrector failure the step is halved; if it underflows the branch
    is returned truncated with a failure record.
    """
    policy = policy or StepPolicy()
    if not mu_end > mu_start:
        raise ValueError("mu_end must exceed mu_start")

    branch = Branch(points=[], spec=spec, tol=tol,
                    metadata={"mu_start": mu_start, "mu_end": mu_end,
                              "n_start": policy.n_start})
    result = _converge_resolved(mu_start, _seed_field(mu_start, spec, policy.n_start),
                                spec, tol, policy)
    branch.points.append(_branch_point(result, cone_eps))
    if progress:
        progress(branch.points[-1])

    prev_result = None
    step = policy.initial_step
    ratio = policy.ratio
    while branch.points[-1].mu < mu_end and len(branch.points) < policy.max_points:
        current = result
        mu_now = current.mu
        if mu_now >= policy.geometric_start:
            mu_next = min(mu_now * ratio, mu_end)
        else:
            mu_next = min(mu_now + step, mu_end)

        guess = current.field
        if prev_result is not None:
            n_common = max(current.field.n, prev_result.field.n)
            b_now = current.field.resample(n_common).coefficients
            b_prev = prev_result.field.resample(n_common).coefficients
            slope = (b_now - b_prev) / (current.mu - prev_result.mu)
            guess = AngleField.from_coefficients(
                b_now + slope * (mu_next - current.mu), n_common)

        try:
            new_result = _converge_resolved(mu_next, guess, spec, tol, policy)
        except (DivergenceError, BreakdownError) as exc:
            if mu_now >= policy.geometric_start:
                ratio = np.sqrt(ratio)
                too_small = ratio - 1.0 < policy.min_step
            else:
                step *= 0.5
                too_small = step < policy.min_step
            if too_small:
                branch.truncated = True
                branch.failure = f"corrector failed near mu={mu_next:g}: {exc}"
                break
            continue

        prev_result, result = current, new_result
        branch.points.append(_branch_point(result, cone_eps))
        if progress:
            progress(branch.points[-1])
        step = min(step * policy.growth, policy.max_step)
        ratio = min(ratio * np.sqrt(policy.growth), policy.ratio)
    return branch


def _scaled_field(source: AngleField, n_fold: int) -> AngleField:
    coeffs = source.coefficients
    significant = np.nonzero(np.abs(coeffs) > 1e-15 * np.abs(coeffs).max())[0]
    k_top = int(significant.max()) + 1 if significant.size else 1
    # the verification operator retains n_grid/2 modes; all scaled modes
    # must fit below that truncation
    if n_fold * k_top > (1 << 20):
        raise ReconstructionOverflowError(
            f"scaled modes reach {n_fold * k_top}; cannot verify")
    n_grid = source.n
    while n_fold * k_top > n_grid // 2:
        n_grid *= 2
    scaled = np.zeros(n_grid - 1)
    scaled[n_fold * (significant + 1) - 1] = coeffs[significant]
    return AngleField.from_coefficients(scaled, n_grid)


def scale_branch_point(point: BranchPoint, n_fold: int, spec: KernelSpec = DEEP,
                       verify_tol: float | None = None) -> BranchPoint:
    """Map a deep-water branch point to the scaled solution (n mu, Phi(n theta)).

    Sine coefficients move from mode k to mode n*k, giving the wave of
    minimal period lambda/n that bifurcates from (3n, 0).  The scaled point
    is re-verified against verify_tol (default 10x the source residual,
    floored at 1e-11); if the source's spectral tail is too coarse for
    that, the source is re-solved on doubled grids first.  Raises
    ReconstructionOverflowError when no feasible grid remains.
    """
    if n_fold < 1:
        raise ValueError(f"n_fold must be at least 1, got {n_fold}")
    if not spec.is_infinite:
        raise ValueError("the scaling family exists only on deep water")
    if n_fold == 1:
        return point
    tol = verify_tol if verify_tol is not None else 10.0 * max(point.residual, 1e-12)
    mu_new = n_fold * point.mu
    source = point.field
    residual = np.inf
    field = None
    for _ in range(5):
        field = _scaled_field(source, n_fold)
        op = get_operator(field.n, spec.with_modes(field.n // 2))
        residual = op.residual(field.values, mu_new)
        if residual <= tol:
            break
        if source.n * 2 > (1 << 19):
            raise ReconstructionOverflowError(
                f"scaled point residual {residual:.3e} exceeds {tol:.3e} "
                "and no finer grid is feasible")
        source = solve(point.mu, source.resample(source.n * 2), method="newton",
                       tol=max(point.residual, 1e-13),
                       spec=spec.with_modes(source.n)).field
    else:
        raise ReconstructionOverflowError(
            f"scaled point residual {residual:.3e} exceeds {tol:.3e} "
            "after refinement")
    height = _profile.reconstruct_profile(field, mu_new).height
    return BranchPoint(mu=mu_new, field=field, sup_norm=field.sup_norm(),
                       wave_height=height / (2.0 * np.pi), residual=residual,
                       n=field.n, cone=cone_membership(field))


class ReconstructionOverflowError(RuntimeError):
    """Scaled modes exceed the available truncation; refinement required."""


def branch_extrema(branch: Branch) -> BranchExtrema:
    """Peak sup-norm along the branch and where it occurs."""
    if not branch.points:
        raise ValueError("branch is empty")
    norms = branch.sup_norms
    i = int(np.argmax(norms))
    increasing = bool(np.all(np.diff(norms) >= -1e-12))
    return BranchExtrema(peak_sup_norm=float(norms[i]),
                         mu_at_peak=float(branch.points[i].mu),
                         monotone_increasing=increasing)
