"""Extreme-wave limit: crest angle, Grant asymptotics, and convexity.

At the extreme wave the crest becomes a stagnation point and the tangent
angle has a one-sided limit of pi/6 there (interior crest angle 2 pi/3).
Approaching the crest, Phi* = pi/6 + C1 s^b1 + C2 s^(2 b1) + ... with the
Grant exponent b1 ~ 0.802679, C1 < 0 and C2 > 0.  Two solution strategies
are provided: a sequence of finite-mu spectral solves pushed to large mu,
and direct collocation of the limiting equation on a crest-graded mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from ._graded import GradedCollocation
from .continuation import N_MAX, TAIL_THRESHOLD, StepPolicy, _converge_resolved, _tail
from .grid import AngleField, get_grid
from .kernel import DEEP, KernelSpec, characteristic_values
from .profile import WaveProfile
from .solver import SolveResult, _seed_field, _warm_start_ladder


@dataclass
class GrantFit:
    c1: float
    c2: float
    beta1: float
    fit_residual: float
    window: tuple[float, float]


@dataclass
class ExtremeSolution:
    """Extreme or near-extreme angle field with crest diagnostics.

    theta_samples/phi_samples carry the raw solution samples (graded nodes
    for the direct strategy, dense evaluations for the mu-sequence); the
    crest fits use these rather than the uniform-grid field.
    """

    field: AngleField
    strategy: str
    mu_sequence: tuple[float, ...]
    theta_samples: np.ndarray
    phi_samples: np.ndarray
    crest_angle_estimate: float
    grant_fit: GrantFit | None
    per_mu: list[dict] = dataclass_field(default_factory=list)
    residual: float = np.nan


@dataclass
class ConvexityReport:
    convex: bool
    max_violation: float
    worst_x: float | None
    violating_x: np.ndarray
    checked_range: tuple[float, float]


@dataclass
class ConstantSolutionReport:
    """Deviation of the constant pi/6 from the half-line model equation."""

    theta_samples: np.ndarray
    deviations: np.ndarray
    max_deviation: float
    tail_bound: float
    truncation: float


def grant_number(tol: float = 1e-12) -> float:
    """Smallest positive root of sqrt(3) (1 + b) = tan(pi b / 2).

    Bisection on the continuous rearrangement
    h(b) = sqrt(3)(1 + b) cos(pi b/2) - sin(pi b/2), which changes sign
    exactly once on (0, 1).
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")

    def h(b):
        return math.sqrt(3.0) * (1.0 + b) * math.cos(0.5 * math.pi * b) \
            - math.sin(0.5 * math.pi * b)

    lo, hi = 0.0, 1.0
    if not (h(lo) > 0 > h(hi)):
        raise AssertionError("bracket lost its sign change")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if h(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


GRANT_BETA1 = grant_number(1e-14)


def _default_window(sol: ExtremeSolution) -> tuple[float, float]:
    if sol.strategy == "direct":
        return (1e-5, 0.2)
    # uniform grid: drop the 4 nodes nearest the crest and keep the lower
    # edge above the finite-mu crest layer (width ~ 1/mu); the floor is the
    # 4-point exclusion of the reference grid n = 512
    spacing = 2.0 * np.pi / sol.field.n
    return (max(4.0 * spacing, 4.0 * 2.0 * np.pi / 512), 0.3)


def _grant_lstsq(sol: ExtremeSolution, window: tuple[float, float] | None,
                 intercept: bool):
    """Least squares of the crest samples in the window on the Grant basis
    s^b1, s^(2 b1): with an intercept, of Phi on (1, s^b1, s^(2 b1));
    without one, of Phi - pi/6.  Returns the window, design matrix,
    right-hand side and coefficients."""
    window = window or _default_window(sol)
    lo, hi = window
    mask = (sol.theta_samples >= lo) & (sol.theta_samples <= hi)
    if mask.sum() < 4:
        raise ValueError(f"fit window {window} contains fewer than 4 samples")
    theta = sol.theta_samples[mask]
    rhs = sol.phi_samples[mask]
    cols = [theta ** GRANT_BETA1, theta ** (2.0 * GRANT_BETA1)]
    if intercept:
        cols.insert(0, np.ones_like(theta))
    else:
        rhs = rhs - np.pi / 6.0
    design = np.stack(cols, axis=1)
    coef, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    return window, design, rhs, coef


def fit_asymptotics(sol: ExtremeSolution,
                    window: tuple[float, float] | None = None) -> GrantFit:
    """Least squares for Phi*(s) - pi/6 = C1 s^b1 + C2 s^(2 b1) near the crest."""
    window, design, rhs, coef = _grant_lstsq(sol, window, intercept=False)
    resid = float(np.abs(design @ coef - rhs).max())
    cond = np.linalg.cond(design)
    if cond > 1e12:
        raise ValueError(f"fit window {window} is ill conditioned (cond={cond:.2e})")
    return GrantFit(c1=float(coef[0]), c2=float(coef[1]), beta1=GRANT_BETA1,
                    fit_residual=resid, window=window)


def stokes_limit(sol: ExtremeSolution,
                 window: tuple[float, float] | None = None) -> float:
    """One-sided crest limit of Phi, extrapolated in the Grant basis.

    Fits Phi ~ A + C1 s^b1 + C2 s^(2 b1) on the window and returns A.
    For the extreme wave A ~ pi/6 (the odd extension jumps by pi/3 across
    the crest); smooth finite-mu solutions extrapolate to approximately 0.
    """
    *_, coef = _grant_lstsq(sol, window, intercept=True)
    return float(coef[0])


def crest_jump(sol: ExtremeSolution) -> float:
    """Jump of the odd extension across theta = 0 (twice the crest limit)."""
    return 2.0 * stokes_limit(sol)


def _crest_samples(field: AngleField) -> np.ndarray:
    """Crest-fit sample points, geometric from the grid spacing (>= 1e-6) to 3."""
    return np.geomspace(max(2.0 * np.pi / field.n, 1e-6), 3.0, 400)


def extreme_record_from_field(field: AngleField, mu: float) -> ExtremeSolution:
    """Wrap a finite-mu solution in an ExtremeSolution record so the crest
    diagnostics (stokes_limit, fit_asymptotics) can be applied to it."""
    theta = _crest_samples(field)
    return ExtremeSolution(field=field, strategy="sequence",
                           mu_sequence=(float(mu),), theta_samples=theta,
                           phi_samples=field(theta),
                           crest_angle_estimate=np.nan, grant_fit=None)


DEFAULT_MU_SEQUENCE = (30.0, 300.0, 3000.0, 30000.0)


def solve_sequence(spec: KernelSpec, mu_sequence, tol: float, n_start: int,
                   n_max: int) -> tuple[SolveResult, list[dict]]:
    """Solve up _warm_start_ladder to max(mu_sequence), each grid refined
    (up to n_max) until resolved; returns the last result and per-mu records,
    whose "resolved" says whether the tail is within TAIL_THRESHOLD (a grid
    capped at n_max may leave it above).
    Raises ValueError for a non-finite target or n_start, n_max that
    StepPolicy.check rejects."""
    policy = StepPolicy(n_start=n_start, n_max=n_max)
    policy.check()
    mu_targets = sorted(float(m) for m in mu_sequence)
    if not all(math.isfinite(m) for m in mu_targets):
        raise ValueError(f"mu targets must be finite, got {tuple(mu_sequence)}")
    mu0, *rungs = _warm_start_ladder(float(characteristic_values(spec, 1)[0]),
                                    mu_targets[-1])
    ladder = sorted(set(rungs + mu_targets))
    per_mu = []
    result, _ = _converge_resolved(mu0, _seed_field(mu0, spec, n_start),
                                   spec, tol, policy)
    for mu in ladder:
        result, _ = _converge_resolved(mu, result.field, spec, tol, policy)
        if mu in mu_targets:
            tail = _tail(result.field)
            per_mu.append({
                "mu": mu,
                "n": result.field.n,
                "sup_norm": result.field.sup_norm(),
                "residual": result.residual,
                "tail": tail,
                "resolved": tail <= TAIL_THRESHOLD,
            })
    return result, per_mu


def solve_extreme(spec: KernelSpec = DEEP, strategy: str = "sequence",
                  tol: float = 1e-11, n_start: int = 512,
                  n_nodes: int = 600, grading: float = 3.0) -> ExtremeSolution:
    """Compute the extreme-wave angle field.

    strategy "sequence": solve the finite-mu equation along
    DEFAULT_MU_SEQUENCE, each grid refined (up to N_MAX) until the crest
    layer is resolved, and take the last field as the near-extreme
    representative.  strategy "direct": collocate the limiting equation
    (1/mu = 0) on a crest-graded mesh, where the quadrature in the bounded
    density tau sin Phi / I sidesteps the loss of compactness at the crest.
    """
    if not spec.is_infinite:
        raise ValueError("the extreme limit is computed on deep water")
    if strategy == "sequence":
        result, per_mu = solve_sequence(spec, DEFAULT_MU_SEQUENCE, tol, n_start, N_MAX)
        sol = replace(extreme_record_from_field(result.field, result.mu),
                      mu_sequence=DEFAULT_MU_SEQUENCE, per_mu=per_mu,
                      residual=result.residual)
    elif strategy == "direct":
        engine = GradedCollocation(n_nodes=n_nodes, grading=grading)
        graded = engine.solve_extreme(tol=tol)
        phi = graded.phi[1:-1]
        grid = get_grid(2048)
        sol = ExtremeSolution(
            field=AngleField(grid, values=np.interp(grid.theta, graded.theta, graded.phi)),
            strategy="direct", mu_sequence=(math.inf,), theta_samples=graded.theta[1:-1],
            phi_samples=phi, crest_angle_estimate=np.nan, grant_fit=None,
            per_mu=[{"nu": graded.nu, "n_nodes": n_nodes, "residual": graded.residual,
                     "sup_norm": float(np.abs(phi).max())}],
            residual=graded.residual)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    sol.crest_angle_estimate = stokes_limit(sol)
    sol.grant_fit = fit_asymptotics(sol)
    return sol


def verify_constant_solution(theta_samples=(0.3, 1.0, 3.0),
                             truncation: float = 1e4) -> ConstantSolutionReport:
    """Check that phi = pi/6 solves the half-line model equation.

    The right-hand side at the constant is
    (1/(3 pi)) Int_0^T log((theta+tau)/|theta-tau|) dtau/tau, which equals
    pi/6 exactly for T = infinity.  Substituting s = tau/theta makes the
    computed value a function of T/theta only, so the scale invariance
    (theta, T) -> (a theta, a T) is exact here.  The truncation tail is
    bounded by 2 theta/(3 pi T) (1 + O((theta/T)^2)).
    """
    from scipy import integrate as _integrate  # deferred: only this check uses it

    theta_samples = np.atleast_1d(np.asarray(theta_samples, dtype=float))
    if np.any(theta_samples <= 0) or np.any(theta_samples >= truncation / 10.0):
        raise ValueError("theta samples must lie in (0, truncation/10)")

    def integrand(s):
        return np.log((1.0 + s) / abs(1.0 - s)) / s

    values = np.empty_like(theta_samples)
    for i, theta in enumerate(theta_samples):
        upper = truncation / theta
        head, _ = _integrate.quad(integrand, 0.0, 2.0, points=[1.0], limit=200)
        tail, _ = _integrate.quad(integrand, 2.0, upper, limit=400)
        values[i] = (head + tail) / (3.0 * np.pi)
    deviations = np.abs(values - np.pi / 6.0)
    tail_bound = float(2.0 * theta_samples.max() / (3.0 * np.pi * truncation) * 1.01)
    return ConstantSolutionReport(theta_samples=theta_samples,
                                  deviations=deviations,
                                  max_deviation=float(deviations.max()),
                                  tail_bound=tail_bound,
                                  truncation=truncation)


CONVEXITY_EPS = 1e-8


def convexity_check(profile: WaveProfile,
                    exclusion: float | None = None) -> ConvexityReport:
    """Discrete convexity of eta(x) between successive crests.

    The surface is mirrored about the trough to cover one full inter-crest
    interval.  A neighbourhood of each crest is excluded (the open
    interval): the extreme profile has a corner there, and at finite mu the
    rounded cap is locally concave over the stagnation length q0^2/g, so
    the default exclusion is max(0.005 * wavelength, 8 q0^2/g).  Convex
    means the three-point second derivative stays above -CONVEXITY_EPS
    everywhere checked.
    """
    lam = profile.wavelength
    if exclusion is None:
        exclusion = max(0.005 * lam, 8.0 * profile.q0**2 / profile.g)
    x_half = profile.x
    eta_half = profile.eta
    # mirror about the trough x = -lam/2
    x_full = np.concatenate((-lam - x_half[-2::-1], x_half))
    eta_full = np.concatenate((eta_half[-2::-1], eta_half))
    order = np.argsort(x_full)
    x_full, eta_full = x_full[order], eta_full[order]

    inner = (x_full > -lam + exclusion) & (x_full < -exclusion)
    idx = np.nonzero(inner)[0]
    idx = idx[(idx > 0) & (idx < x_full.size - 1)]
    xl, xc, xr = x_full[idx - 1], x_full[idx], x_full[idx + 1]
    yl, yc, yr = eta_full[idx - 1], eta_full[idx], eta_full[idx + 1]
    second = 2.0 * ((yr - yc) / (xr - xc) - (yc - yl) / (xc - xl)) / (xr - xl)

    violations = -second
    bad = violations > CONVEXITY_EPS
    max_violation = float(violations.max(initial=0.0))
    worst = float(xc[np.argmax(violations)]) if idx.size else None
    checked = (float(xc.min()), float(xc.max())) if idx.size else (np.nan, np.nan)
    return ConvexityReport(convex=not bool(bad.any()),
                           max_violation=max(0.0, max_violation),
                           worst_x=worst,
                           violating_x=xc[bad],
                           checked_range=checked)
