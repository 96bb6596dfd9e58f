"""Extreme-wave limit: crest angle, Grant asymptotics, profile and convexity.

At the extreme wave the crest becomes a stagnation point and the tangent
angle has a one-sided limit of pi/6 there (interior crest angle 2 pi/3).
Approaching the crest, Phi* = pi/6 + C1 s^b1 + C2 s^(2 b1) + ... with the
Grant exponent b1 ~ 0.802679, C1 < 0 and C2 > 0.  solve_extreme collocates
the limiting equation (1/mu = 0) on a crest-graded mesh; extreme_profile
integrates the free surface from that solution, on which convexity_check
judges convexity between crests (Plotnikov & Toland, 2004).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._graded import (_GAUSS_ORDER, GradedCollocation, _dyadic_rule, _gauss_rule,
                      _log_weights, cumulative_trapezoid)
from .kernel import DEEP, KernelSpec
from .profile import WaveProfile


@dataclass
class GrantFit:
    c1: float
    c2: float
    beta1: float
    fit_residual: float
    window: tuple[float, float]


@dataclass
class ExtremeSolution:
    """Extreme-wave angle field with crest diagnostics.

    theta_samples/phi_samples are the interior graded nodes and the angle
    there, on which the crest fits and extreme_profile work; n_nodes,
    residual and iterations are the graded-mesh solve's.
    """

    theta_samples: np.ndarray
    phi_samples: np.ndarray
    crest_angle_estimate: float
    grant_fit: GrantFit | None
    n_nodes: int
    residual: float
    iterations: int


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
    exactly once on (0, 1), to a bracket of width tol, positive and finite.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")

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


def _grant_lstsq(sol: ExtremeSolution, window: tuple[float, float] | None,
                 intercept: bool):
    """Least squares of the crest samples in the window on the Grant basis
    s^b1, s^(2 b1): with an intercept, of Phi on (1, s^b1, s^(2 b1));
    without one, of Phi - pi/6.  Returns the window, design matrix,
    right-hand side and coefficients.  The default window is theta in
    [1e-5, 0.2]."""
    window = window or (1e-5, 0.2)
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
    the crest).
    """
    *_, coef = _grant_lstsq(sol, window, intercept=True)
    return float(coef[0])


def solve_extreme(spec: KernelSpec = DEEP, strategy: str = "direct",
                  tol: float = 1e-11, n_nodes: int = 600,
                  grading: float = 3.0) -> ExtremeSolution:
    """Compute the extreme-wave angle field by collocating the limiting
    equation (1/mu = 0) on a crest-graded mesh, where the quadrature in the
    bounded density tau sin Phi / I sidesteps the loss of compactness at
    the crest.  n_nodes must be an integer of at least 2 (ValueError
    otherwise), and the solution records the mesh's own.

    strategy accepts only "direct" (any other value raises ValueError); it
    remains for the benchmark workload that passes it and goes with the
    next change to the benchmark.
    """
    if not spec.is_infinite:
        raise ValueError("the extreme limit is computed on deep water")
    if strategy != "direct":
        raise ValueError(f"unknown strategy {strategy!r}")
    mesh = GradedCollocation(n_nodes=n_nodes, grading=grading)
    graded = mesh.solve(0.0, tol=tol)
    sol = ExtremeSolution(
        theta_samples=graded.theta[1:-1], phi_samples=graded.phi[1:-1],
        crest_angle_estimate=np.nan, grant_fit=None, n_nodes=mesh.n,
        residual=graded.residual, iterations=graded.iterations)
    sol.crest_angle_estimate = stokes_limit(sol)
    sol.grant_fit = fit_asymptotics(sol)
    return sol


def extreme_profile(sol: ExtremeSolution) -> WaveProfile:
    """The extreme wave's free surface on the graded nodes, for wavelength
    2 pi and g = 1 (mu = inf).

    R = I^(-1/3), with I = Int_0^tau sin Phi by the collocation's own
    trapezoid rule; x = -Int R cos Phi and eta = -Int R sin Phi take the
    same rule with the first cell 1.5 tau_1 f(tau_1), since R ~ tau^(-1/3).
    Scaling by the x-extent D makes the half-wave span x in [-pi, 0], and
    c = sqrt(3)/(D/pi)^(3/2) is the mu -> inf limit of physical_params.
    The crest is a stagnation point: q0 = 0, R is infinite there and q/q0
    elsewhere.  a_k is empty, and eta has zero mean over one period.
    """
    theta = np.concatenate(([0.0], sol.theta_samples, [np.pi]))
    widths = np.diff(theta)
    phi = np.concatenate((sol.phi_samples, [0.0]))  # nodes 1..n
    r = cumulative_trapezoid(widths, np.sin(phi)) ** (-1.0 / 3.0)
    x_int = cumulative_trapezoid(widths, r * np.cos(phi), first_cell=1.5)
    eta_int = cumulative_trapezoid(widths, r * np.sin(phi), first_cell=1.5)
    d = x_int[-1]
    x = -(np.pi / d) * np.concatenate(([0.0], x_int))
    eta = -(np.pi / d) * np.concatenate(([0.0], eta_int))
    offset = float(np.trapezoid(eta, x) / (x[-1] - x[0]))
    return WaveProfile(
        theta=theta, x=x, eta=eta - offset,
        R=np.concatenate(([np.inf], (np.pi / d) * r)),
        q_over_q0=np.concatenate(([1.0], np.full(r.size, np.inf))),
        wavelength=2.0 * np.pi, c=float(np.sqrt(3.0) / (d / np.pi) ** 1.5),
        q0=0.0, g=1.0, mu=np.inf, a_k=np.empty(0),
        metadata={"eta_offset_mean_zero": offset})


def verify_constant_solution(theta_samples=(0.3, 1.0, 3.0),
                             truncation: float = 1e4) -> ConstantSolutionReport:
    """Check that phi = pi/6 solves the half-line model equation.

    The right-hand side at the constant is
    (1/(3 pi)) Int_0^T log((theta+tau)/|theta-tau|) dtau/tau, which equals
    pi/6 exactly for T = infinity.  Substituting s = tau/theta makes the
    computed value a function of T/theta only, so the scale invariance
    (theta, T) -> (a theta, a T) is exact here.  The truncation tail is
    bounded by 2 theta/(3 pi T) (1 + O((theta/T)^2)).

    The integral takes a fixed Gauss-Legendre rule.  On [0, 2] the panels
    halve toward s = 1 from both sides (_dyadic_rule, three levels); on the
    innermost ones, -log|1 - s| takes the product rule _log_weights.  The
    tail s in [2, T/theta] is mapped by t = 1/s onto the smooth
    2 artanh(t)/t on [theta/T, 1/2], one Gauss panel.
    """
    theta_samples = np.atleast_1d(np.asarray(theta_samples, dtype=float))
    if np.any(theta_samples <= 0) or np.any(theta_samples >= truncation / 10.0):
        raise ValueError("theta samples must lie in (0, truncation/10)")

    g, gw = _gauss_rule(_GAUSS_ORDER)
    levels = 3
    u, du = _dyadic_rule(g, gw, levels)  # u = |1 - s|, innermost panel first
    delta = 2.0 ** -levels
    log_u = np.log(u)
    log_u[:g.size] = math.log(delta)  # the rest of -log u there is delta * _log_weights
    log_w = delta * _log_weights(g, gw)
    head = sum(du @ ((np.log1p(s) - log_u) / s) + log_w @ (1.0 / s[:g.size])
               for s in (1.0 - u, 1.0 + u))
    width = 0.5 - theta_samples / truncation
    t = 0.5 - width[:, None] * g  # t = 1/s, from 1/2 down to theta/T
    values = (head + width * ((2.0 * np.arctanh(t) / t) @ gw)) / (3.0 * np.pi)
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
