"""Branch tracing, cone diagnostics, scaled continua.

The nontrivial solution branch bifurcates from the first characteristic
value (mu = 3 on deep water) and is followed in mu by a predictor that
extrapolates the sine coefficients of the last PREDICTOR_POINTS accepted
points in log mu (Lagrange, cubic once four points exist), with a Newton
corrector.  The grid is refined automatically whenever the sine spectrum of
a converged point stops decaying, as the crest boundary layer, of width
about 1/mu, sharpens for large mu.  On deep water the first refinement
moves onto the crest-clustered conformal grid tan(theta/2) = L tan(q/2) of
Lushnikov, Dyachenko & Silantyev (Proc. R. Soc. A 473, 2017), under which
Nekrasov's kernel is invariant (SineGrid), and each later point sits on
L = min(1, 1/sqrt(mu)).  Every other refinement moves to the next size of
the form 2^k or 3 * 2^k (512 -> 768 -> 1024 -> ... -> 131072 = N_MAX), at
most 1.5x larger.

trace_branch starts at mu_start from solver._seeded_guess, as solve_seeded
does, and refines the grid from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import profile as _profile
from .grid import AngleField, get_grid
from .kernel import DEEP, KernelSpec
from .solver import (TAIL_THRESHOLD, BreakdownError, DivergenceError, SolveResult,
                     _check_mu_tol, _seeded_guess, get_operator, solve)


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
    """A converged point: its sup-norm (on the 4x grid), wave_height = H/lambda
    from the height integral of profile.height_over_wavelength (no profile
    is built) and the cone report.  trace_branch also records the Newton
    iterations of the solve on its final grid and its spectral tail in the
    retained band, which the branch writers write, and the max|F| of the
    corrector's guess on the guess grid, which they leave out.  A scaled
    point (scale_branch_point) carries its source's sup_norm, wave_height, tail."""

    mu: float
    field: AngleField
    sup_norm: float
    wave_height: float
    residual: float
    n: int
    cone: ConeReport | None = None
    iterations: int | None = None
    tail: float | None = None
    guess_residual: float | None = None


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


INITIAL_STEP = 0.01
GROWTH = 1.5
MAX_STEP = 1.0
GEOMETRIC_START = 10.0
# the step factor in mu from GEOMETRIC_START on
GEOMETRIC_RATIO = 1.25
MIN_STEP = 1e-8
N_MAX = 1 << 17
MAX_POINTS = 2000
CONE_EPS = 1e-9
# accepted points through which the next guess is extrapolated in log mu
PREDICTOR_POINTS = 4


def cone_membership(field: AngleField) -> ConeReport:
    """Check the three cone conditions on the grid, within CONE_EPS."""
    v = field.values
    theta = field.grid.theta
    neg_violation = max(0.0, float((-v).max(initial=0.0)))

    ratio = v / np.sin(0.5 * theta)
    increases = np.diff(ratio)
    ratio_violation = max(0.0, float(increases.max(initial=0.0)))

    tail_violation = _tail_violation(v, None if field.grid.L == 1.0 else theta)

    return ConeReport(
        nonneg_ok=neg_violation <= CONE_EPS,
        ratio_monotone_ok=ratio_violation <= CONE_EPS,
        tail_ordering_ok=tail_violation <= CONE_EPS,
        max_violation=max(neg_violation, ratio_violation, tail_violation),
    )


def _tail_violation(v: np.ndarray, theta: np.ndarray | None = None) -> float:
    """Largest excess of Phi(t) over min Phi on [pi - t, t] over the nodes
    t >= pi/2; theta holds a mapped grid's nodes, None the uniform grid's.

    Each window's minimum is the smaller of the running minimum from pi/2
    up to t and the minimum of the nodes below pi/2 from its lower end on.
    The uniform grid pairs by index, as pi - t rounds off the mirror node:
    index i, theta_{i+1}, has theta_{n-1-i} at index n - 2 - i, and the t
    >= pi/2 start at (n - 1) // 2.  A mapped grid pairs no nodes, so the
    window's lower end is found on the nodes.
    """
    if theta is None:
        first = v.size // 2
        lower = v.size - 1 - np.arange(first, v.size)
    else:
        first = int(np.searchsorted(theta, 0.5 * np.pi))
        lower = np.searchsorted(theta, np.pi - theta[first:])
    # below[j] = min of the nodes j .. first - 1, inf for none
    below = np.append(np.minimum.accumulate(v[:first][::-1])[::-1], np.inf)
    right = v[first:]
    window_min = np.minimum(np.minimum.accumulate(right), below[lower])
    # on a coarse mapped grid no node may reach pi/2
    return float((right - window_min).max(initial=0.0))


def _branch_point(mu: float, field: AngleField, residual: float,
                  iterations: int | None = None, tail: float | None = None,
                  guess_residual: float | None = None) -> BranchPoint:
    """The branch point at (mu, field) with its diagnostics: the sup-norm
    on the 4x grid, H/lambda from profile.height_over_wavelength (the
    height integral, not a full profile) and the cone report."""
    return BranchPoint(mu=mu, field=field, sup_norm=field.sup_norm(),
                       wave_height=_profile.height_over_wavelength(field, mu),
                       residual=residual, n=field.n, cone=cone_membership(field),
                       iterations=iterations, tail=tail,
                       guess_residual=guess_residual)


def _corrector(mu, guess, spec, tol) -> SolveResult:
    return solve(mu, guess, tol=tol, spec=spec)


def _next_grid(n: int) -> int:
    """The smallest grid size above n of the form 2^k or 3 * 2^k (512 ->
    768 -> 1024 -> 1536 -> ... -> 98304 -> 131072, and 500 -> 512), at
    most 1.5x n.  From any n >= 4 the ladder meets N_MAX."""
    power = 1 << (n.bit_length() - 1)
    return 3 * power // 2 if 3 * power // 2 > n else 2 * power


def _map_parameter(mu: float) -> float:
    """The map parameter L = min(1, 1/sqrt(mu)) of a mapped branch point."""
    return min(1.0, 1.0 / math.sqrt(mu))


def _refined(field: AngleField, mu: float, spec: KernelSpec) -> AngleField | None:
    """The field on the next grid up: on deep water a uniform field moves
    onto the map L = _map_parameter(mu) on the same n, any other to the
    next ladder size (_next_grid) on its own map; None at N_MAX."""
    if spec.is_infinite and field.grid.L == 1.0:
        return field.resample(field.n, _map_parameter(mu))
    return field.resample(_next_grid(field.n)) if field.n < N_MAX else None


def _converge_resolved(mu, guess, spec, tol):
    """Solve at mu, re-solving on the next grid up (_refined) until the
    spectral tail decays or n reaches N_MAX; the result may be unresolved
    at N_MAX.  Returns the last grid's result and the max|F| of the
    guess."""
    result = _corrector(mu, guess, spec, tol)
    guess_residual = result.initial_residual
    while not result.resolved and (field := _refined(result.field, mu, spec)) is not None:
        result = _corrector(mu, field, spec, tol)
    return result, guess_residual


def _predict(points: list[BranchPoint], mu: float, L: float = 1.0) -> AngleField:
    """Lagrange extrapolation in log mu through the given points to mu,
    coefficient by coefficient on the finest grid among them with map
    parameter L, onto which AngleField.resample brings each point (8-point
    Lagrange in q from another map).  A single point is its own prediction."""
    n = max(p.n for p in points)
    if len(points) == 1:
        return points[0].field.resample(n, L)
    logs = [math.log(p.mu) for p in points]
    t = math.log(mu)
    coeffs = np.zeros(n - 1)
    for i, p in enumerate(points):
        weight = math.prod((t - x) / (logs[i] - x) for j, x in enumerate(logs) if j != i)
        coeffs += weight * p.field.resample(n, L).coefficients
    return AngleField(get_grid(n, L), coefficients=coeffs)


def trace_branch(mu_start: float, mu_end: float, spec: KernelSpec = DEEP,
                 n_start: int = 512, tol: float = 1e-12, progress=None) -> Branch:
    """Trace the solution branch from mu_start to mu_end.

    mu_start must exceed the kernel's first characteristic value, both ends
    must be finite, tol positive and finite and n_start an integer from 4
    to N_MAX, all checked before any solve (ValueError).  The first point
    starts from _seeded_guess on n_start points, as in solve_seeded.

    The step rule is fixed by the module constants.  Below GEOMETRIC_START,
    mu advances by steps that start at INITIAL_STEP and grow by GROWTH per
    accepted point up to MAX_STEP; from there on it is multiplied by
    GEOMETRIC_RATIO (the extreme limit is approached logarithmically).  A
    failed corrector halves the step (takes the square root of the ratio)
    until it falls below MIN_STEP.  Each corrector starts from the log-mu
    extrapolation through the last PREDICTOR_POINTS accepted points (see
    _predict), on the finest grid among them, so a refinement carries
    over to every later guess.  The grid starts uniform, on n_start
    points, and moves up (_refined) while the spectral tail of a converged
    point exceeds TAIL_THRESHOLD: on deep water the first move is onto the
    map tan(theta/2) = L tan(q/2) (SineGrid) at the same n, after which
    each guess is predicted onto L = min(1, 1/sqrt(mu_next)), for a crest
    layer about 1/mu wide; every other move goes up the ladder of sizes
    2^k and 3 * 2^k in q (_next_grid), up to N_MAX.  On a geometric step
    the guess first moves up in the same way while its own tail exceeds
    TAIL_THRESHOLD, before the corrector runs; the prediction can read the
    solved tail low, so the re-solve after a converged point stays as the
    fallback.

    Every accepted point satisfies the residual bound on its own grid and
    is spectrally resolved.  The branch is returned truncated, with a
    failure record, when the step underflows, when a point stays
    unresolved at N_MAX (that point is left out), or when MAX_POINTS
    points are reached before mu_end.
    """
    if not (isinstance(n_start, (int, np.integer)) and 4 <= n_start <= N_MAX):
        raise ValueError(f"n_start must be an integer from 4 to N_MAX={N_MAX}, "
                         f"got {n_start!r}")
    if not (math.isfinite(mu_start) and math.isfinite(mu_end)):
        raise ValueError(f"mu_start and mu_end must be finite, got {mu_start}, {mu_end}")
    _check_mu_tol(mu_start, tol)
    if not mu_end > mu_start:
        raise ValueError("mu_end must exceed mu_start")

    branch = Branch(points=[], spec=spec, tol=tol,
                    metadata={"mu_start": mu_start, "mu_end": mu_end,
                              "n_start": n_start})
    candidate, guess_residual = _converge_resolved(
        mu_start, _seeded_guess(mu_start, spec, n_start, tol), spec, tol)
    result = None
    step = INITIAL_STEP
    ratio = GEOMETRIC_RATIO
    while candidate is not None:
        if not candidate.resolved:
            branch.failure = (f"unresolved at mu={candidate.mu:g}: spectral tail "
                              f"{candidate.tail:.3e} above {TAIL_THRESHOLD:g} "
                              f"at n={candidate.field.n}")
            break
        if result is not None:
            step = min(step * GROWTH, MAX_STEP)
            ratio = min(ratio * np.sqrt(GROWTH), GEOMETRIC_RATIO)
        result = candidate
        branch.points.append(_branch_point(result.mu, result.field, result.residual,
                                           result.iterations, result.tail, guess_residual))
        if progress:
            progress(branch.points[-1])
        if result.mu >= mu_end:
            break
        if len(branch.points) >= MAX_POINTS:
            branch.failure = (f"stopped at the {MAX_POINTS}-point cap at "
                              f"mu={result.mu:g}, before mu_end={mu_end:g}")
            break

        candidate = None
        while candidate is None:
            geometric = result.mu >= GEOMETRIC_START
            mu_next = min(result.mu * ratio if geometric else result.mu + step, mu_end)
            L = 1.0 if result.field.grid.L == 1.0 else _map_parameter(mu_next)
            guess = _predict(branch.points[-PREDICTOR_POINTS:], mu_next, L)
            while (geometric and guess.spectral_tail(band=guess.n // 2) > TAIL_THRESHOLD
                   and (refined := _refined(guess, mu_next, spec)) is not None):
                guess = refined
            try:
                candidate, guess_residual = _converge_resolved(mu_next, guess, spec, tol)
            except (DivergenceError, BreakdownError) as exc:
                if geometric:
                    ratio = np.sqrt(ratio)
                else:
                    step *= 0.5
                if (ratio - 1.0 if geometric else step) < MIN_STEP:
                    branch.failure = f"corrector failed near mu={mu_next:g}: {exc}"
                    break
    branch.truncated = branch.failure is not None
    return branch


def scale_branch_point(point: BranchPoint, n_fold: int,
                       spec: KernelSpec = DEEP) -> BranchPoint:
    """The scaled solution (n mu, Phi(n theta)) of a deep-water branch point,
    n = n_fold: the wave of minimal period lambda/n that leaves (3n, 0).

    Built, not solved, on grid n * point.n with the source's coefficient k
    at mode n k: its nodes times n are the source's, I_s(theta) = I(n theta)/n
    and B's factor there is 1/(3 n k), so the operator at n mu maps it as
    the source's maps the source, and the residual is the source's up to
    rounding.  It carries over the source's sup_norm, wave_height (H/lambda
    over its minimal period) and tail.  n_fold must be an integer of at
    least 1 (ValueError); 1 returns point.  A point on a mapped grid has no
    exact n-fold image, since the map does not commute with theta -> n theta,
    and raises ValueError: scale a solve on the uniform grid instead.  Raises
    ReconstructionOverflowError for a grid above 16 N_MAX = 2^21, before
    building it, and for a residual above 10x the source's, floored at 1e-11.
    """
    if isinstance(n_fold, bool) or not isinstance(n_fold, (int, np.integer)) or n_fold < 1:
        raise ValueError(f"n_fold must be an integer of at least 1, got {n_fold!r}")
    if not spec.is_infinite:
        raise ValueError("the scaling family exists only on deep water")
    if point.field.grid.L != 1.0:
        raise ValueError(f"the point at mu={point.mu:g} is on a mapped grid and has no "
                         "exact scaled image; scale a solve on the uniform grid")
    if n_fold == 1:
        return point
    n = n_fold * point.field.n
    if n > 16 * N_MAX:
        raise ReconstructionOverflowError(f"scaled grid {n} exceeds 16 N_MAX = {16 * N_MAX}")
    coeffs = np.zeros(n - 1)
    coeffs[n_fold - 1::n_fold] = point.field.coefficients
    field = AngleField.from_coefficients(coeffs, n)
    mu = n_fold * point.mu
    residual = get_operator(n, spec).residual(field.values, mu)
    if residual > 10.0 * max(point.residual, 1e-12):
        raise ReconstructionOverflowError(f"scaled residual {residual:.3e} exceeds 10 max("
                                          f"source residual {point.residual:.3e}, 1e-12)")
    return BranchPoint(mu=mu, field=field, sup_norm=point.sup_norm,
                       wave_height=point.wave_height, residual=residual, n=field.n,
                       cone=cone_membership(field), tail=point.tail)


class ReconstructionOverflowError(RuntimeError):
    """A scaled point's grid exceeds the cap, or its residual its bound."""


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
