"""Nonlinear operator evaluation and Newton solution.

The equation solved here is

    Phi = A_mu Phi,   (A_mu Phi)(theta) = mu * Int [sin Phi(tau) /
                       (1 + mu Int_0^tau sin Phi)] K(theta, tau) dtau.

With nu = 1/mu this is evaluated as B[sin Phi / (nu + I)], where I is the
accumulated integral of sin Phi and B acts diagonally on sine modes.  Both
integrals are computed spectrally, so no singular quadrature appears; the
form with nu remains meaningful in the extreme limit nu = 0.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import AngleField, SineGrid, _dst1, get_grid
from .kernel import DEEP, KernelSpec, characteristic_values, linearized_factors


class BreakdownError(RuntimeError):
    """The denominator 1 + mu*I lost positivity: the iterate left the
    physical regime (speed would vanish or reverse on the surface)."""


class DivergenceError(RuntimeError):
    """Iteration failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class JacobianOperator(NamedTuple):
    """A matrix-free square Jacobian: the shape, dtype and matvec of the
    duck-typed linear-operator interface, with no sparse-matrix import."""

    shape: tuple[int, int]
    matvec: Callable[[np.ndarray], np.ndarray]
    dtype: np.dtype = np.dtype(float)


# largest spectral tail (SolveResult.tail) of a resolved solution
TAIL_THRESHOLD = 1e-9


@dataclass
class SolveResult:
    field: AngleField
    mu: float
    residual: float
    iterations: int
    # max|F| of the initial field, the first evaluation of the solve
    initial_residual: float

    @functools.cached_property
    def tail(self) -> float:
        """The field's spectral tail within the band n // 2 that every
        operator on n points keeps, computed on first access and kept."""
        return self.field.spectral_tail(band=self.field.n // 2)

    @property
    def resolved(self) -> bool:
        """Whether n resolves the solution: tail <= TAIL_THRESHOLD."""
        return self.tail <= TAIL_THRESHOLD


@dataclass
class SystemState:
    """State (Phi, Psi) of the coupled two-equation formulation.

    psi lives on the closed grid [0, pi] so that Psi(0) = 1 is explicit.
    """

    phi: AngleField
    psi: np.ndarray


@dataclass
class AmplitudeBound:
    """Both sides of the classical restriction mu < [pi M + sin M/(3M)]^(-1).

    Reported, not asserted: as printed the bound is below 3 for any M > 0,
    which would exclude the solutions that demonstrably exist for mu > 3.
    """

    mu: float
    m_sup: float
    rhs: float


def _mu_to_nu(mu: float) -> float:
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    return 0.0 if np.isinf(mu) else 1.0 / mu


class NekrasovOperator:
    """Workspace for one grid and depth.

    B keeps the grid's dealiased band, sine modes 1..n // 2, with the
    factors lambda_k/(3k) of spec's depth; spec.n_modes is not read.  The
    deep-water kernel log|sin((s+t)/2) / sin((s-t)/2)| is invariant under
    a mapped grid's map (SineGrid), so there B is unchanged and sin Phi and
    cos Phi gain the factor theta'(q); at finite depth a mapped grid
    raises ValueError.
    Evaluation and the matrix-free Jacobian action are O(n log n).  The
    dense (n-1) x (n-1) matrices b_dense, w_dense and jacobian_dense are
    built only on request, for spectral checks and as test references;
    no solve uses them.
    """

    def __init__(self, grid: SineGrid, spec: KernelSpec):
        if grid.L != 1.0 and not spec.is_infinite:
            raise ValueError("the finite-depth kernel is not invariant under a grid's map")
        self.grid = grid
        self._dtheta = None if grid.L == 1.0 else grid.dtheta
        n = grid.n
        self.weights = np.zeros(n - 1)
        self.weights[:n // 2] = linearized_factors(spec, n // 2)
        # B's factors with the 1/n and 1/2 of its two transforms folded in
        self._half_weights = self.weights / (2.0 * n)
        self._b_dense = None
        self._w_dense = None
        # (values, nu, sin Phi, nu + I) of the last _denominator call
        self._last_denominator = None

    # -- spectral building blocks -------------------------------------------------

    def _denominator(self, values: np.ndarray, nu: float):
        """sin Phi theta' and nu + I on the interior grid, I = Int_0^theta
        sin Phi; raises BreakdownError unless the denominator is positive."""
        sin_phi = np.sin(values)
        if self._dtheta is not None:
            sin_phi *= self._dtheta
        denom = self.grid.antiderivative_closed(sin_phi)[1:-1]
        denom += nu
        lowest = denom.min(initial=np.inf)
        if lowest <= 0.0:
            raise BreakdownError(
                f"denominator 1 + mu*I reached {lowest:.3e}/mu; "
                "the field is outside the physical regime")
        self._last_denominator = (values, nu, sin_phi, denom)
        return sin_phi, denom

    def density(self, values: np.ndarray, nu: float) -> np.ndarray:
        """g = sin Phi / (nu + I) on the interior grid; checks positivity."""
        sin_phi, denom = self._denominator(values, nu)
        return sin_phi / denom

    def apply_linear(self, values: np.ndarray) -> np.ndarray:
        """B applied to interior grid values (diagonal in the sine basis)."""
        return _dst1(self._half_weights * _dst1(values))

    def apply(self, values: np.ndarray, mu: float) -> np.ndarray:
        """A_mu Phi on the interior grid."""
        return self.apply_linear(self.density(values, _mu_to_nu(mu)))

    def residual(self, values: np.ndarray, mu: float) -> float:
        return float(np.abs(values - self.apply(values, mu)).max())

    # -- Jacobian ------------------------------------------------------------------

    @property
    def b_dense(self) -> np.ndarray:
        if self._b_dense is None:
            grid = self.grid
            sine = np.sin(np.multiply.outer(grid.q_closed[1:-1], grid.modes.astype(float)))
            self._b_dense = (2.0 / grid.n) * (sine * self.weights) @ sine.T
        return self._b_dense

    @property
    def w_dense(self) -> np.ndarray:
        """Dense antiderivative operator: values of an odd function to
        values of its integral from zero, on the interior grid."""
        if self._w_dense is None:
            grid = self.grid
            k = grid.modes.astype(float)
            q = grid.q_closed[1:-1]
            sine = np.sin(np.multiply.outer(q, k))
            profile = (1.0 - np.cos(np.multiply.outer(q, k))) / k
            self._w_dense = profile @ ((2.0 / grid.n) * sine.T)
        return self._w_dense

    def _density_derivative_parts(self, values: np.ndarray, nu: float):
        """cos Phi theta', cos Phi theta'/(nu + I), sin Phi theta'/(nu + I)^2.
        Newton linearises at the iterate whose residual apply has just evaluated,
        so the denominator of that very array (not a copy) is reused; the
        solver never modifies an iterate in place."""
        last = self._last_denominator
        if last is not None and last[0] is values and last[1] == nu:
            sin_phi, denom = last[2], last[3]
        else:
            sin_phi, denom = self._denominator(values, nu)
        cos_phi = np.cos(values)
        if self._dtheta is not None:
            cos_phi *= self._dtheta
        return cos_phi, cos_phi / denom, sin_phi / denom**2

    def jacobian_dense(self, values: np.ndarray, mu: float) -> np.ndarray:
        """Dense Jacobian of F(Phi) = Phi - A_mu Phi at the given state."""
        cos_phi, c1, c2 = self._density_derivative_parts(values, _mu_to_nu(mu))
        dg = -(c2[:, None] * self.w_dense * cos_phi[None, :])
        dg[np.diag_indices_from(dg)] += c1
        jac = -self.b_dense @ dg
        jac[np.diag_indices_from(jac)] += 1.0
        return jac

    def jacobian_operator(self, values: np.ndarray, mu: float):
        """Matrix-free Jacobian of F as a JacobianOperator; a matvec is four
        transforms and about ten passes over the grid."""
        cos_phi, c1, c2 = self._density_derivative_parts(values, _mu_to_nu(mu))

        def matvec(v):
            dg = self.grid.antiderivative_closed(cos_phi * v)[1:-1]
            dg *= c2
            np.subtract(c1 * v, dg, out=dg)
            out = self.apply_linear(dg)
            return np.subtract(v, out, out=out)

        m = self.grid.n - 1
        return JacobianOperator((m, m), matvec)


def get_operator(n: int, spec: KernelSpec, L: float = 1.0) -> NekrasovOperator:
    """The operator on grid (n, L) at spec's depth, cached on (n,
    depth_ratio, L) for the 25 most recently used keys."""
    return _cached_operator(n, spec.depth_ratio, L)


@functools.lru_cache(maxsize=25)
def _cached_operator(n: int, depth_ratio: float, L: float) -> NekrasovOperator:
    return NekrasovOperator(get_grid(n, L), KernelSpec(depth_ratio=depth_ratio))


# -- public operations ----------------------------------------------------------


def inner_accumulate(field: AngleField) -> np.ndarray:
    """I(tau) = Int_0^tau sin Phi, on the closed grid [0, pi].

    Computed as the exact antiderivative of the sine series, in q, of
    sin Phi theta'; I(0) = 0 exactly and the (even) values at the
    endpoints are included.
    """
    return field.grid.antiderivative_closed(np.sin(field.values) * field.grid.dtheta)


NEWTON_MAX_ITER = 100


def _newton(residual, newton_step, x, tol, f=None):
    """Damped inexact Newton iteration shared by the spectral and graded
    solvers.

    residual(x) returns the vector F(x) and may raise BreakdownError;
    newton_step(x, f, target) returns dx with |f - J(x) dx|_2 <= target, or
    raises DivergenceError, which leaves with the current iteration.  The
    target is eta |F|_2 with the forcing term eta = min(KRYLOV_RTOL,
    |F|_inf) (Dembo, Eisenstat & Steihaug 1982), so the linear solve
    tightens as F falls and the outer convergence stays quadratic; it is
    floored at 0.1 tol, below which no step is needed.  Each step tries
    x - scale*dx, halving scale while the trial breaks down or its residual
    rises.  The accepted trial's F is the next iterate's, so no iterate is
    evaluated twice; a caller that has evaluated F(x) already passes it as
    f.  Returns (x, max|F(x)|, iterations), after at most NEWTON_MAX_ITER
    iterations.
    """
    if f is None:
        f = residual(x)
    res = float(np.abs(f).max())
    for it in range(1, NEWTON_MAX_ITER + 1):
        if res <= tol:
            return x, res, it - 1
        target = max(min(KRYLOV_RTOL, res) * math.sqrt(f @ f), 0.1 * tol)
        try:
            dx = newton_step(x, f, target)
        except DivergenceError as exc:
            exc.iterations = it
            raise
        scale = 1.0
        for _ in range(25):
            trial = x - scale * dx
            try:
                trial_f = residual(trial)
            except BreakdownError:
                scale *= 0.5
                continue
            trial_res = float(np.abs(trial_f).max())
            if trial_res <= res * (1.0 + 1e-12) or scale <= 2.0**-20:
                break
            scale *= 0.5
        else:
            raise DivergenceError("line search failed to reduce the residual", res, it)
        x, f, res = trial, trial_f, trial_res
    if res <= tol:
        return x, res, NEWTON_MAX_ITER
    raise DivergenceError(f"Newton did not reach tol={tol:g}", res, NEWTON_MAX_ITER)


# restarted GMRES of the Newton step: _newton asks for at most KRYLOV_RTOL
# |f|_2 (less once |f|_inf < KRYLOV_RTOL), restart every KRYLOV_RESTART
# Arnoldi steps, give up after KRYLOV_CYCLES cycles
KRYLOV_RTOL = 1e-4
KRYLOV_RESTART = 50
KRYLOV_CYCLES = 60


def _krylov_step(jacobian, f, target):
    """Newton step dx with |f - J dx|_2 <= target by restarted GMRES on a
    matrix-free Jacobian (any object with .matvec).

    Each cycle starts from the residual r (r = f at dx = 0, so no matvec)
    and runs Arnoldi with classical Gram-Schmidt and one
    reorthogonalisation; Givens rotations on Python scalars carry the
    residual norm, and the cycle stops once it is at most target.
    A zero subdiagonal (an invariant subspace) makes that estimate zero, so
    the exact solution is returned.  The rotated Hessenberg columns form
    the upper triangular R, whose diagonal is checked finite and positive,
    and the cycle's coefficients y solve R y = Q^T (r_norm e_1) by back
    substitution on the same scalars.  f - J dx is recomputed only before a
    restart.  Raises DivergenceError at the first non-finite Arnoldi value
    and after KRYLOV_CYCLES unconverged cycles.
    """
    dx = np.zeros_like(f)
    # rows are written as the Arnoldi steps reach them, so unused ones stay
    # untouched memory
    basis = np.empty((KRYLOV_RESTART + 1, f.size))
    r = f
    for _ in range(KRYLOV_CYCLES):
        r_norm = math.sqrt(r @ r)
        if r_norm <= target:
            return dx
        basis[0] = r / r_norm
        columns = []  # column j of R, its rows 0..j
        rotations = []
        g = [r_norm]  # Q^T (r_norm e_1), one entry longer than the steps taken
        for j in range(KRYLOV_RESTART):
            w = jacobian.matvec(basis[j])
            v = basis[:j + 1]
            h = v @ w
            w -= h @ v
            h2 = v @ w
            w -= h2 @ v
            h_next = math.sqrt(w @ w)
            col = (h + h2).tolist()
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            rho = math.hypot(col[j], h_next)
            if not (math.isfinite(rho) and rho > 0.0):
                raise DivergenceError("inner Krylov solve stagnated",
                                      float(np.abs(f).max()), 0)
            c, s = col[j] / rho, h_next / rho
            rotations.append((c, s))
            col[j] = rho
            columns.append(col)
            g[j], g_next = c * g[j], -s * g[j]
            g.append(g_next)
            if abs(g_next) <= target:
                break
            basis[j + 1] = w / h_next
        k = len(columns)
        y = [0.0] * k
        for i in range(k - 1, -1, -1):
            y[i] = (g[i] - sum(columns[l][i] * y[l] for l in range(i + 1, k))) / columns[i][i]
        dx += np.array(y) @ basis[:k]
        if abs(g[k]) <= target:
            return dx
        r = f - jacobian.matvec(dx)
    raise DivergenceError("inner Krylov solve stagnated", float(np.abs(f).max()), 0)


def _check_mu_tol(mu: float, tol: float) -> None:
    """Raise ValueError unless mu and tol are positive and finite: the
    spectral route is ill-posed at nu = 0, a tol of zero or below can never
    be met, and an infinite one is met by any guess."""
    if not np.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}; the extreme wave "
                         "(mu = inf) is solved by solve_extreme()")
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")


def solve(mu: float, initial: AngleField, method: str = "newton",
          tol: float = 1e-12, spec: KernelSpec = DEEP) -> SolveResult:
    """Solve Phi = A_mu Phi from the given initial field, at spec's depth,
    with the operator's n // 2 modes (get_operator).

    method accepts only "newton" (any other value raises ValueError).  The
    solve is _newton with _krylov_step on the matrix-free Jacobian, the
    loop GradedCollocation.solve shares, so each iterate costs one A_mu
    evaluation; mu and tol are checked by _check_mu_tol before any work.
    Raises DivergenceError on non-convergence and propagates
    BreakdownError when the initial state is outside the physical regime.
    """
    if method != "newton":
        raise ValueError(f"unknown method {method!r}; only \"newton\" is supported")
    _check_mu_tol(mu, tol)
    if not np.isfinite(initial.values).all():
        raise ValueError("the initial field has non-finite values")
    op = get_operator(initial.n, spec, initial.grid.L)

    def residual(x):
        return x - op.apply(x, mu)

    x = initial.values.copy()
    f = residual(x)
    first = float(np.abs(f).max())
    x, res, its = _newton(
        residual,
        lambda x, f, target: _krylov_step(op.jacobian_operator(x, mu), f, target),
        x, tol, f)
    return SolveResult(field=AngleField(initial.grid, values=x), mu=mu,
                       residual=res, iterations=its,
                       initial_residual=first)


# how far past mu1 (in mu - mu1) Newton converges from the seed
# (mu - mu1)/9 sin theta, measured at n = 512 on deep water and at
# h/lambda from 0.05 to 2: at 35 but not at 40
SEED_REACH = 35.0
LADDER_RATIO = 1.6


def _seeded_guess(mu: float, spec: KernelSpec, n: int, tol: float) -> AngleField:
    """The field a seeded solve at mu starts from, on n points.  At every
    depth the branch leaves mu1 along sin theta, and the seed
    (mu - mu1)/9 sin theta reaches SEED_REACH in mu - mu1.  Past it, the
    seed at mu1 + SEED_REACH is solved at each rung mu1 + SEED_REACH *
    LADDER_RATIO^k below mu on the same grid: from the seed itself a large
    mu breaks down or falls to the trivial solution, while each rung's
    solution is a good guess for the next.  The one place a solve is
    seeded (solve_seeded, solve_system, trace_branch).  Raises ValueError
    unless mu exceeds the bifurcation point."""
    mu1 = float(characteristic_values(spec, 1)[0])
    if not mu > mu1:
        raise ValueError(f"mu must exceed the bifurcation point {mu1:g}, got {mu}")
    grid = get_grid(n)
    s = min(mu - mu1, SEED_REACH)
    field = AngleField(grid, values=s / 9.0 * np.sin(grid.theta))
    while s < mu - mu1:
        field = solve(mu1 + s, field, tol=tol, spec=spec).field
        s *= LADDER_RATIO
    return field


def solve_seeded(mu: float, spec: KernelSpec = DEEP, n: int = 512,
                 tol: float = 1e-12) -> SolveResult:
    """Solve at mu on n points from _seeded_guess: the seed (mu - mu1)/9
    sin theta at every depth, or the warm-start ladder past its reach.
    Raises ValueError unless mu is finite and exceeds the bifurcation point
    of the kernel."""
    _check_mu_tol(mu, tol)
    return solve(mu, _seeded_guess(mu, spec, n, tol), tol=tol, spec=spec)


def _system_f(op: NekrasovOperator, phi: np.ndarray, psi: np.ndarray, mu: float):
    """The coupled system's F = (Phi - mu B[Psi sin Phi], Psi - 1 + mu Int_0^theta
    Psi^2 sin Phi), stacked: n - 1 interior values, then n + 1 closed-grid ones."""
    psi_sin = psi[1:-1] * np.sin(phi)
    return np.concatenate((phi - mu * op.apply_linear(psi_sin),
                           psi - 1.0 + mu * op.grid.antiderivative_closed(psi[1:-1] * psi_sin)))


def solve_system(mu: float, initial: SystemState | None = None,
                 tol: float = 1e-12, spec: KernelSpec = DEEP,
                 n: int = 512) -> SystemState:
    """Solve the coupled system for (Phi, Psi) with the shared Newton loop.

    Phi = mu * Int Psi sin Phi K dtau and Psi = 1 - mu Int_0^theta Psi^2 sin Phi.
    The stacked (Phi, Psi), 2n values, is solved as in solve, with the same
    checks; a trial with Psi <= 0 on (0, pi] breaks down.  Psi is advanced
    through its own Volterra equation, not through the closed form
    1/(1 + mu*I), which only seeds it and is a cross-check identity.
    Without initial, Phi starts from _seeded_guess as in solve_seeded, so
    mu must exceed the bifurcation point; a mapped Phi raises ValueError.
    """
    _check_mu_tol(mu, tol)
    if initial is None:
        phi0 = _seeded_guess(mu, spec, n, tol)
        initial = SystemState(phi0, 1.0 / (1.0 + mu * inner_accumulate(phi0)))
    elif not (np.isfinite(initial.phi.values).all() and np.isfinite(initial.psi).all()):
        raise ValueError("the initial state has non-finite values")
    elif initial.phi.grid.L != 1.0:
        raise ValueError("the coupled system is solved on the uniform grid")
    op = get_operator(initial.phi.n, spec)
    m = op.grid.n - 1

    def residual(x):
        if not x[m + 1:].min() > 0.0:
            raise BreakdownError("Psi lost positivity; the state is outside the physical regime")
        return _system_f(op, x[:m], x[m:], mu)

    def jacobian(x):
        sin_phi, psi_in = np.sin(x[:m]), x[m + 1:-1]
        psi_cos = psi_in * np.cos(x[:m])

        def matvec(v):
            dpsi_sin, dphi_part = v[m + 1:-1] * sin_phi, psi_cos * v[:m]
            return np.concatenate((
                v[:m] - mu * op.apply_linear(dpsi_sin + dphi_part),
                v[m:] + mu * op.grid.antiderivative_closed(
                    psi_in * (2.0 * dpsi_sin + dphi_part))))

        return JacobianOperator((2 * m + 2,) * 2, matvec)

    x = np.concatenate((initial.phi.values, initial.psi))
    x, _, _ = _newton(residual, lambda x, f, target: _krylov_step(jacobian(x), f, target),
                      x, tol)
    x[m] = 1.0
    return SystemState(phi=AngleField(op.grid, values=x[:m]), psi=x[m:])


def check_amplitude_bound(field: AngleField, mu: float) -> AmplitudeBound:
    """Evaluate both sides of mu < [pi M + sin M / (3M)]^(-1), M = sup|Phi|.

    The M = 0 limit of the bracket is 1/3, so the right-hand side is 3 for
    the zero field.  The inequality itself is reported, never asserted.
    """
    m = field.sup_norm()
    if m == 0.0:
        rhs = 3.0
    else:
        rhs = 1.0 / (np.pi * m + np.sin(m) / (3.0 * m))
    return AmplitudeBound(mu=mu, m_sup=m, rhs=rhs)


def crest_trough_asymmetry(field: AngleField) -> float:
    """max over theta in (0, pi/2) of |Phi(theta) - Phi(pi - theta)|.

    Strictly positive for any nontrivial solution: crests sharpen and
    troughs flatten, so the profile cannot be fore-aft symmetric about
    theta = pi/2.  On a mapped grid Phi(pi - theta) is evaluated at each
    node.
    """
    v = field.values
    mirror = v[::-1] if field.grid.L == 1.0 else field(np.pi - field.grid.theta)
    return float(np.abs(v - mirror).max(initial=0.0))
