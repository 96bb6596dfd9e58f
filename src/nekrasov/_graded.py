"""Collocation solver on a crest-graded mesh for the near-extreme regime.

The spectral solver needs O(mu) modes to resolve the crest boundary layer,
whose width shrinks like 1/mu.  Here the equation is folded onto [0, pi],

    Phi(theta) = Int_0^pi rho(tau) * Q(theta, tau) dtau,
    rho(tau)   = tau sin Phi(tau) / (nu + I(tau)),
    Q(theta, tau) = log|sin((theta+tau)/2) / sin((theta-tau)/2)| / (3 pi tau),

and collocated on nodes tau_i = pi (i/N)^q clustered at the crest.  The
density rho is bounded (rho -> 1 at the crest when nu = 0), so piecewise
linear product integration applies; the nonlinear operator remains usable
at nu = 0, where the spectral route breaks down because sin Phi / I is no
longer square integrable.  Newton steps by the spectral solver's LGMRES on
a matrix-free Jacobian, whose matvec costs one O(N^2) product with the
weight matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import linalg as _sparse_linalg

from .kernel import kernel_deep_closed
from .solver import BreakdownError, _krylov_step, _newton

# Gauss-Legendre points per panel and dyadic refinement levels toward a
# collocation node on the two elements that carry its log singularity
_GAUSS_ORDER = 10
_DYADIC_LEVELS = 42


def kernel_q(theta: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Q(theta, tau) = 2 K(theta, tau) / tau for the deep-water kernel K;
    tau must avoid 0, and theta = +-tau raises SingularEvaluationError."""
    return 2.0 * kernel_deep_closed(theta, tau) / tau


def _gauss_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def _dyadic_panels(a: float, b: float, toward_b: bool, levels: int):
    """Panel endpoints refining dyadically toward one endpoint of [a, b].

    Refinement stops once a panel would be unresolvable in float64 next to
    the singular endpoint; the dropped sliver contributes O(w log w) and is
    far below the quadrature tolerance.
    """
    t = b - a
    min_width = 100.0 * np.finfo(float).eps * max(abs(a), abs(b))
    if min_width > 0:
        levels = min(levels, max(4, int(np.log2(t / min_width))))
    breaks = [0.0] + [t * 2.0 ** (k - levels) for k in range(1, levels + 1)]
    pts = np.array(breaks)
    if toward_b:
        pts = t - pts[::-1]
    return a + pts


@dataclass
class GradedSolution:
    theta: np.ndarray      # nodes, including 0 and pi
    phi: np.ndarray        # angle at the nodes (phi[0] is the crest limit)
    nu: float
    residual: float
    iterations: int


class GradedCollocation:
    """Product-integration collocation of the folded equation."""

    def __init__(self, n_nodes: int = 600, grading: float = 3.0):
        self.n = int(n_nodes)
        self.grading = float(grading)
        if self.n < 2:
            raise ValueError(f"n_nodes must be at least 2, got {n_nodes}")
        if not (np.isfinite(self.grading) and self.grading > 0):
            raise ValueError(f"grading must be finite and positive, got {grading}")
        self.tau = np.pi * (np.arange(self.n + 1) / self.n) ** self.grading
        self.widths = np.diff(self.tau)  # cell widths, widths[0] = tau_1
        self.gauss = _gauss_rule(_GAUSS_ORDER)
        self._weights = None

    # -- quadrature weights -------------------------------------------------------

    def _element_contribution(self, theta_rows: np.ndarray, a: float, b: float,
                              nodes: np.ndarray, wts: np.ndarray):
        """Weights of the two hat functions on [a, b] for all rows."""
        q = kernel_q(theta_rows[:, None], nodes[None, :])
        lam_right = (nodes - a) / (b - a)
        w_left = q @ (wts * (1.0 - lam_right))
        w_right = q @ (wts * lam_right)
        return w_left, w_right

    def _refined_nodes(self, a: float, b: float, singular_at_b: bool):
        panels = _dyadic_panels(a, b, singular_at_b, _DYADIC_LEVELS)
        g, w = self.gauss
        widths = np.diff(panels)
        nodes = (panels[:-1, None] + widths[:, None] * g[None, :]).ravel()
        wts = (widths[:, None] * w[None, :]).ravel()
        return nodes, wts

    @property
    def weights(self) -> np.ndarray:
        """W[i, j] with Phi(theta_i) = sum_j W[i, j] rho(tau_j); the rows at
        an element's endpoints, where the log singularity sits, take the
        dyadically refined rule there instead of the plain Gauss rule."""
        if self._weights is not None:
            return self._weights
        n = self.n
        tau = self.tau
        rows = tau[1:n]  # collocation points theta_1 .. theta_{n-1}
        g, gw = self.gauss
        w = np.zeros((n - 1, n + 1))
        for j in range(n):
            a, b = tau[j], tau[j + 1]
            w_left, w_right = self._element_contribution(rows, a, b, a + (b - a) * g,
                                                         (b - a) * gw)
            # row k holds theta_{k+1}: theta_j = a is row j - 1, theta_{j+1} = b row j
            for k, toward_b in ((j - 1, False), (j, True)):
                if 0 <= k < n - 1:
                    nodes, wts = self._refined_nodes(a, b, toward_b)
                    new_l, new_r = self._element_contribution(rows[k:k + 1], a, b,
                                                              nodes, wts)
                    w_left[k], w_right[k] = new_l[0], new_r[0]
            w[:, j] += w_left
            w[:, j + 1] += w_right
        self._weights = w
        return w

    def cumulative_trapezoid(self, s: np.ndarray) -> np.ndarray:
        """Int_0^tau s at nodes 1..m from s at nodes 1..m, m <= n.

        The first cell treats s as constant at its tau_1 value, i.e. the
        crest limit is extrapolated from the first node.
        """
        s_prev = np.concatenate((s[:1], s[:-1]))
        return np.cumsum(0.5 * self.widths[:s.size] * (s_prev + s))

    # -- nonlinear solve ----------------------------------------------------------

    def _rho(self, phi_interior: np.ndarray, nu: float):
        """rho at all nodes and the pieces needed for the Jacobian."""
        n = self.n
        s = np.sin(np.concatenate((phi_interior, [0.0])))  # nodes 1..n
        denom = nu + self.cumulative_trapezoid(s)
        if denom.min() <= 0.0:
            raise BreakdownError("denominator lost positivity on the graded mesh")
        rho = np.empty(n + 1)
        rho[0] = 1.0 if nu == 0.0 else 0.0
        rho[1:] = self.tau[1:] * s / denom
        return rho, s, denom

    def operator(self, phi_interior: np.ndarray, nu: float) -> np.ndarray:
        rho, _, _ = self._rho(phi_interior, nu)
        return self.weights @ rho

    def jacobian_operator(self, phi_interior: np.ndarray, nu: float):
        """Matrix-free Jacobian of F(Phi) = Phi - operator(Phi, nu) as a
        scipy LinearOperator; each matvec is one O(N^2) weight product."""
        n = self.n
        _, s, denom = self._rho(phi_interior, nu)
        tau_in = self.tau[1:n]
        cos_phi = np.cos(phi_interior)
        d_in = denom[:n - 1]
        a = tau_in * cos_phi / d_in
        b = tau_in * s[:n - 1] / d_in**2
        # only the interior rho columns vary; rho at nodes 0 and n is fixed
        w_in = self.weights[:, 1:n]

        def matvec(v):
            inner = self.cumulative_trapezoid(cos_phi * v)
            return v - w_in @ (a * v - b * inner)

        return _sparse_linalg.LinearOperator((n - 1, n - 1), matvec=matvec, dtype=float)

    def solve(self, nu: float, phi0: np.ndarray | None = None,
              tol: float = 1e-11, max_iter: int = 60) -> GradedSolution:
        """Solution at fixed nu (nu = 0 is the extreme equation) by the
        damped Newton loop and the LGMRES step the spectral solver shares,
        on the matrix-free jacobian_operator."""
        if not tol > 0:
            raise ValueError(f"tol must be positive, got {tol}")
        if phi0 is None:
            phi = (np.pi / 6.0) * (1.0 - self.tau[1:self.n] / np.pi)
        else:
            phi = phi0.copy()
        phi, res, iterations = _newton(
            lambda phi: phi - self.operator(phi, nu),
            lambda phi, f: _krylov_step(self.jacobian_operator(phi, nu), f),
            phi, tol, max_iter)
        return self._finish(phi, nu, res, iterations)

    def _finish(self, phi_interior, nu, res, iterations):
        phi = np.concatenate(([0.0], phi_interior, [0.0]))
        # report the crest limit rather than the hard zero of the odd extension
        phi[0] = phi_interior[0]
        return GradedSolution(theta=self.tau.copy(), phi=phi, nu=nu,
                              residual=res, iterations=iterations)

    def solve_extreme(self, tol: float = 1e-11) -> GradedSolution:
        """Solve the extreme equation nu = 0.

        Starts from the corner-shaped guess (crest limit pi/6) rather than
        continuing the finite-nu family: the finite-nu crest layer carries
        an exact small-angle scaling degeneracy (tau sin Phi / I is
        invariant under Phi -> a Phi where sin Phi ~ Phi) that makes the
        nu = 0 Jacobian singular along layer modes, while at the true
        corner solution the Jacobian is well conditioned.
        """
        return self.solve(0.0, phi0=None, tol=tol)
