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
longer square integrable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as _linalg

from .solver import BreakdownError, _newton

# Gauss-Legendre points per panel and dyadic refinement levels toward a
# collocation node on the two elements that carry its log singularity
_GAUSS_ORDER = 10
_DYADIC_LEVELS = 42


def kernel_q(theta: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Q(theta, tau); tau must avoid 0 and +-theta exactly."""
    num = np.sin(0.5 * (theta + tau))
    den = np.sin(0.5 * (theta - tau))
    return np.log(np.abs(num / den)) / (3.0 * np.pi * tau)


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
        self.tau = np.pi * (np.arange(self.n + 1) / self.n) ** self.grading
        self.gauss = _gauss_rule(_GAUSS_ORDER)
        self._weights = None
        self._trapz = None

    # -- quadrature weights -------------------------------------------------------

    def _element_contribution(self, theta_rows: np.ndarray, a: float, b: float,
                              nodes: np.ndarray, wts: np.ndarray):
        """Weights of the two hat functions on [a, b] for all rows."""
        q = kernel_q(theta_rows[:, None], nodes[None, :])
        lam_right = (nodes - a) / (b - a)
        w_left = q @ (wts * (1.0 - lam_right))
        w_right = q @ (wts * lam_right)
        return w_left, w_right

    def _plain_nodes(self, a: float, b: float):
        g, w = self.gauss
        return a + (b - a) * g, (b - a) * w

    def _refined_nodes(self, a: float, b: float, singular_at_b: bool):
        panels = _dyadic_panels(a, b, singular_at_b, _DYADIC_LEVELS)
        g, w = self.gauss
        widths = np.diff(panels)
        nodes = (panels[:-1, None] + widths[:, None] * g[None, :]).ravel()
        wts = (widths[:, None] * w[None, :]).ravel()
        return nodes, wts

    @property
    def weights(self) -> np.ndarray:
        """W[i, j] with Phi(theta_i) = sum_j W[i, j] rho(tau_j)."""
        if self._weights is not None:
            return self._weights
        n = self.n
        tau = self.tau
        rows = tau[1:n]  # collocation points theta_1 .. theta_{n-1}
        w = np.zeros((n - 1, n + 1))
        for j in range(n):
            a, b = tau[j], tau[j + 1]
            nodes, wts = self._plain_nodes(a, b)
            w_left, w_right = self._element_contribution(rows, a, b, nodes, wts)
            w[:, j] += w_left
            w[:, j + 1] += w_right
        # rows adjacent to an element endpoint see the log singularity:
        # redo those two elements with dyadic refinement toward theta_i
        for i in range(1, n):
            r = tau[i:i + 1]
            for j, toward_b in ((i - 1, True), (i, False)):
                if not 0 <= j < n:
                    continue
                a, b = tau[j], tau[j + 1]
                nodes, wts = self._plain_nodes(a, b)
                old_l, old_r = self._element_contribution(r, a, b, nodes, wts)
                nodes, wts = self._refined_nodes(a, b, toward_b)
                new_l, new_r = self._element_contribution(r, a, b, nodes, wts)
                w[i - 1, j] += new_l[0] - old_l[0]
                w[i - 1, j + 1] += new_r[0] - old_r[0]
        self._weights = w
        return w

    @property
    def trapz(self) -> np.ndarray:
        """Cumulative trapezoid matrix: I = T sin(Phi) at nodes 1..n.

        The first cell treats sin Phi as constant at its tau_1 value, i.e.
        the crest limit is extrapolated from the first node.
        """
        if self._trapz is not None:
            return self._trapz
        n = self.n
        d = np.diff(self.tau)  # cell widths, d[0] = tau_1
        i_idx = np.arange(1, n + 1)[:, None]
        m_idx = np.arange(1, n + 1)[None, :]
        t = 0.5 * d[None, :] * (i_idx >= m_idx)          # upper endpoint of cell m
        t[:, :n - 1] += 0.5 * d[None, 1:] * (i_idx >= m_idx[:, :n - 1] + 1)
        t[:, 0] += 0.5 * d[0]                            # first cell uses s_0 := s_1
        self._trapz = t
        return t

    # -- nonlinear solve ----------------------------------------------------------

    def _rho(self, phi_interior: np.ndarray, nu: float):
        """rho at all nodes and the pieces needed for the Jacobian."""
        n = self.n
        s = np.sin(np.concatenate((phi_interior, [0.0])))  # nodes 1..n
        i_vals = self.trapz @ s
        denom = nu + i_vals
        if denom.min() <= 0.0:
            raise BreakdownError("denominator lost positivity on the graded mesh")
        rho = np.empty(n + 1)
        rho[0] = 1.0 if nu == 0.0 else 0.0
        rho[1:] = self.tau[1:] * s / denom
        return rho, s, denom

    def operator(self, phi_interior: np.ndarray, nu: float) -> np.ndarray:
        rho, _, _ = self._rho(phi_interior, nu)
        return self.weights @ rho

    def solve(self, nu: float, phi0: np.ndarray | None = None,
              tol: float = 1e-11, max_iter: int = 60) -> GradedSolution:
        """Solution at fixed nu (nu = 0 is the extreme equation) by the
        damped Newton loop the spectral solver shares, with a dense
        Jacobian step."""
        n = self.n
        if phi0 is None:
            phi = (np.pi / 6.0) * (1.0 - self.tau[1:n] / np.pi)
        else:
            phi = phi0.copy()
        tau_in = self.tau[1:n]

        def dense_step(phi, f):
            _, s, denom = self._rho(phi, nu)
            cos_phi = np.cos(phi)
            d_in = denom[:n - 1]
            # d rho_i / d phi_m for interior i, m
            core = (-(tau_in * s[:n - 1] / d_in**2)[:, None]
                    * self.trapz[:n - 1, :n - 1] * cos_phi[None, :])
            core[np.diag_indices(n - 1)] += tau_in * cos_phi / d_in
            # only the interior rho columns vary; 0 and n are fixed
            jac = -self.weights[:, 1:n] @ core
            jac[np.diag_indices(n - 1)] += 1.0
            return _linalg.solve(jac, f)

        phi, res, iterations = _newton(lambda phi: phi - self.operator(phi, nu),
                                       dense_step, phi, tol, max_iter)
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
