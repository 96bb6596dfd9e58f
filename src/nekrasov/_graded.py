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
longer square integrable.  Newton steps by the spectral solver's restarted
GMRES on a matrix-free Jacobian, whose matvec costs one O(N^2) product with
the weight matrix.

The weight matrix is assembled once per mesh in O(N^2) time, with scratch
of O(N) values per cluster besides W.  The elements are taken in clusters of
_CLUSTER.  The far field, rows at least _FAR_DISTANCE cluster lengths from
the kernel's singular points, interpolates the kernel at _CHEB_NODES
Chebyshev nodes per cluster: N^2/2 log1p in all and one small matrix product
per cluster, against 10 N^2 log1p for the Gauss rule at every pair.  The
near field, a share of the (row, element) pairs that shrinks like 1/N (28%
at N = 600, 7% at N = 2400 for grading 3), takes the 10-point Gauss rule
node by node.  Two kinds of pair take one batched, dyadically refined pass
instead: an element and the row at either of its ends, where Q has its log
singularity, and an element that is steep next to a row's node, wider than
_STEEP times its gap to it, where the plain Gauss rule would be off by up
to 2.6e-8 of the row maximum (N = 120, grading 4.5).  The pass splits -log s
off the singular pairs' innermost panel and integrates it by a product rule
(_log_weights), so it uses 40 nodes for most singular pairs and at most 100
at grading 4.5, 150 per row in all; plain dyadic panels down to rounding
would need 500 per singular pair.

Cold-process medians of 7 on a 2-vCPU Xeon (numpy 2.4.6, one BLAS thread),
at N = 600 / 1200 / 2400 and grading 3: the refined pass takes 3.9 / 7.3 /
11.8 ms, and the rest of the assembly 24 / 46 / 114 ms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import BreakdownError, JacobianOperator, _krylov_step, _newton

# Gauss-Legendre points per panel
_GAUSS_ORDER = 10
# A (row, element) pair whose element is wider than _STEEP times its distance
# to the row's node takes dyadic panels toward that node
_STEEP = 0.8
# The node-by-node parts of the weight assembly work on blocks of at most
# _BLOCK_ENTRIES float64 values (512 KB, so a block stays in cache)
_BLOCK_ENTRIES = 1 << 16
# The far field takes the elements in clusters of _CLUSTER and interpolates
# the kernel at _CHEB_NODES Chebyshev nodes per cluster, for the rows at
# least _FAR_DISTANCE cluster lengths from the kernel's singular points
_CLUSTER = 32
_CHEB_NODES = 16
_FAR_DISTANCE = 2.0


def _gauss_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def _log_weights(g: np.ndarray, gw: np.ndarray) -> np.ndarray:
    """Weights w_k at the Gauss nodes g_k on [0, 1] with sum_k w_k p(g_k) =
    Int_0^1 -log(s) p(s) ds for every polynomial p of degree below g.size.

    In the shifted Legendre basis P_j(2s - 1), p has the coefficients
    c_j = (2j + 1) sum_k gw_k P_j(2 g_k - 1) p(g_k), since the Gauss rule is
    exact for the products, and the log moments are mu_0 = 1 and
    mu_j = (-1)^j / (j (j + 1)), so w_k = gw_k sum_j (2j + 1) mu_j P_j(2 g_k - 1).
    """
    j = np.arange(1, g.size)
    moments = np.concatenate(([1.0], (-1.0) ** j / (j * (j + 1.0))))
    basis = np.polynomial.legendre.legvander(2.0 * g - 1.0, g.size - 1)
    return gw * (basis @ ((2 * np.arange(g.size) + 1) * moments))


def _dyadic_rule(g: np.ndarray, gw: np.ndarray, levels: int):
    """Nodes and weights on [0, 1] of the Gauss rule on each of the panels
    [0, 2^-levels], [2^-levels, 2^(1 - levels)], ..., [1/2, 1]."""
    ends = np.concatenate(([0.0], 2.0 ** np.arange(-levels, 1)))
    width = np.diff(ends)
    return (ends[:-1, None] + width[:, None] * g).ravel(), (width[:, None] * gw).ravel()


def _cluster_moments(x: np.ndarray, y: np.ndarray, bary: np.ndarray,
                     hats: np.ndarray) -> np.ndarray:
    """M[k, j] = sum over a cluster's elements and Gauss nodes of
    l_k(x) hat_j(x) times the Gauss weight, for the Lagrange basis l_k at
    the nodes y with barycentric weights bary; x is (element, node) and hats
    (element, hat, node) carries the weighted hat values."""
    basis = bary / (x[..., None] - y)  # (element, node, k)
    basis /= basis.sum(axis=-1, keepdims=True)
    terms = np.einsum("emk,esm->kes", basis, hats)
    moments = np.zeros((y.size, x.shape[0] + 1))
    moments[:, :-1] += terms[..., 0]
    moments[:, 1:] += terms[..., 1]
    return moments


def cumulative_trapezoid(widths: np.ndarray, s: np.ndarray,
                         first_cell: float = 1.0) -> np.ndarray:
    """Int_0^tau s at nodes 1..m from s at nodes 1..m, on cells of the given
    widths (widths[0] = tau_1, m <= widths.size).

    The first cell is first_cell * tau_1 * s(tau_1): 1 treats s as constant
    there (the crest limit is extrapolated from the first node), 1.5 is
    exact for s ~ tau^(-1/3).
    """
    cells = np.empty(s.size)
    cells[0] = first_cell * widths[0] * s[0]
    cells[1:] = 0.5 * widths[1:s.size] * (s[:-1] + s[1:])
    return np.cumsum(cells)


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

    def _refined_pairs(self) -> list:
        """The (row, element) pairs of the refined pass, as a list of
        (side, rows, elements, gaps): side is +1 for elements right of the
        row's node and -1 for those left of it, and gap is the distance from
        the node to the element's near end.

        The first entry on each side holds the element that ends at the node
        (gap 0, the log singularity).  The further entries, one per offset,
        hold the steep pairs, whose element is wider than _STEEP times its
        gap.  The search stops at the first offset with no steep pair; on the
        power mesh, gradings 0.1 to 8, that leaves none out.
        """
        n, tau, h = self.n, self.tau, self.widths
        node = np.arange(1, n)  # row r holds tau_{r+1}
        pairs = []
        for side in (1, -1):
            offset = 0
            while True:
                elem = node + offset if side > 0 else node - 1 - offset
                row = np.flatnonzero((elem >= 0) & (elem < n))
                elem = elem[row]
                gap = side * (tau[elem + (side < 0)] - tau[row + 1])
                if offset:
                    steep = h[elem] > _STEEP * gap
                    if not steep.any():
                        break
                    row, elem, gap = row[steep], elem[steep], gap[steep]
                pairs.append((side, row, elem, gap))
                offset += 1
        return pairs

    def _regular_weights(self, pairs: list) -> np.ndarray:
        """W from the 10-point Gauss rule on every element, interpolated in
        the far field, with zeros for the refined pairs.

        For theta = tau_i and a point x,

            3 pi x Q = log1p(2m / |sin((theta - x)/2)|),
            m = min(sin(theta/2) cos(x/2), cos(theta/2) sin(x/2)),

        since Q's numerator exceeds |sin((theta - x)/2)| by 2m.  Q(theta, .)
        is analytic except at x = theta and x = -theta (mod 2 pi), so the
        elements are taken in clusters of _CLUSTER.  A row at least
        _FAR_DISTANCE cluster lengths L from both points is far: there Q is
        interpolated at _CHEB_NODES first-kind Chebyshev nodes y_k on the
        cluster (its Bernstein ellipse has rho = 9.9, so the error is near
        rho^-16 ~ 1e-16 of Q), and the far rows of the cluster take

            W[rows, cluster columns] += F @ M,
            F[r, k] = Q(theta_r, y_k) = log1p(2 min(a, b) / |a - b|) / (3 pi y_k),
            M[k, j] = Gauss rule of l_k times hat j over the cluster,

        with l_k the Lagrange basis at the y_k, a = 2 sin(theta/2) cos(y/2)
        and b = 2 cos(theta/2) sin(y/2): 2m = min(a, b) and a - b =
        2 sin((theta - y)/2), so F takes no sine of its own.  The far rows lie
        at least 2L from y, so the subtraction loses at most about a digit.
        They are at most two runs, below and above the cluster.  The near
        rows, within a few cluster lengths, take the Gauss rule node by node,
        with theta - x split as (theta - tau_j) - h_j g so that it keeps its
        relative precision next to the element, in blocks of at most
        _BLOCK_ENTRIES values.
        """
        n, tau, h = self.n, self.tau, self.widths
        g, gw = self.gauss
        refined_row = np.concatenate([row for _, row, _, _ in pairs])
        refined_elem = np.concatenate([elem for _, _, elem, _ in pairs])
        order = np.argsort(refined_elem, kind="stable")
        refined_row, refined_elem = refined_row[order], refined_elem[order]
        rows = tau[1:n]
        sin_row, cos_row = 2.0 * np.sin(0.5 * rows), 2.0 * np.cos(0.5 * rows)
        x = tau[:-1, None] + h[:, None] * g  # (element, node)
        half_b = 0.5 * h[:, None] * g
        sin_b, cos_b = np.sin(half_b), np.cos(half_b)
        sin_x, cos_x = np.sin(0.5 * x), np.cos(0.5 * x)
        # the hats take the exact Gauss abscissae g: from the rounded x they
        # would be off by eps x / h, up to 1e-13 far from the crest
        mass = h[:, None] * gw
        hats = np.stack((mass * (1.0 - g), mass * g), axis=1)  # (element, hat, node)
        near_hats = hats / (3.0 * np.pi * x[:, None, :])
        k = np.arange(_CHEB_NODES)
        cheb = np.cos((2 * k + 1) * np.pi / (2 * _CHEB_NODES))
        bary = (-1.0) ** k * np.sin((2 * k + 1) * np.pi / (2 * _CHEB_NODES))
        w = np.zeros((n - 1, n + 1))
        for c0 in range(0, n, _CLUSTER):
            c1 = min(c0 + _CLUSTER, n)
            e = slice(c0, c1)
            reach = _FAR_DISTANCE * (tau[c1] - tau[c0])
            # far rows: [lo, mid) below the cluster and [hi, n - 1) above it
            lo = np.searchsorted(rows, reach - tau[c0])
            mid = max(lo, np.searchsorted(rows, tau[c0] - reach, side="right"))
            hi = np.searchsorted(rows, tau[c1] + reach)
            if lo < mid or hi < n - 1:
                y = tau[c0] + 0.5 * (tau[c1] - tau[c0]) * (1.0 + cheb)
                moments = _cluster_moments(x[e], y, bary, hats[e])
                sin_y, cos_y = np.sin(0.5 * y), np.cos(0.5 * y)
                for r in (slice(lo, mid), slice(hi, n - 1)):
                    a = sin_row[r, None] * cos_y
                    b = cos_row[r, None] * sin_y
                    f = np.minimum(a, b)
                    a -= b
                    np.abs(a, out=a)
                    f /= a
                    f += f
                    np.log1p(f, out=f)
                    f /= 3.0 * np.pi * y
                    w[r, c0:c1 + 1] += f @ moments
            step = max(1, _BLOCK_ENTRIES // ((c1 - c0) * g.size))
            s0, s1 = np.searchsorted(refined_elem, (c0, c1))
            skip_row, skip_elem = refined_row[s0:s1], refined_elem[s0:s1] - c0
            for r0, r1 in ((0, lo), (mid, hi)):
                for start in range(r0, r1, step):
                    r = slice(start, min(start + step, r1))
                    half_a = 0.5 * (rows[r] - tau[e, None])  # (element, row)
                    sin_a, cos_a = np.sin(half_a)[:, None], np.cos(half_a)[:, None]
                    arg = np.minimum(sin_row[r] * cos_x[e, :, None],
                                     cos_row[r] * sin_x[e, :, None])
                    arg /= np.abs(sin_a * cos_b[e, :, None] - cos_a * sin_b[e, :, None])
                    hit = (skip_row >= r.start) & (skip_row < r.stop)
                    arg[skip_elem[hit], :, skip_row[hit] - r.start] = 0.0
                    np.log1p(arg, out=arg)
                    terms = np.einsum("emr,esm->esr", arg, near_hats[e])
                    w[r, e] += terms[:, 0].T
                    w[r, c0 + 1:c1 + 1] += terms[:, 1].T
        return w

    def _add_near_singular(self, w: np.ndarray, pairs: list) -> None:
        """Add the dyadically refined rule for the refined pairs, in blocks
        of pairs that share a side and a number of levels L.

        The panels halve toward the element's near end, down to an innermost
        panel [0, delta] with delta = 2^-L h, and each node x lies at the
        exact fraction lam of the element width h from that end, at distance
        D = gap + lam h from theta.  In the log1p form of _regular_weights,
        3 pi x Q = log1p(2m / sin(D/2)) with

            2m / sin(D/2) = sin(theta) / tan(D/2) - 2 sin^2(theta/2)     (x > theta),
                          = 2 cos(theta/2) sin(x/2) / sin(D/2)           (x < theta),

        the first from cos(x/2) = cos((theta + D)/2), which the rounded x
        would lose next to pi, and the second with x measured from the
        element's left end, which keeps it relative to x on element 0.

        A steep pair takes L = ceil(log2(2 h / gap)) + 1, so every panel is
        at least its own width from theta, and the plain Gauss rule on each:
        30 or 40 nodes.  A pair whose element ends at theta (gap 0) takes
        L = max(3, ceil(log2(16 h / theta))), so delta <= theta/16 and
        delta <= h/8.  With d = delta s on the innermost panel,

            3 pi x Q = -log d + log sin(theta +- d/2) - log(sin(d/2) / d)
                     = -log s + log(s (1 + 2m / sin(d/2))),

        whose second part is smooth on the panel: its singular points, and
        the pole of 1/x, lie at least 15 delta beyond it.  It takes the Gauss
        rule, and -log s times the smooth rest the product rule _log_weights
        at the same nodes, exact for -log s times a polynomial of degree 9.
        L = 3, or 40 nodes, serves all but the first few rows; the steepest
        pair, row 0 with the element right of it, takes 80 nodes at grading
        3 and 100 at grading 4.5.
        """
        tau, h = self.tau, self.widths
        g, gw = self.gauss
        log_w = _log_weights(g, gw)
        for side, row, elem, gap in pairs:
            theta, width = tau[row + 1], h[elem]
            singular = not gap.any()
            if singular:
                levels = np.maximum(3, np.ceil(np.log2(16.0 * width / theta)))
            else:
                levels = np.ceil(np.log2(2.0 * width / gap)) + 1
            for level in np.unique(levels).astype(int):
                group = np.flatnonzero(levels == level)
                lam, mass = _dyadic_rule(g, gw, level)
                frac = lam if side > 0 else 1.0 - lam  # from the element's left end
                hats = np.stack((1.0 - frac, frac), axis=1)
                log_mass = np.zeros(lam.size)
                if singular:
                    log_mass[:g.size] = 2.0 ** -level * log_w
                per_block = max(1, _BLOCK_ENTRIES // lam.size)
                for start in range(0, group.size, per_block):
                    p = group[start:start + per_block]
                    t, b = theta[p, None], width[p, None]
                    x = tau[elem[p], None] + b * frac
                    half_d = 0.5 * (gap[p, None] + b * lam)
                    if side > 0:
                        q = np.sin(t) / np.tan(half_d) - 2.0 * np.sin(0.5 * t) ** 2
                    else:
                        q = np.cos(0.5 * t) * np.sin(0.5 * x) / (0.5 * np.sin(half_d))
                    if singular:
                        inner = q[:, :g.size]
                        inner += 1.0
                        inner *= g
                        np.log(inner, out=inner)
                        np.log1p(q[:, g.size:], out=q[:, g.size:])
                    else:
                        np.log1p(q, out=q)
                    q *= mass
                    q += log_mass
                    q *= b / (3.0 * np.pi * x)
                    left, right = (q @ hats).T
                    w[row[p], elem[p]] += left
                    w[row[p], elem[p] + 1] += right

    @property
    def weights(self) -> np.ndarray:
        """W[i, j] with Phi(theta_i) = sum_j W[i, j] rho(tau_j), built once
        and read-only; the pairs of a row and an element that ends at the
        row's node, or that is steep next to it, take a dyadically refined
        rule instead of the plain Gauss rule."""
        if self._weights is None:
            pairs = self._refined_pairs()
            w = self._regular_weights(pairs)
            self._add_near_singular(w, pairs)
            w.setflags(write=False)
            self._weights = w
        return self._weights

    # -- nonlinear solve ----------------------------------------------------------

    def _rho(self, phi_interior: np.ndarray, nu: float):
        """rho at all nodes and the pieces needed for the Jacobian."""
        n = self.n
        s = np.sin(np.concatenate((phi_interior, [0.0])))  # nodes 1..n
        denom = nu + cumulative_trapezoid(self.widths, s)
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
        JacobianOperator; each matvec is one O(N^2) weight product."""
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
            inner = cumulative_trapezoid(self.widths, cos_phi * v)
            return v - w_in @ (a * v - b * inner)

        return JacobianOperator((n - 1, n - 1), matvec)

    def solve(self, nu: float, phi0: np.ndarray | None = None,
              tol: float = 1e-11, max_iter: int = 60) -> GradedSolution:
        """Solution at fixed nu (nu = 0 is the extreme equation) by the
        damped Newton loop and the restarted-GMRES step the spectral solver
        shares, on the matrix-free jacobian_operator."""
        if not tol > 0:
            raise ValueError(f"tol must be positive, got {tol}")
        if phi0 is None:
            phi = (np.pi / 6.0) * (1.0 - self.tau[1:self.n] / np.pi)
        else:
            phi = phi0.copy()
        phi, res, iterations = _newton(
            lambda phi: phi - self.operator(phi, nu),
            lambda phi, f, target: _krylov_step(self.jacobian_operator(phi, nu), f, target),
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
