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
of about _BLOCK_ENTRIES values per batch besides W.  The elements form a
binary cluster tree, in the sense of the H-matrix partition (Hackbusch,
Computing 62, 1999): leaves of _CLUSTER elements, and clusters twice as
long on each level up.  A row at least _FAR_DISTANCE cluster lengths from
the kernel's singular points is far from the cluster and from every
cluster below it.  So each row meets each element once, in the highest
cluster far from the row, where it takes the kernel interpolated at the
cluster's _CHEB_NODES Chebyshev nodes.  Such a row lies within a few
lengths of the cluster's parent, so every level takes about 5 rows per
element, or 80 N kernel values: 1.1M in all at N = 2400 (grading 3).
The leaves' interpolation moments come from the Gauss rule, and every
other cluster's from its children's, exactly, a whole level at once.
Only the rows within two leaf lengths of a leaf, 1.7% of the (row,
element) pairs at N = 2400 (6.8% at N = 600), take the 10-point Gauss
rule: 0.96M log1p at N = 2400.

W stays dense: a solve takes about 18 products with it, Newton's residuals
and Jacobian matvecs, each one BLAS call.  So the tree serves the assembly
only, and the fill of W keeps its 16 multiply-adds per far entry.

Two kinds of pair take one batched, dyadically refined pass instead of the
Gauss rule: an element and the row at either of its ends, where Q has its
log singularity, and an element that is steep next to a row's node, wider
than _STEEP times its gap to it, where the plain Gauss rule would be off by
up to 2.6e-8 of the row maximum (N = 120, grading 4.5).  The pass splits
-log s off the singular pairs' innermost panel and integrates it by a
product rule (_log_weights), so it uses 40 nodes for most singular pairs and
at most 100 at grading 4.5, 150 per row in all.
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
# The batched parts of the weight assembly work on blocks of at most
# _BLOCK_ENTRIES float64 values (512 KB, so a block stays in cache)
_BLOCK_ENTRIES = 1 << 16
# The far field takes a binary cluster tree over the elements, with leaves of
# at most _CLUSTER elements, and interpolates the kernel at _CHEB_NODES
# Chebyshev nodes per cluster, for the rows at least _FAR_DISTANCE cluster
# lengths from the kernel's singular points
_CLUSTER = 8
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


def _expand_runs(starts: np.ndarray, stops: np.ndarray):
    """The integers of the runs [starts[i], stops[i]), run after run, and
    the index i of the run each one comes from."""
    counts = np.maximum(stops - starts, 0)
    run = np.repeat(np.arange(counts.size), counts)
    return np.arange(run.size) + (starts - np.cumsum(counts) + counts)[run], run


def _add_cluster_blocks(w: np.ndarray, row: np.ndarray, cluster: np.ndarray,
                        blocks: np.ndarray, size: int) -> None:
    """w[row, cluster size + j] += blocks[..., j] for j = 0, ..., size, for
    clusters of size elements; row and cluster broadcast against
    blocks[..., 0].

    Columns strictly inside a cluster take contributions from its elements
    alone, so a (row, cluster) pair sets them rather than adding, which
    halves the memory traffic.  The pairs must be distinct, except in the
    spare last row of w, which the caller discards.
    """
    full = (w.shape[1] - 1) // size
    inside = w[:, 1:full * size + 1].reshape(w.shape[0], full, size)[..., :-1]
    inside[row, cluster] = blocks[..., 1:-1]
    w[row, cluster * size] += blocks[..., 0]
    w[row, (cluster + 1) * size] += blocks[..., -1]


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
        if not (isinstance(n_nodes, (int, np.integer)) and n_nodes >= 2):
            raise ValueError(f"n_nodes must be an integer of at least 2, got {n_nodes!r}")
        self.n = int(n_nodes)
        self.grading = float(grading)
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
        the far field of a cluster tree, with zeros for the refined pairs.

        For theta = tau_i and a point x,

            3 pi x Q = log1p(2m / |sin((theta - x)/2)|),
            m = min(sin(theta/2) cos(x/2), cos(theta/2) sin(x/2)),

        since Q's numerator exceeds |sin((theta - x)/2)| by 2m.  Q(theta, .)
        is analytic except at x = theta and x = -theta (mod 2 pi), so the
        elements are taken in a binary cluster tree: level l has clusters of
        _CLUSTER 2^l consecutive elements (the last one shorter), and
        cluster k has the parent k // 2 on level l + 1.  A row at least
        _FAR_DISTANCE cluster lengths L from both points is far from the
        cluster, and then from every cluster below it.  So each row meets
        each element in the highest cluster that is far from the row
        (_add_far_field), or in its leaf if none is (_add_near_field).
        """
        n, tau, h = self.n, self.tau, self.widths
        g, gw = self.gauss
        rows = tau[1:n]
        x = tau[:-1, None] + h[:, None] * g  # (element, node)
        # the hats take the exact Gauss abscissae g: from the rounded x they
        # would be off by eps x / h, up to 1e-13 far from the crest
        mass = h[:, None] * gw
        hats = np.stack((mass * (1.0 - g), mass * g), axis=1)  # (element, hat, node)
        # per level: the cluster size, the clusters' elements [start, stop),
        # and their far rows, [lo, mid) below and [hi, n - 1) above them
        levels = []
        size = _CLUSTER
        while True:
            start = np.arange(0, n, size)
            stop = np.minimum(start + size, n)
            reach = _FAR_DISTANCE * (tau[stop] - tau[start])
            lo = np.searchsorted(rows, reach - tau[start])
            mid = np.maximum(lo, np.searchsorted(rows, tau[start] - reach, side="right"))
            hi = np.searchsorted(rows, tau[stop] + reach)
            levels.append((size, start, stop, lo, mid, hi))
            if start.size == 1:
                break
            size *= 2
        # a spare last row, at theta = pi, takes the padding of the batches
        w = np.zeros((n, n + 1))
        self._add_near_field(w, pairs, levels[0], x, hats)
        self._add_far_field(w, levels, x, hats)
        return w[:-1]

    def _add_near_field(self, w: np.ndarray, pairs: list, leaves: tuple,
                        x: np.ndarray, hats: np.ndarray) -> None:
        """Add the Gauss rule for the rows that are not far from their leaf,
        except for the refined pairs.

        A leaf's near rows form one run: where a row is near the leaf's
        mirror image (theta + tau_start < 2L), the leaf starts below 2L, so
        no row below it is far.  The leaves are taken in batches of at most
        _BLOCK_ENTRIES Gauss node values, their runs padded to the longest
        among them.  theta - x is split as (theta - tau_j) - h_j g, so that
        it keeps its relative precision next to the element: with
        a = (theta - tau_j)/2 and b = h_j g/2,

            sin((theta - x)/2) = cos(a) cos(b) (tan(a) - tan(b)),

        and the two cosines divide the row's and the Gauss node's factors
        of 2m.
        """
        n, tau, h = self.n, self.tau, self.widths
        g = self.gauss[0]
        theta = tau[1:]
        _, start, _, lo, mid, hi = leaves
        first = np.where(lo > 0, 0, mid)
        count = hi - first
        leaf_count, pad = start.size, start.size * _CLUSTER - n

        def per_leaf(a):
            """a per element as (leaf, element, ...), the last leaf padded
            with copies of the last element."""
            a = np.concatenate((a, np.repeat(a[-1:], pad, axis=0)))
            return a.reshape(leaf_count, _CLUSTER, *a.shape[1:])

        half_b = 0.5 * h[:, None] * g
        cos_b = np.cos(half_b)
        tan_b = per_leaf(np.tan(half_b))
        x_cos = per_leaf(np.cos(0.5 * x) / cos_b)
        x_sin = per_leaf(np.sin(0.5 * x) / cos_b)
        left_end = per_leaf(tau[:-1])
        # the padding elements carry no mass
        near_hats = per_leaf(hats / (3.0 * np.pi * x[:, None, :]))
        near_hats.reshape(-1, *hats.shape[1:])[n:] = 0.0
        row_sin, row_cos = 2.0 * np.sin(0.5 * theta), 2.0 * np.cos(0.5 * theta)
        refined_row = np.concatenate([row for _, row, _, _ in pairs])
        refined_elem = np.concatenate([elem for _, _, elem, _ in pairs])
        order = np.argsort(refined_elem, kind="stable")
        refined_row, refined_elem = refined_row[order], refined_elem[order]
        full = n // _CLUSTER  # the leaves of _CLUSTER elements
        step = max(1, _BLOCK_ENTRIES // (count.max() * _CLUSTER * g.size))
        batches = [slice(k0, min(k0 + step, full)) for k0 in range(0, full, step)]
        if full < leaf_count:
            batches.append(slice(full, leaf_count))
        for k in batches:
            slot = np.arange(count[k].max())
            r = np.where(slot < count[k, None], first[k, None] + slot, n - 1)  # (leaf, row)
            # (leaf, element, row), then (leaf, element, Gauss node, row)
            half_a = 0.5 * (theta[r][:, None, :] - left_end[k, :, None])
            cos_a = np.cos(half_a)
            arg = np.minimum((row_sin[r][:, None] / cos_a)[:, :, None] * x_cos[k, ..., None],
                             (row_cos[r][:, None] / cos_a)[:, :, None] * x_sin[k, ..., None])
            gap = np.tan(half_a)[:, :, None] - tan_b[k, ..., None]
            np.abs(gap, out=gap)
            arg /= gap
            s0, s1 = np.searchsorted(refined_elem, (k.start * _CLUSTER, k.stop * _CLUSTER))
            skip_leaf, skip_elem = np.divmod(refined_elem[s0:s1], _CLUSTER)
            arg[skip_leaf - k.start, skip_elem, :, refined_row[s0:s1] - first[skip_leaf]] = 0.0
            np.log1p(arg, out=arg)
            terms = near_hats[k] @ arg  # (leaf, element, hat, row)
            blocks = np.zeros((terms.shape[0], slot.size, _CLUSTER + 1))
            blocks[..., :-1] = terms[:, :, 0].transpose(0, 2, 1)
            blocks[..., 1:] += terms[:, :, 1].transpose(0, 2, 1)
            if k.start < full:
                leaf = np.arange(k.start, k.stop)[:, None]
                _add_cluster_blocks(w, r, leaf, blocks, _CLUSTER)
            else:
                w[r[0], start[-1]:] += blocks[0, :, :n + 1 - start[-1]]

    def _add_far_field(self, w: np.ndarray, levels: list, x: np.ndarray,
                       hats: np.ndarray) -> None:
        """Add the interpolated far field, level by level from the leaves.

        A cluster's Chebyshev nodes y_k are _CHEB_NODES first-kind points on
        its interval (its Bernstein ellipse has rho = 9.9 for the far rows,
        so the error is near rho^-16 ~ 1e-16 of Q).  Each row that is far
        from the cluster but not from its parent takes

            W[row, cluster columns] += F @ M,
            F[k] = 3 pi y_k Q(theta, y_k) = log1p(2 min(T, Y) / |T - Y|),
            M[k, j] = Gauss rule of l_k / (3 pi y_k) times hat j over the cluster,

        with l_k the Lagrange basis at the y_k, T = tan(theta/2) and
        Y = tan(y/2): these are 2m and 2 sin((theta - y)/2) over
        2 cos(theta/2) cos(y/2).  The far rows lie at least 2L from y, so
        T - Y loses at most about a digit.  They are at most three runs per
        cluster, since the parent's far rows below the cluster, and those
        above it, are runs inside the cluster's.

        The leaves' moments take the Gauss nodes, in batches of leaves of at
        most _BLOCK_ENTRIES basis values.  A parent's are its children's,
        mapped by the parent's l_k at the children's y, which is exact since
        l_k has degree below _CHEB_NODES, for a whole level at once.  A
        level's F @ M go in batches of clusters of at most _BLOCK_ENTRIES
        entries of W, longest row list first, each padded to the longest
        among them.  A cluster alone in its batch, as most are on the upper
        levels, writes its product into W in place.
        """
        n, tau = self.n, self.tau
        tan_row = np.tan(0.5 * tau[1:])
        q = np.arange(_CHEB_NODES)
        cheb = np.cos((2 * q + 1) * np.pi / (2 * _CHEB_NODES))
        bary = (-1.0) ** q * np.sin((2 * q + 1) * np.pi / (2 * _CHEB_NODES))
        for level, (size, start, stop, lo, mid, hi) in enumerate(levels):
            y = tau[start, None] + 0.5 * (tau[stop] - tau[start])[:, None] * (1.0 + cheb)
            if level == 0:
                # per batch of leaves, bary_k / (x - y_k) as (leaf, k, Gauss
                # node), and the hat values as (leaf, Gauss node, column)
                # over the sum over k, so that the product normalises the
                # basis; the last leaf is padded with elements of no mass
                pad = start.size * _CLUSTER - n
                x_leaf = np.concatenate((x, np.repeat(x[-1:], pad, axis=0)))
                x_leaf = x_leaf.reshape(start.size, 1, -1)
                hats_leaf = np.concatenate((hats, np.zeros((pad,) + hats.shape[1:])))
                hats_leaf = hats_leaf.reshape(start.size, _CLUSTER, 2, -1).transpose(2, 1, 0, 3)
                moments = np.empty((start.size, _CHEB_NODES, _CLUSTER + 1))
                e = np.arange(_CLUSTER)
                step = max(1, _BLOCK_ENTRIES // (_CHEB_NODES * x_leaf.shape[-1]))
                for b in (slice(b0, b0 + step) for b0 in range(0, start.size, step)):
                    basis = bary[:, None] / (x_leaf[b] - y[b, :, None])
                    mass = np.zeros((basis.shape[0], _CLUSTER, x.shape[1], _CLUSTER + 1))
                    mass[:, e, :, e] = hats_leaf[0, :, b]
                    mass[:, e, :, e + 1] = hats_leaf[1, :, b]
                    mass /= basis.sum(axis=1).reshape(*mass.shape[:3], 1)
                    moments[b] = basis @ mass.reshape(basis.shape[0], -1, _CLUSTER + 1)
            else:
                half, twins = size // 2, moments.shape[0] // 2
                parent = np.zeros((start.size, _CHEB_NODES, size + 1))
                if moments.shape[0] % 2:  # a lone last child spans its parent
                    parent[-1, :, :half + 1] = moments[-1]
                # the parent's l_k at the children's nodes, as (parent, child, k, child k)
                basis = bary / (child_y[:2 * twins].reshape(twins, 2, -1, 1) - y[:twins, None, None])
                shift = (basis / basis.sum(axis=-1, keepdims=True)).swapaxes(-1, -2)
                parent[:twins, :, :half + 1] = shift[:, 0] @ moments[0:2 * twins:2]
                parent[:twins, :, half:] += shift[:, 1] @ moments[1:2 * twins:2]
                moments = parent
            child_y = y
            # the rows far from each cluster but not from its parent: three
            # runs per cluster, in cluster order
            if level + 1 < len(levels):
                parent = np.arange(start.size) // 2
                lo_p, mid_p, hi_p = (a[parent] for a in levels[level + 1][3:])
                empty = lo_p == mid_p
                lo_p, mid_p = np.where(empty, mid, lo_p), np.where(empty, mid, mid_p)
            else:
                lo_p = mid_p = mid
                hi_p = np.full_like(hi, n - 1)
            run_start = np.stack((lo, mid_p, hi), axis=1)
            run_stop = np.stack((lo_p, mid, hi_p), axis=1)
            row, run = _expand_runs(run_start.ravel(), run_stop.ravel())
            if not row.size:
                continue
            cluster = run // 3
            counts = np.bincount(cluster, minlength=start.size)
            first = np.cumsum(counts) - counts
            full = n // size  # the clusters of size elements
            order = np.flatnonzero(counts[:full])
            order = order[np.argsort(-counts[order], kind="stable")]
            batches = []
            while order.size:
                step = max(1, _BLOCK_ENTRIES // (counts[order[0]] * (size + 1)))
                batches.append(order[:step])
                order = order[step:]
            if full < start.size and counts[-1]:
                batches.append(np.array([start.size - 1]))
            tan_y = np.tan(0.5 * y)
            moments_q = moments / (3.0 * np.pi * y[..., None])
            for k in batches:
                slot = np.arange(counts[k[0]])
                valid = slot < counts[k, None]
                r = np.where(valid, row[np.where(valid, first[k, None] + slot, 0)], n - 1)
                t = tan_row[r][:, None]
                f = np.minimum(t, tan_y[k, :, None])  # (cluster, k, row)
                t = t - tan_y[k, :, None]
                np.abs(t, out=t)
                f /= t
                f += f
                np.log1p(f, out=f)
                f = f.swapaxes(-1, -2)
                if k.size > 1:
                    _add_cluster_blocks(w, r, k[:, None], f @ moments_q[k], size)
                    continue
                k = k[0]
                c0, c1 = start[k], stop[k]
                m = moments_q[k, :, :c1 - c0 + 1]
                j = 0
                for r0, r1 in zip(run_start[k], run_stop[k]):
                    if r1 > r0:
                        part = f[0, j:j + r1 - r0]
                        np.matmul(part, m[:, 1:-1], out=w[r0:r1, c0 + 1:c1])
                        w[r0:r1, [c0, c1]] += part @ m[:, [0, -1]]
                        j += r1 - r0

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

    def solve(self, nu: float, tol: float = 1e-11) -> GradedSolution:
        """Solution at fixed nu (nu = 0 is the extreme equation) by the
        damped Newton loop and the restarted-GMRES step the spectral solver
        shares, on the matrix-free jacobian_operator.  nu = 1/mu must be
        finite and nonnegative, tol positive and finite.

        Newton starts from the corner-shaped guess (crest limit pi/6) rather
        than from a finite-nu solution: the finite-nu crest layer carries an
        exact small-angle scaling degeneracy (tau sin Phi / I is invariant
        under Phi -> a Phi where sin Phi ~ Phi) that makes the nu = 0
        Jacobian singular along layer modes, while at the true corner
        solution the Jacobian is well conditioned.
        """
        if not (np.isfinite(nu) and nu >= 0.0):
            raise ValueError(f"nu must be finite and nonnegative, got {nu}")
        if not 0 < tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {tol}")
        phi = (np.pi / 6.0) * (1.0 - self.tau[1:self.n] / np.pi)
        phi, res, iterations = _newton(
            lambda phi: phi - self.operator(phi, nu),
            lambda phi, f, target: _krylov_step(self.jacobian_operator(phi, nu), f, target),
            phi, tol)
        # report the crest limit rather than the hard zero of the odd extension
        phi = np.concatenate(([phi[0]], phi, [0.0]))
        return GradedSolution(theta=self.tau.copy(), phi=phi, nu=nu,
                              residual=res, iterations=iterations)
