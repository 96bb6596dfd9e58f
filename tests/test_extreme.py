import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nekrasov as nk
from nekrasov import _graded, continuation
from nekrasov._graded import GradedCollocation
from nekrasov.solver import _seeded_guess


def kernel_q(theta: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Q(theta, tau) = 2 K(theta, tau) / tau for the deep-water kernel K, the
    reference for the graded weights; tau must avoid 0, and theta = +-tau
    raises SingularEvaluationError."""
    return 2.0 * nk.kernel_deep_closed(theta, tau) / tau


class TestGrantNumber:
    def test_value(self):
        assert nk.grant_number(1e-12) == pytest.approx(0.802679, abs=1e-6)

    def test_defining_equation(self):
        beta = nk.grant_number(1e-9)
        assert abs(math.sqrt(3) * (1 + beta) - math.tan(math.pi * beta / 2)) < 1e-5

    def test_bracket_sign_change(self):
        h = lambda b: (math.sqrt(3) * (1 + b) * math.cos(math.pi * b / 2)
                       - math.sin(math.pi * b / 2))
        assert h(0.0) > 0
        assert h(1.0 - 1e-9) < 0

    def test_validation(self):
        with pytest.raises(ValueError):
            nk.grant_number(-1e-6)
        # an infinite tol would stop the bisection at once, at 0.5
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            nk.grant_number(math.inf)


class TestConstantSolution:
    def test_deviation_small_at_default_truncation(self):
        rep = nk.verify_constant_solution((1.0,), 1e4)
        assert rep.max_deviation < 1e-3
        assert rep.max_deviation <= rep.tail_bound

    def test_deviation_shrinks_with_truncation(self):
        d3 = nk.verify_constant_solution((1.0,), 1e3).max_deviation
        d5 = nk.verify_constant_solution((1.0,), 1e5).max_deviation
        assert d5 < d3 / 50.0

    def test_import_leaves_scipy_integrate_out(self):
        """`import nekrasov` loads neither scipy.integrate nor scipy.linalg:
        verify_constant_solution and the Krylov step use the package's own
        quadrature and back substitution."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        code = ("import sys, nekrasov\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m.startswith(('scipy.integrate', 'scipy.linalg'))))\n")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_deviations_match_mpmath(self):
        rep = nk.verify_constant_solution((0.3, 1.0, 3.0), 1e4)
        with mpmath.workdps(30):
            for theta, deviation in zip(rep.theta_samples, rep.deviations):
                value = mpmath.quad(lambda s: mpmath.log((1 + s) / abs(1 - s)) / s,
                                    [0, 1, 2, 1e4 / theta]) / (3 * mpmath.pi)
                assert deviation == pytest.approx(float(abs(value - mpmath.pi / 6)),
                                                  rel=0.0, abs=1e-13)

    def test_scale_invariance(self):
        a = nk.verify_constant_solution((1.0,), 1e4).max_deviation
        b = nk.verify_constant_solution((2.0,), 2e4).max_deviation
        assert a == pytest.approx(b, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            nk.verify_constant_solution((2000.0,), 1e4)


class TestGradedCollocation:
    def test_quadrature_weights_against_quad(self):
        # integrate a known bounded density: rho = 1 gives
        # Phi(theta) = Int_0^pi Q(theta, tau) dtau.  The reference splits
        # [0, pi] at theta 2^k: at the first rows of a steep mesh theta is
        # ~1e-8, and one quad call over [0, pi] misses half the integral.
        from scipy import integrate
        for grading, rows in ((3.0, (20, 60, 100)), (1.0, (0, 1, 118)),
                              (4.0, (0, 1, 118))):
            eng = GradedCollocation(n_nodes=120, grading=grading)
            got = eng.weights @ np.ones(eng.n + 1)
            for idx in rows:
                theta = eng.tau[idx + 1]
                breaks = theta * 2.0 ** np.arange(-60, 60)
                breaks = np.concatenate(([0.0], breaks[breaks < np.pi], [np.pi]))
                val = sum(integrate.quad(lambda t: kernel_q(np.array([theta]),
                                                            np.array([t]))[0],
                                         a, b, limit=200)[0]
                          for a, b in zip(breaks[:-1], breaks[1:]))
                assert got[idx] == pytest.approx(val, abs=2e-9), (grading, idx)

    @pytest.mark.parametrize("n_nodes, grading", [
        *((n, q) for n in (2, 3, 8, 120, 600) for q in (0.5, 1.0, 3.0, 4.5)),
        (1200, 3.0)])
    def test_weights_match_element_loop(self, n_nodes, grading):
        # n_nodes = 2 has one row, which carries both near-singular pairs;
        # at N = 1200 and grading 3, 97% of the (row, element) pairs are far,
        # on seven levels of the cluster tree
        eng = GradedCollocation(n_nodes=n_nodes, grading=grading)
        assert np.abs(eng.weights - _reference_weights(eng)).max() <= 1e-15

    @pytest.mark.parametrize("n_nodes, grading, stride", [
        (600, 0.5, 1), (600, 3.0, 1), (600, 4.5, 1), (2400, 3.0, 8)])
    def test_far_weights_match_exact_integrals(self, n_nodes, grading, stride):
        eng = GradedCollocation(n_nodes=n_nodes, grading=grading)
        assert _far_field_error(eng, stride) <= 1e-15

    def test_far_weights_near_pi_match_exact_integrals(self):
        # the last 8 nodes of each tree level at N = 2400: their far rows have
        # the largest theta / |theta - y| (about 12), where a - b in the far
        # kernel loses the most
        eng = GradedCollocation(n_nodes=2400, grading=3.0)
        assert _far_field_error(eng, 1, last=8) <= 1e-15

    @pytest.mark.parametrize("n_nodes, rows, grading", [
        (600, (0, 1, 10, 300, 519, 598), 3.0), (2400, (100, 1200, 2076, 2398), 3.0),
        (120, (0, 1, 118), 4.5)])
    def test_near_singular_weights_match_exact_integrals(self, n_nodes, rows, grading):
        # W[i, i + 1] comes from the refined pass alone: its hat peaks at the
        # row's own node tau_{i+1}, where Q is singular.  Row 0 at grading 4.5
        # takes the most dyadic levels
        eng = GradedCollocation(n_nodes=n_nodes, grading=grading)
        import mpmath
        with mpmath.workdps(30):
            for i in rows:
                exact = _exact_weight(eng.tau, eng.tau[i + 1], i + 1, method="tanh-sinh")
                row_max = np.abs(eng.weights[i]).max()
                assert abs(eng.weights[i, i + 1] - exact) <= 1e-15 * row_max, i

    @pytest.mark.parametrize("n_nodes, grading", [(120, 4.0), (120, 4.5), (600, 3.0)])
    def test_steep_neighbour_weights_match_exact_integrals(self, n_nodes, grading):
        # next to the crest an element can be several times wider than its
        # distance to the row's node; the plain Gauss rule there is off by
        # up to 2.6e-8 of the row maximum
        eng = GradedCollocation(n_nodes=n_nodes, grading=grading)
        import mpmath
        with mpmath.workdps(30):
            for i in (0, 1, 2, 5):
                row_max = np.abs(eng.weights[i]).max()
                for j in range(i + 1, i + 8):
                    exact = _exact_weight(eng.tau, eng.tau[i + 1], j, method="tanh-sinh")
                    assert abs(eng.weights[i, j] - exact) <= 1e-15 * row_max, (i, j)

    def test_log_weights_integrate_log_moments(self):
        # Int_0^1 -log(s) s^j ds = 1 / (j + 1)^2
        g, gw = _graded._gauss_rule(_graded._GAUSS_ORDER)
        w = _graded._log_weights(g, gw)
        for j in range(g.size):
            assert abs(w @ g**j - 1.0 / (j + 1) ** 2) <= 1e-15, j

    @pytest.mark.parametrize("constant, value", [("_CHEB_NODES", 12), ("_FAR_DISTANCE", 1.0)])
    def test_far_field_check_rejects_coarser_settings(self, monkeypatch, constant, value):
        # degree 12, or far rows one cluster length away, miss 1e-15; the
        # scan stops at the first sampled entry that shows it
        monkeypatch.setattr(_graded, constant, value)
        eng = GradedCollocation(n_nodes=600, grading=3.0)
        assert _far_field_error(eng, 1, stop_above=1e-15) > 1e-15

    def test_solve_matches_reference_weights(self):
        eng, ref = GradedCollocation(n_nodes=600), GradedCollocation(n_nodes=600)
        ref._weights = _reference_weights(ref)
        sol, ref_sol = eng.solve(0.0), ref.solve(0.0)
        assert sol.iterations == ref_sol.iterations
        assert np.abs(sol.phi - ref_sol.phi).max() <= 1e-14

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(2, 300), st.floats(0.5, 4.5))
    def test_weights_match_element_loop_at_any_size(self, n_nodes, grading):
        # N off the multiples of the leaf size, trees of one cluster (N <= 8)
        # and levels with no far rows.  The draws are fixed: W[0, 1] and
        # W[1, 2] of steep meshes, from the refined pass, sit up to 8.9e-16
        # from the reference's own dyadic rule
        eng = GradedCollocation(n_nodes=n_nodes, grading=grading)
        assert np.abs(eng.weights - _reference_weights(eng)).max() <= 1e-15

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 300), st.floats(0.5, 4.5))
    def test_weights_finite_and_positive(self, n_nodes, grading):
        # Q > 0 on (0, pi)^2 and the hat functions are nonnegative
        w = GradedCollocation(n_nodes=n_nodes, grading=grading).weights
        assert np.isfinite(w).all()
        assert (w > 0).all()

    @pytest.mark.parametrize("nu", [math.nan, math.inf, -1e-3])
    def test_solve_rejects_bad_nu_before_assembly(self, nu):
        eng = GradedCollocation(n_nodes=50)
        with pytest.raises(ValueError, match="nu"):
            eng.solve(nu)
        assert eng._weights is None

    def test_weights_cache_is_read_only(self):
        eng = GradedCollocation(n_nodes=8)
        with pytest.raises(ValueError):
            eng.weights[0, 0] = 1.0
        assert eng.weights is eng.weights

    def test_kernel_q_diagonal_raises(self):
        with pytest.raises(nk.SingularEvaluationError):
            kernel_q(np.array([0.5]), np.array([0.5]))

    @pytest.mark.parametrize("nu", [0.0, 1e-3])
    def test_jacobian_operator_matches_finite_differences(self, nu):
        # every column of the matrix-free Jacobian against a central
        # difference of F at the converged state
        eng = GradedCollocation(n_nodes=120)
        phi = eng.solve(nu).phi[1:-1]
        jac = eng.jacobian_operator(phi, nu)
        step = 1e-7

        def f(x):
            return x - eng.operator(x, nu)

        for unit in np.eye(phi.size):
            central = (f(phi + step * unit) - f(phi - step * unit)) / (2.0 * step)
            assert np.abs(jac.matvec(unit) - central).max() < 1e-7

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 8, 120, 600]), st.data())
    def test_cumulative_trapezoid_matches_matrix(self, n_nodes, data):
        eng = GradedCollocation(n_nodes=n_nodes)
        s = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n_nodes,
                                        max_size=n_nodes)))
        trapz = _trapz_matrix(eng.tau)
        # the summation scale; it is max|I| for a nonnegative s
        scale = (trapz @ np.abs(s)).max()
        assert np.abs(_graded.cumulative_trapezoid(eng.widths, s) - trapz @ s).max() <= 1e-13 * scale

    @pytest.mark.parametrize("n_nodes", [2, 120, 600])
    def test_cumulative_trapezoid_first_cell(self, n_nodes):
        # first_cell = 1.5 integrates tau^(-1/3) over [0, tau_1] exactly
        eng = GradedCollocation(n_nodes=n_nodes)
        tau1 = eng.tau[1]
        got = _graded.cumulative_trapezoid(eng.widths, eng.tau[1:] ** (-1.0 / 3.0),
                                           first_cell=1.5)
        assert got[0] == pytest.approx(1.5 * tau1 ** (2.0 / 3.0), rel=1e-15)

    def test_iteration_cap_raises_with_iterations(self, monkeypatch):
        monkeypatch.setattr(nk.solver, "NEWTON_MAX_ITER", 1)
        eng = GradedCollocation(n_nodes=120)
        with pytest.raises(nk.DivergenceError) as info:
            eng.solve(0.0, tol=1e-14)
        assert info.value.iterations == 1

    def test_operator_evaluated_once_per_iterate(self, monkeypatch):
        eng = GradedCollocation(n_nodes=120)
        calls = []
        operator = eng.operator
        monkeypatch.setattr(eng, "operator",
                            lambda phi, nu: calls.append(nu) or operator(phi, nu))
        sol = eng.solve(0.0)
        assert len(calls) == sol.iterations + 1

    def test_extreme_solution_properties(self, extreme_direct):
        sol = extreme_direct
        assert sol.residual < 1e-10
        assert np.all(sol.phi_samples >= 0.0)
        assert np.all(sol.phi_samples < np.pi / 3)
        assert np.abs(sol.phi_samples).max() > np.pi / 6 - 0.01

    def test_crest_limit(self, extreme_direct):
        est = nk.stokes_limit(extreme_direct)
        assert est == pytest.approx(np.pi / 6, abs=0.01)
        assert 2.0 * est == pytest.approx(np.pi / 3, abs=0.02)

    def test_resolution_consistency(self):
        # successive crest-limit estimates settle as the mesh refines
        estimates = []
        for n_nodes in (150, 300, 600):
            sol = nk.solve_extreme(n_nodes=n_nodes, tol=1e-10)
            estimates.append(nk.stokes_limit(sol, window=(1e-4, 0.2)))
        d1 = abs(estimates[1] - estimates[0])
        d2 = abs(estimates[2] - estimates[1])
        assert d2 < d1
        assert abs(estimates[-1] - np.pi / 6) < 2e-3


def _trapz_matrix(tau):
    """Reference: the dense cumulative trapezoid matrix T, I = T s at nodes
    1..n, that the graded solver multiplied by before it summed cell by cell."""
    n = tau.size - 1
    d = np.diff(tau)
    i_idx = np.arange(1, n + 1)[:, None]
    m_idx = np.arange(1, n + 1)[None, :]
    t = 0.5 * d[None, :] * (i_idx >= m_idx)
    t[:, :n - 1] += 0.5 * d[None, 1:] * (i_idx >= m_idx[:, :n - 1] + 1)
    t[:, 0] += 0.5 * d[0]
    return t


def _reference_weights(eng):
    """Reference: the per-element loop that assembled the weights before
    they were blocked, with the plain Gauss rule on each element for the
    rows away from it, a dyadically refined rule at its two endpoint rows,
    and dyadic panels toward its near end for the rows it is steep to: the
    element is wider than _STEEP times its gap to the row's node."""
    n, tau = eng.n, eng.tau
    rows = tau[1:n]
    g, gw = eng.gauss

    def contribution(theta, a, b, nodes, wts):
        q = kernel_q(theta[:, None], nodes[None, :])
        lam_right = (nodes - a) / (b - a)
        return q @ (wts * (1.0 - lam_right)), q @ (wts * lam_right)

    def refined_rule(a, b, toward_b, levels):
        # levels panels, halving toward a (or b)
        t = b - a
        pts = np.array([0.0] + [t * 2.0 ** (k - levels) for k in range(1, levels + 1)])
        if toward_b:
            pts = t - pts[::-1]
        panels = a + pts
        widths = np.diff(panels)
        return ((panels[:-1, None] + widths[:, None] * g[None, :]).ravel(),
                (widths[:, None] * gw[None, :]).ravel())

    w = np.zeros((n - 1, n + 1))
    for j in range(n):
        a, b = tau[j], tau[j + 1]
        left, right = contribution(rows, a, b, a + (b - a) * g, (b - a) * gw)
        # row k holds theta_{k+1}: theta_j = a is row j - 1, theta_{j+1} = b row j
        for k, toward_b in ((j - 1, False), (j, True)):
            if 0 <= k < n - 1:
                levels = min(50, max(4, int(np.log2((b - a) / (100.0 * np.finfo(float).eps * b)))))
                new_l, new_r = contribution(rows[k:k + 1], a, b,
                                            *refined_rule(a, b, toward_b, levels))
                left[k], right[k] = new_l[0], new_r[0]
        gap = np.maximum(a - rows, rows - b)
        for k in np.flatnonzero((gap > 0) & (b - a > _graded._STEEP * gap)):
            # L = ceil(log2(2 h / gap)) + 1 dyadic levels are L + 1 panels
            levels = int(np.ceil(np.log2(2.0 * (b - a) / gap[k]))) + 2
            new_l, new_r = contribution(rows[k:k + 1], a, b,
                                        *refined_rule(a, b, rows[k] > b, levels))
            left[k], right[k] = new_l[0], new_r[0]
        w[:, j] += left
        w[:, j + 1] += right
    return w


def _far_field_error(eng, stride, last=0, stop_above=None):
    """Largest |W[i, j] - exact| / max|W[i]| over far entries of W, against
    30-digit mpmath integrals of Q times the hat functions.  On every level
    of the cluster tree, at every stride-th node (or at the last `last`
    nodes), the nearest far row on each side is sampled, at three columns
    whose elements both lie in the node.  With `stop_above`, the first
    sampled error above it is returned at once."""
    import mpmath
    n, tau = eng.n, eng.tau
    rows = tau[1:n]
    worst = 0.0
    size = _graded._CLUSTER
    with mpmath.workdps(30):
        while True:
            nodes = [(c0, min(c0 + size, n)) for c0 in range(0, n, size)]
            for c0, c1 in nodes[-last:] if last else nodes[::stride]:
                reach = _graded._FAR_DISTANCE * (tau[c1] - tau[c0])
                far = ((np.abs(rows - np.clip(rows, tau[c0], tau[c1])) >= reach)
                       & (rows + tau[c0] >= reach))
                below = np.flatnonzero(far & (rows < tau[c0]))
                above = np.flatnonzero(far & (rows > tau[c1]))
                for i in (*below[-1:], *above[:1]):
                    for j in sorted({c0 + 1, (c0 + c1) // 2, c1 - 1} - {c0, c1}):
                        err = abs(eng.weights[i, j] - _exact_weight(tau, tau[i + 1], j))
                        worst = max(worst, err / np.abs(eng.weights[i]).max())
                        if stop_above is not None and worst > stop_above:
                            return worst
            if size >= n:
                return worst
            size *= 2


def _exact_weight(tau, theta, j, method="gauss-legendre"):
    """Int Q(theta, x) hat_j(x) dx over the two elements at node j, by
    mpmath at the working precision (tanh-sinh when theta is an endpoint)."""
    import mpmath
    theta = mpmath.mpf(theta)

    def q(x):
        return (mpmath.log(mpmath.sin((theta + x) / 2) / abs(mpmath.sin((theta - x) / 2)))
                / (3 * mpmath.pi * x))

    left, peak, right = (mpmath.mpf(t) for t in tau[j - 1:j + 2])
    rising = mpmath.quad(lambda x: q(x) * (x - left) / (peak - left), [left, peak],
                         method=method)
    falling = mpmath.quad(lambda x: q(x) * (right - x) / (right - peak), [peak, right],
                          method=method)
    return float(rising + falling)


@pytest.mark.parametrize("kwargs", [
    {"n_nodes": 0}, {"n_nodes": 1}, {"grading": 0.0}, {"grading": -1.0},
    {"grading": np.nan}, {"grading": np.inf}, {"tol": np.nan}, {"tol": -1.0},
    {"tol": 0.0}, {"n_nodes": 200.7}, {"n_nodes": 200.0}, {"n_nodes": "200"},
    # GradedCollocation.solve would hand back its corner guess, unsolved
    {"tol": np.inf}])
def test_direct_rejects_ill_posed_input(kwargs):
    with pytest.raises(ValueError, match="n_nodes|grading|tol"):
        nk.solve_extreme(**kwargs)


def test_n_nodes_is_recorded_from_the_mesh():
    sol = nk.solve_extreme(n_nodes=np.int64(200))
    assert type(sol.n_nodes) is int and sol.n_nodes == 200


def test_direct_extreme_independent_of_blas_threads():
    """The direct extreme solve gives the same numbers with one and with
    two OpenBLAS threads (only these two counts are checked)."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import nekrasov as nk\n"
            "s = nk.solve_extreme()\n"
            "print(repr((s.crest_angle_estimate, s.grant_fit.c1, s.grant_fit.c2,"
            " s.residual)))\n")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


class TestFits:
    def test_synthetic_model_recovery(self, extreme_direct):
        beta = nk.grant_number(1e-12)
        theta = np.geomspace(1e-5, 0.3, 300)
        phi = np.pi / 6 - theta**beta + theta**(2 * beta)
        rec = dataclasses.replace(extreme_direct, theta_samples=theta, phi_samples=phi)
        fit = nk.fit_asymptotics(rec)
        assert fit.c1 == pytest.approx(-1.0, abs=1e-6)
        assert fit.c2 == pytest.approx(1.0, abs=1e-6)
        assert nk.stokes_limit(rec) == pytest.approx(np.pi / 6, abs=1e-7)

    def test_extreme_fit_signs(self, extreme_direct):
        fit = extreme_direct.grant_fit
        assert fit.c1 < 0
        assert fit.c2 > 0
        assert fit.beta1 == pytest.approx(0.802679, abs=1e-6)

    def test_window_validation(self, extreme_direct):
        with pytest.raises(ValueError):
            nk.fit_asymptotics(extreme_direct, window=(0.29, 0.3))


def resolved_solve(mu, spec, n):
    """Seed at mu on n points and solve, doubling the grid until the
    solution is resolved or n reaches continuation.N_MAX."""
    return continuation._converge_resolved(mu, _seeded_guess(mu, spec, n, 1e-12),
                                           spec, 1e-12)[0]


@pytest.fixture(scope="module")
def capped_solves():
    # capped at N_MAX = 1024, mu = 30 resolves and mu = 1000 converges with
    # its tail still above TAIL_THRESHOLD
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(continuation, "N_MAX", 1024)
        return [resolved_solve(mu, nk.DEEP, 512) for mu in (30.0, 1000.0)]


class TestConvergeResolvedAtTheGridCap:
    def test_residuals(self, capped_solves):
        assert [r.mu for r in capped_solves] == [30.0, 1000.0]
        assert all(r.residual < 1e-10 for r in capped_solves)

    def test_unresolved_record_is_flagged(self, capped_solves):
        # each result's flag follows its tail; the capped mu = 1000 field
        # must say it is unresolved
        assert [r.resolved for r in capped_solves] == [r.tail <= 1e-9 for r in capped_solves]
        assert capped_solves[0].resolved is True
        last = capped_solves[-1]
        assert last.mu == 1000.0
        assert last.field.n == 1024
        assert last.tail > 1e-9
        assert last.resolved is False


class TestSolveExtremeInput:
    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            nk.solve_extreme(strategy="levitation")

    def test_requires_deep_water(self):
        with pytest.raises(ValueError):
            nk.solve_extreme(spec=nk.KernelSpec(depth_ratio=0.5))


@pytest.mark.parametrize("depth", [0.1, 0.5])
def test_converge_resolved_at_finite_depth(depth):
    # the seed expands about the kernel's own mu1 (5.387 at h/lambda = 0.1),
    # not about the deep-water value 3
    spec = nk.KernelSpec(depth_ratio=depth)
    result = resolved_solve(30.0, spec, 256)
    assert result.mu == 30.0
    assert result.residual <= 1e-12
    assert result.tail <= 1e-9
    assert result.resolved is True
    assert result.field.sup_norm() > 0.1


def test_cross_discretization_at_large_mu():
    # the uniform sine-spectral solver and the graded collocation engine
    # discretize the same equation in entirely different ways; at mu = 1000
    # they must agree including inside the crest layer
    result = resolved_solve(1000.0, nk.DEEP, 512)
    eng = GradedCollocation(n_nodes=700, grading=3.0)
    sol = eng.solve(1e-3, tol=1e-10)
    sup_diff = abs(np.abs(sol.phi[1:-1]).max() - result.field.sup_norm())
    assert sup_diff < 1e-4
    theta = np.geomspace(0.01, 3.0, 200)
    point_diff = np.abs(result.field(theta)
                        - np.interp(theta, sol.theta, sol.phi)).max()
    assert point_diff < 5e-5


class TestConvexity:
    def test_flat_profile(self):
        profile = nk.reconstruct_profile(nk.AngleField.zero(64), mu=3.0)
        report = nk.convexity_check(profile)
        assert report.convex
        assert report.max_violation == 0.0

    def test_near_extreme_profile_convex(self, monkeypatch):
        monkeypatch.setattr(continuation, "GEOMETRIC_RATIO", 1.6)
        branch = nk.trace_branch(3.05, 300.0)
        point = branch.points[-1]
        assert point.mu == pytest.approx(300.0)
        profile = nk.reconstruct_profile(point.field, point.mu)
        report = nk.convexity_check(profile)
        assert report.convex, f"violation {report.max_violation} at {report.worst_x}"

    def test_extreme_profile(self, extreme_direct):
        # N = 600; published H/lambda = 0.141063 and c = 1.092285 (Williams
        # 1981), convex between crests (Plotnikov & Toland 2004)
        profile = nk.extreme_profile(extreme_direct)
        assert profile.x[0] == 0.0
        assert abs(profile.x[-1] + np.pi) <= 1e-15
        assert np.all(np.diff(profile.x) < 0.0)
        assert abs(profile.height / profile.wavelength - 0.141063) < 3e-6
        assert abs(profile.c - 1.092285) < 2.5e-5
        report = nk.convexity_check(profile)
        assert report.convex
        assert report.max_violation == 0.0

    def test_cosine_profile_localizes_violations(self):
        # eta = cos(x) on the inter-crest interval: concave near the maxima,
        # convex near the trough
        theta = np.linspace(0.0, np.pi, 257)
        x = -theta  # crest at x = 0, trough at x = -pi, wavelength 2 pi
        eta = np.cos(x)
        profile = nk.WaveProfile(theta=theta, x=x, eta=eta,
                                 R=np.ones_like(x), q_over_q0=np.ones_like(x),
                                 wavelength=2 * np.pi, c=1.0, q0=1.0, g=1.0,
                                 mu=3.0, a_k=np.asarray([]))
        report = nk.convexity_check(profile, exclusion=0.01 * 2 * np.pi)
        assert not report.convex
        # violations cluster near the crests (|x| mod 2 pi close to 0)
        dist_to_crest = np.minimum(np.abs(report.violating_x),
                                   np.abs(report.violating_x + 2 * np.pi))
        assert dist_to_crest.max() < np.pi / 2 + 0.01
        # the trough neighbourhood is clean
        assert np.all(np.abs(report.violating_x + np.pi) > np.pi / 2 - 0.01)
