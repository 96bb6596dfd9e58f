import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import LinearOperator, aslinearoperator

import nekrasov as nk
from nekrasov import solver as _solver
from nekrasov._graded import GradedCollocation
from nekrasov.solver import NekrasovOperator, _krylov_step, _newton
from conftest import field_of, solved_field
from oracles import apply_operator_quadrature, inner_integral_quadrature


class TestInnerAccumulate:
    def test_zero_field(self):
        out = nk.inner_accumulate(nk.AngleField.zero(64))
        assert np.all(out == 0.0)

    def test_small_amplitude_formula(self):
        eps = 1e-3
        field = field_of(128, lambda t: eps * np.sin(t))
        out = nk.inner_accumulate(field)
        expected = eps * (1.0 - np.cos(field.grid.theta_closed))
        assert np.abs(out - expected).max() < 2.0 * eps**3

    def test_against_quadrature_oracle(self):
        field = field_of(128, lambda t: 0.4 * np.sin(t) - 0.07 * np.sin(2 * t))
        out = nk.inner_accumulate(field)
        for j in (0, 9, 60, 128):
            tau = field.grid.theta_closed[j]
            assert out[j] == pytest.approx(inner_integral_quadrature(field, tau),
                                           abs=1e-11)

    def test_even_in_tau(self):
        # the integrand is odd, so I(-tau) = I(tau); quadrature over the
        # odd extension is the independent check
        field = field_of(64, lambda t: 0.2 * np.sin(t) + 0.05 * np.sin(3 * t))
        out = nk.inner_accumulate(field)
        tau = field.grid.theta_closed[13]
        assert out[13] == pytest.approx(inner_integral_quadrature(field, -tau),
                                        abs=1e-11)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([8, 64, 512, 4096]), st.floats(1e-6, 3.0),
           st.integers(0, 2**32 - 1))
    def test_starts_at_zero(self, n, amplitude, seed):
        # exactly zero for any odd field, not just to round-off
        coeffs = np.random.default_rng(seed).normal(size=n - 1)
        field = nk.AngleField.from_coefficients(coeffs * amplitude / np.abs(coeffs).max())
        assert nk.inner_accumulate(field)[0] == 0.0


def apply_nekrasov(field, mu, spec=nk.DEEP):
    """A_mu Phi on the cached operator for the field's grid at spec's depth."""
    op = _solver.get_operator(field.n, spec)
    return nk.AngleField(field.grid, values=op.apply(field.values, mu))


class TestApplyNekrasov:
    def test_zero_is_fixed(self):
        out = apply_nekrasov(nk.AngleField.zero(64), mu=5.0)
        assert np.all(out.values == 0.0)

    def test_quadrature_oracle(self):
        field = field_of(64, lambda t: 0.1 * np.sin(t) + 0.02 * np.sin(2 * t))
        mu = 3.5
        out = apply_nekrasov(field, mu)
        check_at = [3, 20, 40, 60]
        oracle = apply_operator_quadrature(field, mu,
                                           field.grid.theta[check_at])
        assert np.abs(out.values[check_at] - oracle).max() < 1e-8

    def test_linearization_quadratic_remainder(self):
        # the Frechet derivative at zero is mu*B; the remainder is O(eps^2)
        # (the quadratic term feeds the sin 2theta response of the branch)
        mu = 3.5
        spec = nk.KernelSpec(n_modes=64)
        diffs = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            field = field_of(128, lambda t: eps * np.sin(t))
            out = apply_nekrasov(field, mu, spec)
            lin = mu * nk.apply_linearized(field.coefficients, spec)
            diffs.append(np.abs(out.coefficients - lin).max())
        assert 3.5 < diffs[0] / diffs[1] < 4.5
        assert 3.5 < diffs[1] / diffs[2] < 4.5

    def test_finite_depth_quadrature_oracle(self):
        # independent route: project g = sin Phi/(1 + mu I) on each sine
        # mode by fine trapezoid quadrature and apply the tanh/(3k) factors
        depth = 0.3
        mu = 6.0
        spec = nk.KernelSpec(depth_ratio=depth)
        field = field_of(64, lambda t: 0.08 * np.sin(t) + 0.01 * np.sin(3 * t))
        out = apply_nekrasov(field, mu, spec=spec)

        fine = field.resample(4096)
        g_fine = np.sin(fine.values) / (1.0 + mu * nk.inner_accumulate(fine)[1:-1])
        theta_f = fine.grid.theta
        modes = np.arange(1, 33)
        # g odd: the [-pi, pi] integral is twice the half-range one
        proj = 2.0 * np.trapezoid(np.sin(np.multiply.outer(modes, theta_f)) * g_fine,
                                  theta_f, axis=1)
        lam = np.tanh(2 * np.pi * modes * depth)
        coeffs = mu * lam / (3.0 * modes) * proj / np.pi
        oracle = np.zeros(63)
        oracle[:32] = coeffs
        assert np.abs(out.coefficients - oracle).max() < 1e-9

    def test_output_is_odd_sine_spectrum(self):
        field = field_of(64, lambda t: 0.2 * np.sin(t))
        out = apply_nekrasov(field, 3.2)
        theta = np.array([0.4, 1.3])
        assert np.allclose(out(-theta), -out(theta), atol=1e-14)

    def test_breakdown_for_unphysical_field(self):
        # a negative angle near the crest drives 1 + mu*I through zero
        field = field_of(64, lambda t: -2.0 * np.sin(t))
        with pytest.raises(nk.BreakdownError):
            apply_nekrasov(field, 50.0)


class TestSolve:
    def test_subcritical_goes_trivial(self):
        grid = nk.get_grid(256)
        init = nk.AngleField(grid, values=0.1 * np.sin(grid.theta))
        res = nk.solve(2.9, init, tol=1e-12)
        assert res.field.sup_norm() < 1e-10
        assert res.residual <= 1e-12

    def test_supercritical_leading_coefficient(self):
        mu = 3.05
        grid = nk.get_grid(256)
        init = nk.AngleField(grid, values=(mu - 3.0) / 9.0 * np.sin(grid.theta))
        res = nk.solve(mu, init, method="newton")
        b1 = res.field.coefficients[0]
        assert b1 == pytest.approx((mu - 3.0) / 9.0, rel=0.02)
        assert res.field.sup_norm() > 1e-4

    def test_converged_residual_on_doubled_grid(self, wave_35):
        doubled = wave_35.field.resample(1024)
        out = apply_nekrasov(doubled, 3.5)
        assert np.abs(doubled.values - out.values).max() < 1e-10

    def test_operator_cache_keeps_recently_used(self):
        # least-recently-used eviction: an operator in steady use survives
        # any number of other keys passing through the 25-entry cache
        from nekrasov.solver import get_operator
        kept = get_operator(8, nk.DEEP)
        for depth in np.linspace(0.1, 3.0, 59):
            get_operator(16, nk.KernelSpec(depth_ratio=depth))
            assert get_operator(8, nk.DEEP) is kept

    def test_operator_cache_key_is_grid_and_depth(self):
        # the operator keeps its grid's n // 2 modes whatever n_modes says,
        # so n_modes makes no new key
        from nekrasov.solver import get_operator
        op = get_operator(64, nk.KernelSpec(depth_ratio=0.5, n_modes=3))
        assert get_operator(64, nk.KernelSpec(depth_ratio=0.5)) is op
        assert np.count_nonzero(op.weights) == 32

    def test_passing_deep_does_not_change_the_answer(self):
        # DEEP carries n_modes = 256; on n = 1024 the operator keeps 512
        # modes with or without it, and the mu = 100 field stays unresolved
        field = nk.solve_seeded(100, n=1024).field
        plain = nk.solve(100, field)
        deep = nk.solve(100, field, spec=nk.DEEP)
        assert deep.field.values.tobytes() == plain.field.values.tobytes()
        assert deep.resolved is plain.resolved is False

    def test_jacobian_operator_matches_dense_and_finite_differences(self, wave_35):
        # derivative consistency at a genuinely nonlinear state: every column
        # of the matrix-free Jacobian against the dense Jacobian and a
        # central difference of the operator
        from nekrasov.solver import get_operator
        values = wave_35.field.resample(64).values
        op = get_operator(64, nk.DEEP)
        jac = op.jacobian_operator(values, 3.5)
        dense = op.jacobian_dense(values, 3.5)
        step = 1e-7

        def f(x):
            return x - op.apply(x, 3.5)

        for j, unit in enumerate(np.eye(values.size)):
            column = jac.matvec(unit)
            central = (f(values + step * unit) - f(values - step * unit)) / (2.0 * step)
            assert np.abs(column - dense[:, j]).max() < 1e-7
            assert np.abs(column - central).max() < 1e-7

    def test_grid_refinement_stability(self, wave_35):
        fine = solved_field(3.5, n=1024)
        resampled = wave_35.field.resample(1024)
        assert np.abs(fine.field.values - resampled.values).max() < 1e-10

    def test_validation(self):
        init = nk.AngleField.zero(32)
        with pytest.raises(ValueError):
            nk.solve(-1.0, init)
        with pytest.raises(ValueError):
            nk.solve(3.2, init, tol=-1e-12)
        # Newton is the only method; the Picard iteration and the
        # "newton_krylov" alias are gone
        for method in ("sorcery", "fixed_point", "newton_krylov"):
            with pytest.raises(ValueError, match="unknown method"):
                nk.solve(3.2, init, method=method)

    @pytest.mark.parametrize("entry", [
        lambda: nk.solve(3.5, nk.AngleField.zero(64), tol=np.inf),
        lambda: nk.solve_seeded(3.5, n=64, tol=np.inf),
        lambda: nk.solve_system(3.5, n=64, tol=np.inf),
    ], ids=["solve", "solve_seeded", "solve_system"])
    def test_infinite_tol_is_rejected(self, entry):
        # any guess meets an infinite tol, so the guess would come back as
        # "converged" after 0 iterations
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            entry()

    @pytest.mark.parametrize("mu", [np.inf, np.nan])
    def test_non_finite_mu_is_rejected(self, mu):
        # a physical seed: at mu = inf the ill-posed spectral route would
        # otherwise report convergence
        field = field_of(256, lambda t: 0.3 * np.sin(t))
        with pytest.raises(ValueError, match=r"solve_extreme\(\)"):
            nk.solve(mu, field)

    def test_non_finite_initial_field_is_rejected(self):
        grid = nk.get_grid(64)
        values = 0.04 * np.sin(grid.theta)
        values[5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            nk.solve(3.4, nk.AngleField(grid, values=values))


class TestSolveSeeded:
    """solve_seeded against the hand-built seed-and-solve recipes it replaces."""

    @pytest.mark.parametrize("depth", [0.5, np.inf])
    def test_matches_sine_seed(self, depth):
        spec = nk.KernelSpec(depth_ratio=depth)
        mu1 = float(nk.characteristic_values(spec, 1)[0])
        mu = mu1 + 0.2
        grid = nk.get_grid(256)
        guess = nk.AngleField(grid, values=(mu - mu1) / 9.0 * np.sin(grid.theta))
        reference = nk.solve(mu, guess, method="newton", spec=spec)
        result = nk.solve_seeded(mu, nk.KernelSpec(depth_ratio=depth), n=256)
        assert np.array_equal(result.field.values, reference.field.values)
        assert result.residual == reference.residual
        assert result.iterations == reference.iterations

    def test_deep_seed_never_expands_the_series(self, monkeypatch):
        # deep water is seeded like finite depth: no nekrasov module calls
        # expand_solution, whatever name it bound it to, on either side of
        # the seed's reach
        def forbidden(order):
            raise AssertionError("a seeded solve expanded the series")

        expand = nk.series.expand_solution
        for name, module in list(sys.modules.items()):
            if name == "nekrasov" or name.startswith("nekrasov."):
                for attr, value in list(vars(module).items()):
                    if value is expand:
                        monkeypatch.setattr(module, attr, forbidden)
        for mu in (3.5, 40.0):
            assert nk.solve_seeded(mu).residual <= 1e-12

    def test_sine_seed_breaks_down_past_its_reach(self):
        # straight from the sine seed, the solve breaks down at 40
        grid = nk.get_grid(512)
        with pytest.raises(nk.BreakdownError):
            nk.solve(40.0, nk.AngleField(grid, values=37.0 / 9.0 * np.sin(grid.theta)))

    @pytest.mark.parametrize("mu", [8.75, 10.0, 40.0])
    def test_climbs_the_ladder_past_the_seed_reach(self, mu):
        # 8.75 and 10 lay past the reach of the former deep-water series seed
        # and are now solved straight from the sine seed; 40 lies past the
        # sine seed's reach and climbs the ladder. Each lands on the branch
        # that continuation from mu1 traces.
        result = nk.solve_seeded(mu)
        point = nk.trace_branch(3.01, mu).points[-1]
        assert (point.mu, point.n) == (mu, 512)
        assert result.residual <= 1e-12
        assert np.abs(result.field.values - point.field.values).max() <= 1e-10

    @pytest.mark.parametrize("depth", [np.inf, 0.5])
    def test_seed_reach_keeps_the_direct_path(self, depth):
        spec = nk.KernelSpec(depth_ratio=depth)
        mu1 = float(nk.characteristic_values(spec, 1)[0])
        mu = mu1 + _solver.SEED_REACH
        grid = nk.get_grid(512)
        seed = nk.AngleField(grid, values=(mu - mu1) / 9.0 * np.sin(grid.theta))
        reference = nk.solve(mu, seed, spec=spec)
        result = nk.solve_seeded(mu, spec)
        assert result.field.values.tobytes() == reference.field.values.tobytes()
        assert result.iterations == reference.iterations

    @pytest.mark.parametrize("mu, resolved", [(10.0, True), (100.0, False)])
    def test_result_reports_resolution(self, mu, resolved):
        # n = 512 resolves mu = 10 (tail 4.8e-17) but not mu = 100 (1.5e-5)
        result = nk.solve_seeded(mu)
        assert result.tail == result.field.spectral_tail(band=256)
        assert result.resolved is resolved

    def test_tail_is_computed_once(self, monkeypatch):
        result = nk.solve_seeded(3.5, n=64)
        calls = []
        spectral_tail = nk.AngleField.spectral_tail

        def counted(field, band=None):
            calls.append(band)
            return spectral_tail(field, band)

        monkeypatch.setattr(nk.AngleField, "spectral_tail", counted)
        assert result.resolved and result.tail == result.tail
        assert calls == [32]

    @pytest.mark.parametrize("mu", [np.inf, np.nan])
    def test_non_finite_mu_is_rejected_before_any_work(self, mu, monkeypatch):
        # mu = inf would otherwise climb a ladder without end
        monkeypatch.setattr(_solver, "_seeded_guess", None)
        with pytest.raises(ValueError, match="finite"):
            nk.solve_seeded(mu)

    def test_warm_start_ladder_rungs(self, monkeypatch):
        # the reference loop that fixes the rungs _seeded_guess climbs for
        # solve_seeded, solve_system and trace_branch: from the seed at
        # mu1 + 35, each rung mu1 + 35 * 1.6^k below mu, then mu itself
        calls = []

        def recorded(mu, initial, method="newton", tol=1e-12, spec=nk.DEEP):
            calls.append(mu)
            return SimpleNamespace(field=initial)

        monkeypatch.setattr(_solver, "solve", recorded)
        for depth in (np.inf, 0.5):
            spec = nk.KernelSpec(depth_ratio=depth)
            mu1 = float(nk.characteristic_values(spec, 1)[0])
            expected, s = [], 35.0
            while s < 30000.0 - mu1:
                expected.append(mu1 + s)
                s *= 1.6
            calls.clear()
            field = nk.solve_seeded(30000.0, spec).field
            assert calls == expected + [30000.0]
            assert field.values.tobytes() == (35.0 / 9.0 * np.sin(field.grid.theta)).tobytes()

    @pytest.mark.parametrize("depth", [np.inf, 0.5])
    def test_rejects_bifurcation_point(self, depth):
        spec = nk.KernelSpec(depth_ratio=depth)
        mu1 = float(nk.characteristic_values(spec, 1)[0])
        with pytest.raises(ValueError, match="bifurcation point"):
            nk.solve_seeded(mu1, spec)


def count_applies(monkeypatch) -> list:
    """Patch NekrasovOperator.apply to record each call; returns the log."""
    calls = []
    apply = NekrasovOperator.apply

    def counted(self, values, mu):
        calls.append(mu)
        return apply(self, values, mu)

    monkeypatch.setattr(NekrasovOperator, "apply", counted)
    return calls


class TestEvaluationCounts:
    """Each accepted iterate is evaluated once: A_mu of the accepted trial
    is reused for the next step."""

    def test_newton_applies_once_per_iterate(self, monkeypatch):
        calls = count_applies(monkeypatch)
        result = nk.solve_seeded(3.5)
        assert len(calls) == result.iterations + 1 == 5

    @pytest.mark.parametrize("method", ["newton"])
    def test_initial_residual_is_the_first_evaluation(self, method):
        grid = nk.get_grid(256)
        init = nk.AngleField(grid, values=0.3 / 9.0 * np.sin(grid.theta))
        op = _solver.get_operator(256, nk.DEEP)
        expected = op.residual(init.values, 3.3)
        result = nk.solve(3.3, init, method=method, tol=1e-11)
        assert result.initial_residual == expected > result.residual


class TestNewtonDriver:
    def test_line_search_failure_reports_iteration(self):
        x0 = np.array([1.0, -2.0])

        def residual(x):
            if not np.array_equal(x, x0):
                raise nk.BreakdownError("outside the physical regime")
            return x

        with pytest.raises(nk.DivergenceError) as info:
            _newton(residual, lambda x, f, target: f, x0, 1e-12)
        assert info.value.iterations == 1
        assert info.value.residual == 2.0

    def test_converges_on_linear_problem(self):
        target = np.array([0.5, -1.5, 2.0])
        x, res, iterations = _newton(lambda x: x - target, lambda x, f, step_target: f,
                                     np.zeros(3), 1e-12)
        assert np.array_equal(x, target)
        assert res == 0.0
        assert iterations == 1


def recording(jacobian, calls):
    """jacobian as a LinearOperator that appends a copy of each matvec input
    to calls."""

    def matvec(v):
        calls.append(np.array(v))
        return jacobian.matvec(v)

    return LinearOperator(jacobian.shape, matvec=matvec, dtype=float)


def recording_diagonal(diagonal, calls):
    diag = LinearOperator((diagonal.size,) * 2, matvec=lambda v: diagonal * v, dtype=float)
    return recording(diag, calls)


class TestKrylovStep:
    def test_distinct_eigenvalues_take_one_matvec_each(self):
        # GMRES is exact after as many steps as J has distinct eigenvalues
        diagonal = np.repeat([1.0, 2.0, 3.0, 4.0, 5.0], 4)
        f = np.linspace(1.0, 2.0, diagonal.size)
        calls = []
        dx = _krylov_step(recording_diagonal(diagonal, calls), f, 1e-4 * np.linalg.norm(f))
        assert len(calls) == 5
        assert not any((v == 0.0).all() for v in calls)
        assert np.abs(diagonal * dx - f).max() < 1e-12

    def test_invariant_subspace_returns_the_exact_solution(self):
        diagonal = np.array([2.0, 3.0, 5.0])
        calls = []
        dx = _krylov_step(recording_diagonal(diagonal, calls), np.array([1.0, 0.0, 0.0]), 1e-4)
        assert len(calls) == 1
        assert np.array_equal(dx, [0.5, 0.0, 0.0])

    def test_restarts_reach_the_target(self, monkeypatch):
        monkeypatch.setattr(_solver, "KRYLOV_RESTART", 2)
        diagonal = np.repeat([1.0, 1.5, 2.0, 3.0, 4.0, 6.0], 3)
        f = np.linspace(1.0, 2.0, diagonal.size)
        assert len(np.unique(diagonal)) == 6  # six Arnoldi steps without restarts
        calls = []
        dx = _krylov_step(recording_diagonal(diagonal, calls), f, 1e-4 * np.linalg.norm(f))
        assert len(calls) > 6
        assert np.linalg.norm(f - diagonal * dx) <= 1e-4 * np.linalg.norm(f)

    def test_non_finite_matvec_fails_after_one_call(self):
        calls = []
        nan_jacobian = LinearOperator((8, 8), matvec=lambda v: np.full_like(v, np.nan),
                                      dtype=float)
        with pytest.raises(nk.DivergenceError, match="stagnated"):
            _krylov_step(recording(nan_jacobian, calls), np.ones(8), 1e-4)
        assert len(calls) == 1

    def test_newton_never_multiplies_a_zero_vector(self, monkeypatch):
        calls = []
        jacobian_operator = NekrasovOperator.jacobian_operator
        monkeypatch.setattr(NekrasovOperator, "jacobian_operator",
                            lambda self, values, mu: recording(
                                jacobian_operator(self, values, mu), calls))
        result = nk.solve_seeded(3.5)
        assert result.iterations == 4
        assert calls and not any((v == 0.0).all() for v in calls)


class TestForcing:
    """_newton asks _krylov_step for max(min(KRYLOV_RTOL, |F|_inf) |F|_2,
    0.1 tol): loose while F is large, proportional to |F| near the root."""

    def test_krylov_step_meets_an_explicit_target(self):
        rng = np.random.default_rng(3)
        m = 80
        matrix = np.eye(m) + 0.3 * rng.standard_normal((m, m)) / np.sqrt(m)
        jacobian = LinearOperator((m, m), matvec=lambda v: matrix @ v, dtype=float)
        f = rng.standard_normal(m)
        counts = []
        for rtol in (1e-2, 1e-6, 1e-10):
            calls = []
            target = rtol * np.linalg.norm(f)
            dx = _krylov_step(recording(jacobian, calls), f, target)
            assert np.linalg.norm(f - matrix @ dx) <= target
            counts.append(len(calls))
        assert counts[0] < counts[1] < counts[2]

    def test_newton_passes_the_forcing_target(self):
        c, tol = np.array([0.5, -1.5, 2.0]), 1e-12
        seen = []

        def step(x, f, target):
            seen.append((target, np.abs(f).max(), np.linalg.norm(f)))
            return (1.0 - 1e-3) * f  # leaves 1e-3 of F: linear convergence

        _newton(lambda x: x - c, step, np.zeros(3), tol)
        assert len(seen) == 5  # |F|_inf from 2 down by 1e3 each step to 2e-12
        for target, f_inf, f_2 in seen:
            assert target == max(min(_solver.KRYLOV_RTOL, f_inf) * f_2, 0.1 * tol)
        assert seen[0][0] == _solver.KRYLOV_RTOL * seen[0][2]
        assert seen[-1][0] == 0.1 * tol

    def test_refined_field_reconverges_in_one_iteration(self, monkeypatch):
        # at mu = 70 the n = 512 solution is under-resolved (spectral tail
        # ~1e-6), and resampled to n = 1024 its residual is ~2e-7: a Krylov
        # step solved to |F| |F|_2 reaches tol in one Newton iteration
        monkeypatch.setattr(nk.continuation, "N_MAX", 512)
        branch = nk.trace_branch(3.01, 40.0)
        field = branch.points[-1].field
        for mu in (56.0, 70.0):
            field = nk.solve(mu, field).field
        result = nk.solve(70.0, field.resample(1024))
        assert result.iterations == 1
        assert result.residual <= 1e-12


class TestJacobianOperator:
    def test_import_leaves_scipy_sparse_out(self):
        """The Jacobian builders return a JacobianOperator, so `import
        nekrasov` imports no scipy.sparse."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        code = ("import sys, nekrasov\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_builders_are_accepted_as_linear_operators(self, wave_35):
        values = wave_35.field.resample(64).values
        eng = GradedCollocation(n_nodes=16)
        phi = np.linspace(0.5, 0.1, eng.n - 1)
        for jac in (_solver.get_operator(64, nk.DEEP).jacobian_operator(
                        values, 3.5),
                    eng.jacobian_operator(phi, 0.0)):
            wrapped = aslinearoperator(jac)
            v = np.linspace(-1.0, 1.0, jac.shape[1])
            assert wrapped.shape == jac.shape and wrapped.dtype == np.float64
            assert np.array_equal(wrapped.matvec(v), jac.matvec(v))


def system_residual(state, mu):
    """Sup-norm of the coupled system's F at the state."""
    op = _solver.get_operator(state.phi.n, nk.DEEP)
    return float(np.abs(_solver._system_f(op, state.phi.values, state.psi, mu)).max())


class TestSolveSystem:
    def test_trivial_fixed_point(self):
        grid = nk.get_grid(64)
        state = nk.SystemState(phi=nk.AngleField.zero(64), psi=np.ones(65))
        assert system_residual(state, 4.0) == 0.0

    def test_psi_at_zero_is_one(self):
        state = nk.solve_system(3.2, tol=1e-11, n=256)
        assert state.psi[0] == 1.0

    @pytest.mark.parametrize("mu", [3.05, 3.2, 4.0, 5.0, 10.0])
    def test_equivalence_with_single_equation(self, mu):
        state = nk.solve_system(mu, tol=1e-12, n=512)
        single = solved_field(mu, n=512)
        assert np.abs(state.phi.values - single.field.values).max() < 1e-10

    @pytest.mark.parametrize("depth", [0.1, 0.5])
    def test_equivalence_at_finite_depth(self, depth):
        spec = nk.KernelSpec(depth_ratio=depth)
        mu = float(nk.characteristic_values(spec, 1)[0]) + 0.5
        state = nk.solve_system(mu, tol=1e-12, spec=spec, n=512)
        single = nk.solve_seeded(mu, spec, n=512)
        assert np.abs(state.phi.values - single.field.values).max() < 1e-10

    def test_deep_spec_matches_solve_seeded_on_a_fine_grid(self):
        # the seeded guess and the solve both keep n // 2 = 512 modes
        state = nk.solve_system(100, spec=nk.DEEP, n=1024)
        single = nk.solve_seeded(100, n=1024)
        assert np.abs(state.phi.values - single.field.values).max() <= 1e-12

    @pytest.mark.parametrize("mu", [3.05, 3.2, 4.5])
    def test_runs_the_shared_newton_loop(self, mu, monkeypatch):
        iterations = []

        def counted(*args):
            out = _newton(*args)
            iterations.append(out[2])
            return out

        monkeypatch.setattr(_solver, "_newton", counted)
        state = nk.solve_system(mu, tol=1e-12, n=512)
        assert len(iterations) == 1 and iterations[0] <= 8
        assert system_residual(state, mu) <= 1e-12

    @pytest.mark.parametrize("mu, depth", [(3.0, np.inf), (2.0, np.inf),
                                           (5.3, 0.1)])
    def test_subcritical_mu_without_initial_is_rejected(self, mu, depth):
        with pytest.raises(ValueError, match="bifurcation point"):
            nk.solve_system(mu, n=64, spec=nk.KernelSpec(depth_ratio=depth))

    @pytest.mark.parametrize("part", ["phi", "psi"])
    def test_non_finite_initial_is_rejected(self, part):
        grid = nk.get_grid(64)
        phi = 0.02 * np.sin(grid.theta)
        psi = np.ones(65)
        (phi if part == "phi" else psi)[5] = np.nan
        state = nk.SystemState(phi=nk.AngleField(grid, values=phi), psi=psi)
        with pytest.raises(ValueError, match="non-finite"):
            nk.solve_system(3.2, initial=state)

    @pytest.mark.parametrize("mu", [np.inf, np.nan])
    def test_non_finite_mu_is_rejected_before_any_work(self, mu, monkeypatch):
        monkeypatch.setattr(_solver, "_seeded_guess", None)
        with pytest.raises(ValueError, match="finite"):
            nk.solve_system(mu)

    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_non_positive_tol_is_rejected_before_any_work(self, tol, monkeypatch):
        monkeypatch.setattr(_solver, "_seeded_guess", None)
        with pytest.raises(ValueError, match="tol must be positive"):
            nk.solve_system(4.0, tol=tol)

    def test_equivalence_at_3_2_within_1e8(self):
        state = nk.solve_system(3.2, tol=1e-11, n=512)
        single = solved_field(3.2, n=512)
        assert np.abs(state.phi.values - single.field.values).max() < 1e-8

    def test_closed_form_cross_check(self):
        mu = 3.2
        state = nk.solve_system(mu, tol=1e-11, n=256)
        denom = 1.0 + mu * nk.inner_accumulate(state.phi)
        assert np.abs(state.psi * denom - 1.0).max() < 1e-9

    def test_psi_positive(self):
        state = nk.solve_system(4.5, tol=1e-11, n=256)
        assert state.psi.min() > 0.0


class TestDiagnostics:
    def test_amplitude_bound_zero_field(self):
        rec = nk.check_amplitude_bound(nk.AngleField.zero(64), mu=3.0)
        assert rec.rhs == 3.0
        assert rec.m_sup == 0.0

    def test_amplitude_bound_at_pi_over_six(self):
        m = np.pi / 6.0
        field = field_of(256, lambda t: m * np.sin(t))
        rec = nk.check_amplitude_bound(field, mu=3.5)
        # direct arithmetic: 1 / (pi*M + sin(M)/(3M))
        expected = 1.0 / (np.pi * m + np.sin(m) / (3.0 * m))
        assert expected == pytest.approx(0.5093611, abs=1e-6)
        assert rec.rhs == pytest.approx(expected, rel=1e-9)

    def test_amplitude_bound_m_matches_oversampled_sup(self, wave_35):
        rec = nk.check_amplitude_bound(wave_35.field, mu=3.5)
        field = wave_35.field
        dense = np.abs(field.resample(16 * field.n).values).max()
        assert rec.m_sup == pytest.approx(dense, abs=1e-6)

    def test_asymmetry_zero_field(self):
        assert nk.crest_trough_asymmetry(nk.AngleField.zero(64)) == 0.0

    def test_asymmetry_sin_2theta(self):
        field = field_of(256, lambda t: np.sin(2 * t))
        assert nk.crest_trough_asymmetry(field) == pytest.approx(2.0, abs=1e-10)

    def test_asymmetry_positive_on_branch(self, wave_35):
        assert nk.crest_trough_asymmetry(wave_35.field) > 1e-3
