"""The crest-clustered grid tan(theta/2) = L tan(q/2) (SineGrid): its nodes,
the operator on it and the diagnostics that follow the map."""

import numpy as np
import pytest

import nekrasov as nk
from nekrasov import profile
from nekrasov.solver import get_operator

MU = 30.0


@pytest.fixture(scope="module")
def uniform():
    return nk.solve_seeded(MU)


@pytest.fixture(scope="module", params=[(256, 0.2), (255, 0.3)], ids=["even", "odd"])
def mapped(request, uniform):
    n, L = request.param
    return nk.solve(MU, uniform.field.resample(n, L))


class TestNodes:
    def test_uniform_grid_is_the_default(self):
        grid = nk.get_grid(64)
        assert grid is nk.get_grid(64, 1.0) and grid.L == 1.0
        assert grid.theta.tobytes() == (np.arange(1, 64) * (np.pi / 64)).tobytes()
        assert not (grid.dtheta_closed - 1.0).any()

    @pytest.mark.parametrize("L", [0.5, 0.1, 0.01])
    def test_map_and_its_derivative(self, L):
        grid = nk.get_grid(128, L)
        q = np.arange(1, 128) * np.pi / 128
        assert (grid.theta_closed[0], grid.theta_closed[-1]) == (0.0, np.pi)
        assert np.all(np.diff(grid.theta_closed) > 0)
        assert np.allclose(np.tan(grid.theta / 2), L * np.tan(q / 2), rtol=1e-13, atol=0)
        assert grid.dtheta_closed[[0, -1]] == pytest.approx([L, 1 / L], rel=1e-13)
        assert np.abs(grid.q_of(grid.theta) - q).max() <= 1e-13
        # theta' integrates to pi over (0, pi), and crowds the nodes at the crest
        assert np.trapezoid(nk.get_grid(2048, L).dtheta_closed, dx=np.pi / 2048) == (
            pytest.approx(np.pi, rel=1e-13))
        assert grid.theta[0] < np.pi / 128

    @pytest.mark.parametrize("L", [0.0, -0.5, 1.5, np.nan])
    def test_map_parameter_must_lie_in_0_1(self, L):
        with pytest.raises(ValueError, match="map parameter"):
            nk.get_grid(64, L)


class TestOperator:
    def test_finite_depth_refuses_a_map(self):
        with pytest.raises(ValueError, match="finite-depth"):
            get_operator(64, nk.KernelSpec(depth_ratio=0.5), 0.5)
        field = nk.AngleField(nk.get_grid(64, 0.5), values=np.zeros(63))
        with pytest.raises(ValueError, match="finite-depth"):
            nk.solve(10.0, field, spec=nk.KernelSpec(depth_ratio=0.5))

    def test_jacobian_is_the_derivative(self, mapped):
        # the dense Jacobian, the matvec and a central difference of F agree
        op = get_operator(mapped.field.n, nk.DEEP, mapped.field.grid.L)
        x = mapped.field.values
        v = np.random.default_rng(1).standard_normal(x.size)
        matvec = op.jacobian_operator(x, MU).matvec(v)
        assert np.abs(op.jacobian_dense(x, MU) @ v - matvec).max() <= 1e-11

        def f(y):
            return y - op.apply(y, MU)

        eps = 1e-6
        difference = (f(x + eps * v) - f(x - eps * v)) / (2 * eps)
        assert np.abs(difference - matvec).max() <= 1e-7 * np.abs(matvec).max()

    def test_solution_is_the_uniform_one(self, uniform, mapped):
        assert mapped.residual <= 1e-12 and mapped.resolved
        assert np.abs(mapped.field(uniform.field.grid.theta) - uniform.field.values).max() <= 1e-13

    def test_coupled_system_refuses_a_map(self, mapped):
        state = nk.SystemState(mapped.field, np.ones(mapped.field.n + 1))
        with pytest.raises(ValueError, match="uniform grid"):
            nk.solve_system(MU, state)


class TestDiagnostics:
    def test_integrals_match_the_uniform_grid(self, uniform, mapped):
        assert nk.inner_accumulate(mapped.field)[-1] == pytest.approx(
            nk.inner_accumulate(uniform.field)[-1], abs=2e-15)
        assert profile.height_over_wavelength(mapped.field, MU) == pytest.approx(
            profile.height_over_wavelength(uniform.field, MU), abs=1e-15)
        assert nk.physical_params(mapped.field, MU) == pytest.approx(
            nk.physical_params(uniform.field, MU), abs=1e-15)

    def test_profile_matches_the_uniform_grid(self, uniform, mapped):
        surface = nk.reconstruct_profile(mapped.field, MU)
        reference = nk.reconstruct_profile(uniform.field, MU)
        assert surface.theta.tobytes() == mapped.field.grid.theta_closed.tobytes()
        assert (surface.height, surface.c, surface.x[-1]) == pytest.approx(
            (reference.height, reference.c, -np.pi), abs=1e-15)
        # x(theta) of the uniform surface, from its map coefficients
        k = np.arange(1, uniform.field.n)
        x = -(surface.theta + uniform.field.grid.evaluate_sine(reference.a_k / k, surface.theta))
        assert np.abs(surface.x - x).max() <= 5e-15

    def test_map_coefficient_route_refuses_a_map(self, mapped):
        with pytest.raises(ValueError, match="uniform grid"):
            nk.profile_from_map_coefficients(mapped.field, MU)

    def test_evaluation_and_asymmetry_in_theta(self, uniform, mapped):
        field, theta = mapped.field, mapped.field.grid.theta
        assert np.abs(field(theta) - field.values).max() <= 1e-14
        assert np.abs(field(theta + 2 * np.pi) + field(-theta)).max() <= 1e-14
        expected = np.abs(uniform.field(theta) - uniform.field(np.pi - theta)).max()
        assert nk.crest_trough_asymmetry(field) == pytest.approx(expected, abs=1e-13)

    def test_solution_in_the_cone(self, mapped):
        report = nk.cone_membership(mapped.field)
        assert report.all_ok and report.max_violation <= 1e-9
