import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nekrasov as nk
from oracles import coth_mp, kernel_series_brute, log_kernel


def test_zero_argument_is_zero():
    assert nk.kernel_deep_closed(0.0, 0.7) == 0.0
    assert nk.kernel_series(0.0, 0.7, nk.KernelSpec(n_modes=50)) == 0.0


def test_closed_form_value_matches_series_oracle():
    # frozen from the brute-force series oracle at N = 1e5
    oracle = kernel_series_brute(np.pi / 2, np.pi / 4, 100_000)
    assert oracle == pytest.approx(0.0467583, abs=1e-6)
    assert nk.kernel_deep_closed(np.pi / 2, np.pi / 4) == pytest.approx(oracle, abs=1e-5)
    assert nk.kernel_deep_closed(np.pi / 2, np.pi / 4) == pytest.approx(
        log_kernel(np.pi / 2, np.pi / 4), abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, np.pi - 0.05), st.floats(0.05, np.pi - 0.05))
def test_closed_form_symmetry(theta, tau):
    if abs(abs(theta) - abs(tau)) < 1e-6:
        return
    assert nk.kernel_deep_closed(theta, tau) == pytest.approx(
        nk.kernel_deep_closed(tau, theta), rel=1e-12, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, np.pi - 0.05), st.floats(0.05, np.pi - 0.05))
def test_antisymmetry_in_tau(theta, tau):
    if abs(abs(theta) - abs(tau)) < 1e-6:
        return
    spec = nk.KernelSpec(n_modes=500)
    assert nk.kernel_deep_closed(theta, -tau) == pytest.approx(
        -nk.kernel_deep_closed(theta, tau), rel=1e-12, abs=1e-15)
    assert nk.kernel_series(theta, -tau, spec) == pytest.approx(
        -nk.kernel_series(theta, tau, spec), rel=1e-12, abs=1e-15)


def test_series_antisymmetry_via_period_reduction():
    # tau -> 2 pi - tau reduced to [-pi, pi] is -tau; the kernel flips sign
    spec = nk.KernelSpec(n_modes=300)
    theta, tau = 1.1, 0.6
    reduced = (2 * np.pi - tau) - 2 * np.pi
    assert nk.kernel_series(theta, reduced, spec) == pytest.approx(
        -nk.kernel_series(theta, tau, spec), rel=1e-13)


def test_diagonal_raises():
    with pytest.raises(nk.SingularEvaluationError):
        nk.kernel_deep_closed(0.7, 0.7)
    with pytest.raises(nk.SingularEvaluationError):
        nk.kernel_deep_closed(0.7, -0.7)


def test_series_converges_to_closed_form():
    spec = nk.KernelSpec(n_modes=100_000)
    samples = [(0.3, 1.2), (np.pi / 2, np.pi / 4), (2.8, 0.9), (1.0, 2.2)]
    for theta, tau in samples:
        assert abs(nk.kernel_series(theta, tau, spec)
                   - nk.kernel_deep_closed(theta, tau)) < 1e-4


def test_finite_depth_series_approaches_deep():
    spec = nk.KernelSpec(depth_ratio=10.0, n_modes=2000)
    deep = nk.KernelSpec(n_modes=2000)
    got = nk.kernel_series(np.pi / 2, np.pi / 4, spec)
    assert got == pytest.approx(nk.kernel_series(np.pi / 2, np.pi / 4, deep), abs=1e-8)


def test_finite_depth_series_matches_brute_oracle():
    spec = nk.KernelSpec(depth_ratio=0.2, n_modes=400)
    got = nk.kernel_series(1.3, 0.4, spec)
    assert got == pytest.approx(kernel_series_brute(1.3, 0.4, 400, 0.2), rel=1e-13)


def test_apply_linearized_pure_modes():
    coeffs = np.zeros(16)
    coeffs[0] = 1.0
    out = nk.apply_linearized(coeffs, nk.DEEP)
    assert out[0] == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert np.all(out[1:] == 0.0)

    coeffs = np.zeros(16)
    coeffs[1] = 1.0
    out = nk.apply_linearized(coeffs, nk.DEEP)
    assert out[1] == pytest.approx(1.0 / 6.0, rel=1e-15)

    spec = nk.KernelSpec(depth_ratio=0.3)
    for k in (1, 2, 5):
        coeffs = np.zeros(16)
        coeffs[k - 1] = 1.0
        out = nk.apply_linearized(coeffs, spec)
        expected = math.tanh(2 * np.pi * k * 0.3) / (3 * k)
        assert out[k - 1] == pytest.approx(expected, rel=1e-15)
        out[k - 1] = 0.0
        assert np.all(out == 0.0), "cross-mode leakage"


def test_apply_linearized_respects_truncation():
    spec = nk.KernelSpec(n_modes=4)
    coeffs = np.ones(8)
    out = nk.apply_linearized(coeffs, spec)
    assert np.all(out[4:] == 0.0)
    assert np.all(out[:4] > 0.0)


def test_apply_linearized_keeps_the_grid_band():
    # 1023 coefficients are the sine modes of grid n = 1024, whose operator
    # keeps modes 1..512: mode 300 is kept, as get_operator(1024) keeps it,
    # although DEEP's n_modes is 256
    from nekrasov.solver import get_operator
    coeffs = np.zeros(1023)
    coeffs[299] = 1e-3
    out = nk.apply_linearized(coeffs, nk.DEEP)
    assert out[299] == pytest.approx(1e-3 / 900.0, rel=1e-15)
    field = nk.AngleField.from_coefficients(coeffs, 1024)
    op = get_operator(1024, nk.DEEP)
    operator = nk.AngleField(field.grid, values=op.apply_linear(field.values)).coefficients
    assert np.abs(out - operator).max() <= 1e-18


def test_characteristic_values_deep():
    assert np.allclose(nk.characteristic_values(nk.DEEP, 3), [3.0, 6.0, 9.0])


def test_characteristic_values_finite_limits():
    deepish = nk.KernelSpec(depth_ratio=50.0)
    assert nk.characteristic_values(deepish, 1)[0] == pytest.approx(3.0, abs=1e-12)

    shallow = nk.KernelSpec(depth_ratio=0.1)
    expected = 3.0 * coth_mp(0.2 * np.pi)  # = 5.3870282921851825
    got = nk.characteristic_values(shallow, 1)[0]
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(5.38702829, abs=1e-8)


def test_characteristic_values_strictly_increasing():
    for spec in (nk.DEEP, nk.KernelSpec(depth_ratio=0.1), nk.KernelSpec(depth_ratio=2.0)):
        vals = nk.characteristic_values(spec, 12)
        assert np.all(np.diff(vals) > 0)


def test_characteristic_times_eigenfactor_is_one():
    for spec in (nk.DEEP, nk.KernelSpec(depth_ratio=0.5)):
        chars = nk.characteristic_values(spec, 20)
        factors = nk.linearized_factors(spec, 20)
        assert np.allclose(chars * factors, 1.0, rtol=1e-15)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        nk.KernelSpec(depth_ratio=-1.0)
    with pytest.raises(ValueError):
        nk.KernelSpec(n_modes=0)
    with pytest.raises(ValueError):
        nk.characteristic_values(nk.DEEP, 0)


@pytest.mark.parametrize("size", [2.5, True, 4.0, np.float64(3.0)])
def test_non_integer_mode_counts_rejected(size):
    with pytest.raises(ValueError):
        nk.KernelSpec(n_modes=size)
    with pytest.raises(ValueError):
        nk.characteristic_values(nk.DEEP, size)


def test_numpy_integer_mode_counts_accepted():
    spec = nk.KernelSpec(n_modes=np.int64(256) // 2)
    assert nk.kernel_series(0.3, 0.7, spec) == nk.kernel_series(0.3, 0.7, nk.KernelSpec(n_modes=128))
    assert np.array_equal(nk.characteristic_values(spec, np.int32(3)), [3.0, 6.0, 9.0])


def test_kernel_spec_r0():
    spec = nk.KernelSpec(depth_ratio=0.25)
    assert 0.0 < spec.r0 < 1.0
    assert spec.r0 == pytest.approx(math.exp(-np.pi / 2), rel=1e-15)
    assert nk.DEEP.r0 == 0.0
    # tanh weight written through r0: (1 - r0^{2k})/(1 + r0^{2k})
    k = 3
    r = spec.r0
    assert spec.mode_weights(k)[-1] == pytest.approx(
        (1 - r**(2 * k)) / (1 + r**(2 * k)), rel=1e-14)
