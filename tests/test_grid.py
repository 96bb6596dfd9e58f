import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import fft

import nekrasov as nk
from nekrasov import grid as grid_module
from conftest import field_of
from oracles import inner_integral_quadrature, sup_norm_scan

# pi to long-double precision (np.pi would limit the reference to double)
PI_LONG = np.longdouble("3.14159265358979323846264338327950288")


def test_transform_roundtrip():
    grid = nk.get_grid(64)
    rng = np.random.default_rng(3)
    values = rng.normal(size=63)
    back = grid.to_values(grid.to_coefficients(values))
    assert np.abs(back - values).max() < 1e-13


def test_pure_mode_coefficients():
    grid = nk.get_grid(32)
    for k in (1, 5, 31):
        coeffs = grid.to_coefficients(np.sin(k * grid.theta))
        expected = np.zeros(31)
        expected[k - 1] = 1.0
        assert np.abs(coeffs - expected).max() < 1e-13


def test_antiderivative_matches_quadrature():
    field = field_of(128, lambda t: 0.3 * np.sin(t) + 0.1 * np.sin(3 * t))
    closed = field.grid.antiderivative_closed(np.sin(field.values))
    for j in (0, 1, 17, 64, 128):
        tau = field.grid.theta_closed[j]
        assert closed[j] == pytest.approx(
            inner_integral_quadrature(field, tau), abs=1e-11)


def test_evaluate_matches_grid_values():
    field = field_of(64, lambda t: np.sin(2 * t) - 0.2 * np.sin(5 * t))
    assert np.abs(field(field.grid.theta) - field.values).max() < 1e-12


def test_oddness_of_evaluation():
    field = field_of(64, lambda t: np.sin(t) + 0.3 * np.sin(4 * t))
    theta = np.array([0.3, 1.1, 2.0])
    assert np.allclose(field(-theta), -field(theta), atol=1e-14)


def test_sup_norm_oversampling():
    # sin(2 theta) peaks strictly between the nodes of a 5-point grid
    field = field_of(5, lambda t: np.sin(2 * t))
    assert np.abs(field.values).max() < 0.999
    assert np.abs(field.resample(40).values).max() == pytest.approx(1.0, abs=1e-3)
    assert field.sup_norm() == pytest.approx(sup_norm_scan(field), abs=1e-3)


def test_sup_norm_caches_no_grid():
    # n = 1234 is used nowhere else, so a cached 4n grid would be new
    field = field_of(1234, lambda t: np.sin(t) + 0.2 * np.sin(7 * t))
    before = grid_module._cached_grid.cache_info().currsize
    value = field.sup_norm()
    assert grid_module._cached_grid.cache_info().currsize == before
    padded = np.zeros(4 * 1234 - 1)
    padded[:1233] = field.coefficients
    assert value == np.abs(nk.SineGrid(4 * 1234).to_values(padded)).max()


@pytest.mark.parametrize("n", [4096, 16384, 32768, 513 * 32, 24576, 49152, 98304])
def test_sup_norm_is_the_full_transform_bitwise(n):
    """sup_norm is bitwise the max of the 4x grid's to_values, with that grid
    from 16384 to 393216 points (513 * 32 is an even size off trace_branch's
    2^k / 3 * 2^k grid ladder, 24576, 49152 and 98304 are 3 * 2^k sizes on
    it)."""
    coeffs = np.random.default_rng(n + 4).standard_normal(n - 1) / np.arange(1, n)
    field = nk.AngleField.from_coefficients(coeffs, n)
    padded = np.zeros(4 * n - 1)
    padded[:n - 1] = coeffs
    assert field.sup_norm() == np.abs(nk.SineGrid(4 * n).to_values(padded)).max()


def test_resample_padding_and_truncation():
    field = field_of(32, lambda t: np.sin(t) + 0.5 * np.sin(2 * t))
    finer = field.resample(128)
    assert np.abs(finer(np.array([0.7])) - field(np.array([0.7]))).max() < 1e-13
    back = finer.resample(32)
    assert np.abs(back.coefficients - field.coefficients).max() < 1e-13


@pytest.mark.parametrize("L", [None, 0.5], ids=["same_map", "other_map"])
@pytest.mark.parametrize("n_new", [512.0, 16.0, True, 0, 2, "64"])
def test_resample_checks_the_grid_size(n_new, L):
    # 16.0 on a 16-point field is neither the field itself nor a float grid
    field = field_of(16, lambda t: np.sin(t) + 0.5 * np.sin(2 * t))
    with pytest.raises(ValueError, match="grid size"):
        field.resample(n_new, L)


def test_spectral_tail_band():
    coeffs = np.zeros(63)
    coeffs[0] = 1.0
    coeffs[55] = 1e-5
    field = nk.AngleField.from_coefficients(coeffs)
    assert field.spectral_tail() == pytest.approx(1e-5)
    assert field.spectral_tail(band=32) == 0.0


def test_field_validation():
    with pytest.raises(ValueError):
        nk.AngleField(nk.get_grid(32), values=np.zeros(5))
    with pytest.raises(ValueError):
        nk.AngleField(nk.get_grid(32))
    with pytest.raises(ValueError):
        nk.get_grid(2)


@pytest.mark.parametrize("n", [300.7, 512.0, True, np.float64(64.0), "64", None])
def test_grid_size_must_be_an_integer(n):
    # a float is neither truncated to a grid nor a second cache key (512.0)
    with pytest.raises(ValueError, match="integer"):
        nk.SineGrid(n)
    with pytest.raises(ValueError, match="integer"):
        nk.get_grid(n)
    with pytest.raises(ValueError, match="grid size"):
        nk.solve_seeded(3.5, n=n)


@pytest.mark.parametrize("n", [np.int64(64), np.int32(64), np.uint16(64)])
def test_numpy_integer_grid_size_shares_the_int_grid(n):
    grid = nk.get_grid(n)
    assert grid is nk.get_grid(64)
    assert type(grid.n) is int and type(nk.SineGrid(n).n) is int


def _trig_long(func, n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """func(pi j k / n) for j in rows, k in cols, in long double, with the
    argument reduced exactly mod 2 pi."""
    phase = np.multiply.outer(rows, cols) % (2 * n)
    return func(phase.astype(np.longdouble) * PI_LONG / n)


def _direct_transforms(n: int, x: np.ndarray, c: np.ndarray) -> dict:
    """The grid's transforms of interior values x and closed values c by
    O(n^2) sums in long double."""
    j = np.arange(1, n)
    closed = np.arange(n + 1)
    sine = _trig_long(np.sin, n, j, j)
    cosine = _trig_long(np.cos, n, closed, j)
    xl, cl = x.astype(np.longdouble), c.astype(np.longdouble)
    b = 2 * sine @ xl / n
    s = b / j
    full = cl[0] + (-1) ** closed * cl[n] + 2 * cosine @ cl[1:-1]  # DCT-I
    return {
        "to_coefficients": b,
        "to_values": sine @ xl,
        "cosine_values_closed": cosine @ xl,
        "cosine_coefficients_closed": full[1:-1] / n,
        "antiderivative_closed": s.sum() - cosine @ s,
    }


@pytest.mark.parametrize("n", [64, 40, 42])
def test_transforms_match_direct_sums(n):
    """The transforms agree with direct long-double sums to 1e-15 of their
    largest entry, on even and odd n."""
    grid = grid_module.SineGrid(n)
    rng = np.random.default_rng(n)
    x, c = rng.standard_normal(n - 1), rng.standard_normal(n + 1)
    got = {
        "to_coefficients": grid.to_coefficients(x),
        "to_values": grid.to_values(x),
        "cosine_values_closed": grid.cosine_values_closed(x),
        "cosine_coefficients_closed": grid.cosine_coefficients_closed(c),
        "antiderivative_closed": grid.antiderivative_closed(x),
    }
    for name, expected in _direct_transforms(n, x, c).items():
        scale = float(np.abs(expected).max())
        gap = float(np.abs(got[name] - expected).max())
        assert gap <= 1e-15 * scale, (name, gap / scale)


@pytest.mark.parametrize("n", [16382, 16385, 513, 16384, 24576, 32768, 49152, 98304, 1 << 17])
def test_unsplit_transforms_are_scipy_bitwise(n):
    """Every transform is the one plain scipy call, for odd and even n and
    up to N_MAX."""
    grid = nk.get_grid(n)
    rng = np.random.default_rng(7)
    x, c = rng.standard_normal(n - 1), rng.standard_normal(n + 1)
    padded = np.concatenate(([0.0], x, [0.0]))
    assert np.array_equal(grid.to_coefficients(x), fft.dst(x, type=1) / n)
    assert np.array_equal(grid.to_values(x), fft.dst(x, type=1) / 2.0)
    assert np.array_equal(grid.cosine_values_closed(x), fft.dct(padded, type=1) / 2.0)
    assert np.array_equal(grid.cosine_coefficients_closed(c), fft.dct(c, type=1)[1:-1] / n)


def test_transforms_raise_no_warning():
    """scipy.fftpack is scipy's legacy interface: importing nekrasov and
    running one DST-I and one DCT-I must not warn, so a deprecation of it
    fails here first."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = ("import numpy as np, nekrasov\n"
            "from nekrasov import grid\n"
            "n = 16384\n"
            "grid._dst1(np.ones(n - 1))\n"
            "grid._dct1(np.ones(n + 1))\n")
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def _assert_roundtrip(n, seed):
    grid = grid_module.SineGrid(n)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n - 1)
    assert np.abs(grid.to_values(grid.to_coefficients(x)) - x).max() < 1e-13
    assert np.abs(grid.to_coefficients(grid.to_values(x)) - x).max() < 1e-13
    # cosine modes 1..n-1 sample to values of zero (trapezoid) mean and back
    back = grid.cosine_coefficients_closed(grid.cosine_values_closed(x))
    assert np.abs(back - x).max() < 1e-13


def test_roundtrip_at_2_pow_17():
    # N_MAX, the largest grid trace_branch climbs to
    _assert_roundtrip(1 << 17, 17)


def test_roundtrip_at_3_times_2_pow_15():
    # the largest 3 * 2^k grid below N_MAX
    _assert_roundtrip(3 << 15, 15)
