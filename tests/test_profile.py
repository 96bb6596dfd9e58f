import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import nekrasov as nk
from conftest import field_of, solved_field
from nekrasov.profile import _map_coefficients


def _reference_map_coefficients(field, k_max=None):
    """Reference: the recursion with an index gather of a at every step."""
    b = field.coefficients
    if k_max is None:
        k_max = b.size
    a = np.zeros(k_max + 1)
    a[0] = 1.0
    for k in range(1, k_max + 1):
        m = np.arange(1, k + 1)
        a[k] = float(np.dot(m * b[m - 1], a[k - m]) / k)
    return a[1:]


@st.composite
def _coefficient_fields(draw):
    n = draw(st.sampled_from([8, 64, 300, 512]))
    coeffs = draw(hnp.arrays(np.float64, n - 1, elements=st.floats(-1.0, 1.0)))
    return nk.AngleField.from_coefficients(coeffs, n)


class TestReconstructR:
    def test_flat(self):
        profile = nk.reconstruct_profile(nk.AngleField.zero(64), mu=3.0)
        assert np.allclose(profile.q_over_q0, 1.0)
        assert np.allclose(profile.R / profile.R[0], 1.0)

    def test_monotone_for_cone_solution(self, wave_35):
        profile = nk.reconstruct_profile(wave_35.field, 3.5)
        r = profile.R / profile.R[0]
        assert np.all(np.diff(r) < 0), "R decreases from crest to trough"
        q = profile.q_over_q0
        assert np.all(np.diff(q) > 0), "surface speed grows toward the trough"
        assert np.allclose(r * q, 1.0, atol=1e-14)

    def test_large_mu_stagnation_scaling(self, wave_35):
        # pointwise limit: away from the crest mu*I >> 1 and
        # R -> (mu I)^(-1/3)
        mu = 1e6
        field = wave_35.field
        acc = nk.inner_accumulate(field)
        denom = 1.0 + mu * acc
        r = denom ** (-1.0 / 3.0)
        sel = mu * acc > 1e4
        assert sel.sum() > 400
        assert np.allclose(r[sel], (mu * acc[sel]) ** (-1.0 / 3.0), rtol=1e-4)

    def test_breakdown(self):
        field = field_of(64, lambda t: -2.0 * np.sin(t))
        with pytest.raises(nk.BreakdownError):
            nk.reconstruct_profile(field, 50.0)


@pytest.mark.parametrize("entry", [
    nk.reconstruct_profile, nk.profile_from_map_coefficients, nk.physical_params])
def test_non_finite_field_is_rejected(entry):
    grid = nk.get_grid(64)
    values = 0.04 * np.sin(grid.theta)
    values[10] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        entry(nk.AngleField(grid, values=values), 3.4)


@pytest.mark.parametrize("wavelength, g", [
    (np.nan, 1.0), (np.inf, 1.0), (-1.0, 1.0), (0.0, 1.0),
    (2 * np.pi, np.nan), (2 * np.pi, np.inf), (2 * np.pi, -1.0), (2 * np.pi, 0.0)])
@pytest.mark.parametrize("entry", [
    nk.reconstruct_profile, nk.profile_from_map_coefficients, nk.physical_params])
def test_bad_wavelength_or_g_is_rejected(entry, wavelength, g):
    # c and q0 would be NaN or inf
    with pytest.raises(ValueError, match="wavelength and g"):
        entry(nk.AngleField.zero(64), 3.0, wavelength=wavelength, g=g)


class TestReconstructProfile:
    def test_flat_surface(self):
        profile = nk.reconstruct_profile(nk.AngleField.zero(64), mu=3.0)
        assert np.allclose(profile.eta, 0.0, atol=1e-14)
        assert profile.x[0] == 0.0
        assert profile.x[-1] == pytest.approx(-np.pi, rel=1e-14)
        spacing = np.diff(profile.x)
        assert np.allclose(spacing, spacing[0], atol=1e-14)
        assert profile.height == pytest.approx(0.0, abs=1e-15)

    def test_half_period_span(self, wave_35):
        profile = nk.reconstruct_profile(wave_35.field, 3.5, wavelength=4.0)
        assert profile.x[-1] - profile.x[0] == pytest.approx(-2.0, rel=1e-13)

    def test_small_amplitude_cosine_shape(self):
        mu_prime = 0.05
        res = solved_field(3.0 + mu_prime, n=256)
        profile = nk.reconstruct_profile(res.field, res.mu)
        a1 = res.field.coefficients[0]
        fitted = np.trapezoid(profile.eta * np.cos(profile.theta),
                              profile.theta) / (np.pi / 2.0)
        assert fitted == pytest.approx(a1, rel=1e-2)
        rel_err = np.abs(profile.eta - fitted * np.cos(profile.theta)).max()
        assert rel_err < 0.02 * abs(fitted)

    def test_crest_above_trough(self, wave_35):
        profile = nk.reconstruct_profile(wave_35.field, 3.5)
        assert profile.eta[0] > profile.eta[-1]
        assert profile.height > 0

    def test_zero_mean_gauge(self, wave_35):
        profile = nk.reconstruct_profile(wave_35.field, 3.5)
        mean = np.trapezoid(profile.eta, profile.x) / (profile.x[-1] - profile.x[0])
        assert abs(mean) < 1e-12
        assert "eta_offset_mean_zero" in profile.metadata
        assert "eta_trough" in profile.metadata

    def test_geometry_warning(self):
        field = field_of(128, lambda t: 1.7 * np.sin(t))
        with pytest.warns(nk.GeometryWarning):
            nk.reconstruct_profile(field, 3.01)

    def test_validation(self, wave_35):
        with pytest.raises(ValueError):
            nk.reconstruct_profile(wave_35.field, 3.5, wavelength=-1.0)


class TestPhysicalParams:
    def test_flat_dispersion(self):
        c, q0 = nk.physical_params(nk.AngleField.zero(64), mu=3.0,
                                   wavelength=2 * np.pi, g=1.0)
        assert c**2 == pytest.approx(1.0, rel=1e-14)
        assert q0 == pytest.approx(c, rel=1e-14)

    def test_dimensional_scaling(self):
        g, lam = 9.81, 40.0
        c, q0 = nk.physical_params(nk.AngleField.zero(64), mu=3.0,
                                   wavelength=lam, g=g)
        assert c**2 == pytest.approx(g * lam / (2 * np.pi), rel=1e-13)

    def test_dispersion_limit_order(self):
        errs = []
        for mu_prime in (0.01, 0.005):
            res = solved_field(3.0 + mu_prime, n=256)
            c, _ = nk.physical_params(res.field, res.mu)
            errs.append(abs(c * c - 1.0))
        assert errs[1] < 0.6 * errs[0]

    def test_crest_speed_decreases_along_branch(self, small_branch):
        q0s = [nk.physical_params(p.field, p.mu)[1] for p in small_branch]
        assert all(a > b for a, b in zip(q0s, q0s[1:]))

    def test_crest_speed_vanishes_at_large_mu(self):
        res = solved_field(8.0)
        _, q0_8 = nk.physical_params(res.field, 8.0)
        assert q0_8 < 0.85
        # q0 ~ mu^(-1/3) decay
        _, q0_3 = nk.physical_params(solved_field(3.5).field, 3.5)
        assert q0_8 < q0_3

    def test_r_at_crest_is_speed_ratio(self, wave_35):
        profile = nk.reconstruct_profile(wave_35.field, 3.5)
        assert profile.R[0] == pytest.approx(profile.c / profile.q0, rel=1e-12)

    def test_validation(self, wave_35):
        with pytest.raises(ValueError):
            nk.physical_params(wave_35.field, mu=np.inf)


class TestWaveHeightCrossChecks:
    def test_flat(self):
        profile = nk.reconstruct_profile(nk.AngleField.zero(64), mu=3.0)
        assert profile.height == pytest.approx(0.0, abs=1e-15)

    def test_matches_series_at_small_amplitude(self):
        mu_prime = 0.02
        res = solved_field(3.0 + mu_prime, n=256)
        profile = nk.reconstruct_profile(res.field, res.mu)
        predicted = nk.wave_height_series(mu_prime, 2 * np.pi)
        assert abs(profile.height - predicted) < 5.0 * mu_prime**4


class TestMapCoefficients:
    def test_flat(self):
        a = nk.profile_from_map_coefficients(nk.AngleField.zero(64), mu=3.0).a_k
        assert np.all(a == 0.0)

    def test_leading_coefficient(self, wave_35):
        a = nk.profile_from_map_coefficients(wave_35.field, 3.5).a_k
        b = wave_35.field.coefficients
        assert a[0] == pytest.approx(b[0], rel=1e-13)
        assert a[1] == pytest.approx(b[1] + 0.5 * b[0]**2, rel=1e-12)

    def test_conjugate_series_identity(self, wave_35):
        # log R's cosine coefficients must equal Phi's sine coefficients:
        # both are the power-series coefficients of log f
        from scipy import fft as _fft
        field = wave_35.field
        log_r = np.log(nk.reconstruct_profile(field, 3.5).R)
        n = field.n
        cos_coeffs = (_fft.dct(log_r, type=1) / n)[1:-1]
        assert np.abs(cos_coeffs - field.coefficients).max() < 1e-10

    def test_cross_route_profiles_agree(self, wave_35):
        p1 = nk.reconstruct_profile(wave_35.field, 3.5)
        p2 = nk.profile_from_map_coefficients(wave_35.field, 3.5)
        assert np.abs(p1.eta - p2.eta).max() < 1e-8
        assert np.abs(p1.x - p2.x).max() < 1e-8

    def test_zero_modes(self, wave_35):
        # a_1..a_k depend only on b_1..b_k, so a prefix of the full result
        # is the reference loop run to k
        a = _map_coefficients(wave_35.field)[:0]
        assert a.shape == (0,)
        assert np.array_equal(a, _reference_map_coefficients(wave_35.field, np.int64(0)))

    @pytest.mark.parametrize("n", [128, 512, 1024])
    @pytest.mark.parametrize("mu", [3.05, 3.5, 6.0])
    def test_matches_reference_loop_on_solved_fields(self, mu, n):
        field = solved_field(mu, n).field
        a = _map_coefficients(field)
        for k_max in (None, 1, 7, n // 4):
            assert np.array_equal(a[:k_max], _reference_map_coefficients(field, k_max))

    @settings(max_examples=50, deadline=None)
    @given(_coefficient_fields())
    def test_matches_reference_loop_on_random_coefficients(self, field):
        a = _map_coefficients(field)
        assert a.flags.c_contiguous
        assert np.array_equal(a, _reference_map_coefficients(field))
