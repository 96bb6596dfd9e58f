import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nekrasov as nk
from nekrasov.series import TrigPolynomial, series_coefficients


class TestExpansion:
    def test_order_one(self):
        s = nk.expand_solution(1)
        assert s.coefficient(1, 1) == Fraction(1, 9)
        assert s.coefficients.keys() == {1}

    def test_order_two(self):
        s = nk.expand_solution(2)
        assert s.coefficient(1, 1) == Fraction(1, 9)
        assert s.coefficient(2, 1) == Fraction(-8, 243)
        assert s.coefficient(2, 2) == Fraction(1, 54)

    def test_order_three(self):
        s = nk.expand_solution(3)
        assert s.coefficient(3, 1) == Fraction(115, 13122)
        assert s.coefficient(3, 2) == Fraction(-8, 729)
        assert s.coefficient(3, 3) == Fraction(17, 4374)

    def test_order_four_exists_and_is_triangular(self):
        s = nk.expand_solution(4)
        for p, modes in s.coefficients.items():
            assert all(1 <= k <= p for k in modes), (p, modes)
        # lower orders are unchanged by extending the expansion
        assert s.coefficient(3, 1) == Fraction(115, 13122)

    def test_order_four_row(self):
        s = nk.expand_solution(4)
        assert [s.coefficient(4, k) for k in (1, 2, 3, 4)] == [
            Fraction(-713, 354294), Fraction(185, 39366),
            Fraction(-68, 19683), Fraction(71, 78732)]

    def test_unsupported_orders(self):
        # failures are not cached: every call raises again
        for _ in range(2):
            for order in (0, 9):
                with pytest.raises(nk.UnsupportedOrderError):
                    nk.expand_solution(order)

    @pytest.mark.parametrize("order", [2.0, True, 2.5, "2", None])
    def test_non_integer_orders_rejected(self, order):
        with pytest.raises(nk.UnsupportedOrderError):
            nk.expand_solution(order)
        with pytest.raises(nk.UnsupportedOrderError):
            nk.height_coefficients_from_expansion(order)

    def test_numpy_integer_order(self):
        # a numpy integer shares the int's cache entry, so its series is
        # the very same object, with an int order
        for order in (np.int64(2), np.int32(3), np.uint8(4)):
            series = nk.expand_solution(order)
            assert series is nk.expand_solution(int(order))
            assert type(series.order) is int
            height = nk.height_coefficients_from_expansion(order)
            assert height is nk.height_coefficients_from_expansion(int(order))

    def test_intermediate_free_term(self):
        # the order-2 equation reads Phi_2 = 3 B Phi_2 + sin(2 theta)/108;
        # inverting (I - 3B) on mode 2 gives c_22 (1 - 1/2) = 1/108
        s = nk.expand_solution(2)
        assert s.coefficient(2, 2) * Fraction(1, 2) == Fraction(1, 108)


class TestExpansionCache:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_shared_read_only_and_exact(self, order):
        s = nk.expand_solution(order)
        assert nk.expand_solution(order) is s
        with pytest.raises(TypeError):
            s.coefficients[1] = {1: Fraction(1)}
        with pytest.raises(TypeError):
            s.coefficients[1][1] = Fraction(0)
        with pytest.raises(AttributeError):
            s.order = order + 1
        fresh = nk.series._expansion.__wrapped__(order)
        assert fresh is not s
        assert fresh == s


class TestEvaluation:
    def test_zero_parameter(self):
        s = nk.expand_solution(3)
        assert nk.eval_series(s, 0.0, 1.2) == 0.0

    def test_value_at_half_pi(self):
        # independent Horner on the exact fractions, including the mode-3
        # term sin(3 pi/2) = -1
        s = nk.expand_solution(3)
        mu_prime = 0.09
        b1 = (float(Fraction(1, 9)) + float(Fraction(-8, 243)) * mu_prime
              + float(Fraction(115, 13122)) * mu_prime**2) * mu_prime
        b3 = float(Fraction(17, 4374)) * mu_prime**3
        expected = b1 - b3
        assert nk.eval_series(s, mu_prime, np.pi / 2) == pytest.approx(expected, rel=1e-14)

    def test_odd_in_theta(self):
        s = nk.expand_solution(3)
        theta = np.array([0.3, 1.0, 2.4])
        assert np.allclose(nk.eval_series(s, 0.1, -theta),
                           -nk.eval_series(s, 0.1, theta), atol=1e-16)

    def test_negative_parameter_rejected(self):
        with pytest.raises(ValueError):
            nk.eval_series(nk.expand_solution(1), -0.1, 0.3)

    @pytest.mark.parametrize("mu_prime", [math.nan, math.inf, -1.0])
    def test_bad_parameter_rejected_everywhere(self, mu_prime):
        s = nk.expand_solution(2)
        with pytest.raises(ValueError):
            nk.eval_series(s, mu_prime, 0.3)
        with pytest.raises(ValueError):
            series_coefficients(s, mu_prime, 2)
        with pytest.raises(ValueError):
            nk.wave_height_series(mu_prime, 1.0)

    def test_series_coefficients_vector(self):
        s = nk.expand_solution(3)
        b = series_coefficients(s, 0.05, 4)
        assert b[0] == pytest.approx(0.05 / 9 - 8 * 0.05**2 / 243
                                     + 115 * 0.05**3 / 13122, rel=1e-14)
        assert b[3] == 0.0


class TestWaveHeight:
    def test_zero(self):
        assert nk.wave_height_series(0.0, 2 * np.pi) == 0.0

    def test_direct_arithmetic(self):
        got = nk.wave_height_series(0.1, 2 * np.pi)
        expected = 2.0 * (0.1 / 9 - 8 * 0.01 / 243 + 71 * 0.001 / 6561)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(0.021585, abs=1e-6)

    def test_height_coefficients_derived_from_expansion(self):
        # independent route: exponentiate the angle series into the map
        # coefficients and sum the odd modes; must reproduce the closed form
        derived = nk.height_coefficients_from_expansion(3)
        assert derived == (Fraction(1, 9), Fraction(-8, 243), Fraction(71, 6561))

    def test_validation(self):
        with pytest.raises(ValueError):
            nk.wave_height_series(-0.1, 1.0)
        with pytest.raises(ValueError):
            nk.wave_height_series(0.1, 0.0)

    @pytest.mark.parametrize("wavelength", [math.inf, math.nan, -1.0])
    def test_bad_wavelength_rejected(self, wavelength):
        with pytest.raises(ValueError):
            nk.wave_height_series(0.1, wavelength)

    def test_order_four_height_coefficient(self):
        derived = nk.height_coefficients_from_expansion(4)
        assert derived[:3] == nk.height_coefficients_from_expansion(3)
        assert derived[3] == Fraction(-1361, 354294)


def _sine_poly(coeffs):
    """sum_k coeffs[k-1] sin(k theta), with its value as a plain function."""
    poly = TrigPolynomial.sines({k + 1: Fraction(c) for k, c in enumerate(coeffs)})
    return poly, lambda t: sum(c * np.sin((k + 1) * t) for k, c in enumerate(coeffs))


def _cosine_poly(coeffs):
    """sum_k coeffs[k] cos(k theta): c[0] = coeffs[0], c[k] = c[-k] = coeffs[k]/2."""
    c = {}
    for k, a in enumerate(coeffs):
        c[k] = c[-k] = Fraction(a, 2 if k else 1)
    return TrigPolynomial(c), lambda t: sum(a * np.cos(k * t) for k, a in enumerate(coeffs))


def _value(poly, t):
    """i^odd sum_k c[k] e^(ik t), the representation read back directly."""
    return 1j ** poly.odd * sum(float(v) * np.exp(1j * k * t) for k, v in poly.c.items())


class TestTrigPolynomialAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=2, max_size=4),
           st.lists(st.integers(-3, 3), min_size=2, max_size=4))
    def test_product_matches_pointwise(self, a, b):
        # odd x odd, odd x even, even x odd and even x even
        theta = np.linspace(0.1, 3.0, 7)
        for (pa, fa), (pb, fb) in itertools.product((_sine_poly(a), _cosine_poly(a)),
                                                    (_sine_poly(b), _cosine_poly(b))):
            prod = pa * pb
            assert prod.odd == (pa.odd != pb.odd)
            for t in theta:
                assert _value(prod, t) == pytest.approx(fa(t) * fb(t), rel=1e-12, abs=1e-12)

    def test_integral_of_sine(self):
        p = TrigPolynomial.sines({2: Fraction(3)})
        assert p.pure_sine_coefficients() == {2: Fraction(3)}
        q = p.integral_from_zero()
        # int_0^t 3 sin 2z dz = 3/2 (1 - cos 2t)
        assert not q.odd
        assert q.c == {0: Fraction(3, 2), 2: Fraction(-3, 4), -2: Fraction(-3, 4)}

    def test_integral_rejects_even_part(self):
        cos_theta = TrigPolynomial({1: Fraction(1, 2), -1: Fraction(1, 2)})
        with pytest.raises(ValueError):
            cos_theta.integral_from_zero()

    def test_pure_sine_extraction_rejects_even(self):
        with pytest.raises(ValueError):
            TrigPolynomial({0: Fraction(1)}).pure_sine_coefficients()


class TestBranchConsistency:
    def test_small_amplitude_coefficients_match_solutions(self):
        # the cubic-decay check: the order-3 series truncation error falls
        # by ~16x when mu' halves
        errs = []
        for mu_prime in (0.04, 0.02):
            grid = nk.get_grid(256)
            series = nk.expand_solution(3)
            init = nk.AngleField(grid, values=nk.eval_series(series, mu_prime, grid.theta))
            res = nk.solve(3.0 + mu_prime, init, method="newton")
            b = res.field.coefficients
            pred = series_coefficients(series, mu_prime, 3)
            errs.append(np.abs(b[:3] - pred).max())
        assert errs[0] < 5e-8
        assert errs[1] < errs[0] / 8.0

    def test_order_four_truncation_error_is_quintic(self):
        # the order-4 truncation error of b_1..b_4 against independent
        # solves must fall like mu'^5 (32x) per halving of mu'
        series = nk.expand_solution(4)
        errs = []
        for mu_prime in (0.2, 0.1, 0.05):
            b = nk.solve_seeded(3.0 + mu_prime, n=256).field.coefficients
            errs.append(np.abs(b[:4] - series_coefficients(series, mu_prime, 4)).max())
        assert errs[0] / errs[1] >= 28.0
        assert errs[1] / errs[2] >= 28.0
