"""Small-parameter expansion of the wave branch in exact rational arithmetic.

Near the first bifurcation point mu = 3 of the deep-water equation, the
solution is a power series in mu' = mu - 3 whose terms are odd sine
polynomials:

    Phi(theta, mu') = sum_p mu'^p Phi_p(theta),
    Phi_p(theta)    = sum_{k <= p} c_{p,k} sin(k theta).

Each order gives a linear equation (I - 3B) Phi_p = B F_p whose free term
F_p collects products of lower orders; the sine modes k >= 2 invert
directly, while the free sin(theta) coefficient of order p is fixed by the
solvability (orthogonality) condition of order p + 1.  All arithmetic is
done with fractions.Fraction, so the classical coefficients 1/9, -8/243,
1/54, ... are produced exactly, not approximately.

Each Phi_p and each term of the products is a TrigPolynomial, which keeps
its coefficients in the exponential basis e^(ik theta) with a parity flag,
so a product is one double loop; a power series in mu' is the plain list
of its terms, and _product multiplies two of them.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

import numpy as np


class TrigPolynomial:
    """Real trigonometric polynomial with exact rational coefficients.

    f(theta) = i^odd * sum_k c[k] e^(i k theta), k over the integers, with
    c[-k] = c[k] for an even f and c[-k] = -c[k] for an odd one:
    cos(k theta) is c[k] = c[-k] = 1/2 and sin(k theta) is odd with
    c[k] = -1/2, c[-k] = 1/2.  A product adds the exponents of every pair
    of terms and the parities, with sign -1 when both factors are odd
    (i * i = -1).  Zero coefficients are not stored.
    """

    __slots__ = ("c", "odd")

    def __init__(self, c=None, odd=False):
        self.c: dict[int, Fraction] = {k: v for k, v in (c or {}).items() if v}
        self.odd = odd

    @classmethod
    def sines(cls, modes) -> "TrigPolynomial":
        """sum_k modes[k] sin(k theta)."""
        c = {}
        for k, s in modes.items():
            c[k], c[-k] = -Fraction(s, 2), Fraction(s, 2)
        return cls(c, odd=True)

    def __add__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        if not other.c:
            return self
        if not self.c:
            return other
        if self.odd != other.odd:
            raise ValueError("cannot add an even and an odd polynomial")
        c = dict(self.c)
        for k, v in other.c.items():
            c[k] = c.get(k, 0) + v
        return TrigPolynomial(c, self.odd)

    def __mul__(self, other) -> "TrigPolynomial":
        """Product with another polynomial or with a rational number."""
        if not isinstance(other, TrigPolynomial):
            other = TrigPolynomial({0: Fraction(other)})
        sign = -1 if self.odd and other.odd else 1
        c: dict[int, Fraction] = {}
        for j, u in self.c.items():
            u *= sign
            for k, v in other.c.items():
                c[j + k] = c[j + k] + u * v if j + k in c else u * v
        return TrigPolynomial(c, self.odd != other.odd)

    def integral_from_zero(self) -> "TrigPolynomial":
        """Int_0^theta of a pure sine polynomial: i c_k e^(ik z) integrates
        to c_k (e^(ik theta) - 1) / k."""
        if not self.odd and self.c:
            raise ValueError("integral_from_zero requires a pure sine polynomial")
        c = {k: v / k for k, v in self.c.items()}
        c[0] = -sum(c.values(), Fraction(0))
        return TrigPolynomial(c)

    def pure_sine_coefficients(self) -> dict[int, Fraction]:
        """The s_k of f = sum_k s_k sin(k theta), s_k = -2 c[k]."""
        if not self.odd and self.c:
            raise ValueError(f"polynomial has even part {self.c}; expected odd")
        return {k: -2 * v for k, v in self.c.items() if k > 0}


def _product(a: list, b: list) -> list:
    """Cauchy product of two power series in mu', each the list of its terms
    (rationals or TrigPolynomials), truncated to the shorter one."""
    return [functools.reduce(operator.add, (a[i] * b[p - i] for i in range(p + 1)))
            for p in range(min(len(a), len(b)))]


class UnsupportedOrderError(ValueError):
    """Requested expansion order that is not an integer from 1 to MAX_ORDER."""


MAX_ORDER = 4


def _check_order(order) -> int:
    """order as an int: an integer (numpy's too, not a bool) in 1..MAX_ORDER."""
    if (isinstance(order, bool) or not isinstance(order, numbers.Integral)
            or not 1 <= order <= MAX_ORDER):
        raise UnsupportedOrderError(
            f"order must be an integer between 1 and {MAX_ORDER}, got {order!r}")
    return int(order)


def _check_mu_prime(mu_prime) -> None:
    if not (math.isfinite(mu_prime) and mu_prime >= 0):
        raise ValueError(f"mu_prime must be finite and nonnegative, got {mu_prime}")


@dataclass(frozen=True)
class RationalSineSeries:
    """Exact coefficients c_{p,k} of sin(k theta) per power p of mu'.

    Read-only: `coefficients` and each inner map are stored as mapping
    proxies, so one instance can be shared by every caller.
    """

    order: int
    coefficients: Mapping[int, Mapping[int, Fraction]] = field(default_factory=dict)

    def __post_init__(self):
        frozen = {p: MappingProxyType(dict(modes)) for p, modes in self.coefficients.items()}
        object.__setattr__(self, "coefficients", MappingProxyType(frozen))

    def coefficient(self, p: int, k: int) -> Fraction:
        return self.coefficients.get(p, {}).get(k, Fraction(0))

    def mode_series(self, k: int) -> list[Fraction]:
        """Coefficients of mu'^p (p = 0..order) multiplying sin(k theta)."""
        return [self.coefficient(p, k) for p in range(self.order + 1)]


def _mu_g_series(phis: list[TrigPolynomial], order: int) -> list[TrigPolynomial]:
    """The integrand series mu * sin Phi / (1 + mu * Int sin Phi) to the
    given order, for Phi = sum mu'^p phis[p-1]."""
    zero, one = TrigPolynomial(), TrigPolynomial({0: Fraction(1)})
    phi = [zero] + phis
    # sin Phi = Phi - Phi^3/3! + Phi^5/5! - ..., Phi^m starting at mu'^m
    square = _product(phi, phi)
    sin_phi = power = phi
    for m in range(3, order + 1, 2):
        power = _product(power, square)
        sin_phi = [s + t * Fraction((-1) ** (m // 2), math.factorial(m))
                   for s, t in zip(sin_phi, power)]
    mu = [one * 3, one] + [zero] * (order - 1)
    # 1 / (1 + X) = 1 - X (1 - X (1 - ...)) for X = mu Int sin Phi, whose
    # mu'^0 term is zero
    minus_x = [t * -1 for t in _product(mu, [t.integral_from_zero() for t in sin_phi])]
    inverse = [one] + [zero] * order
    for _ in range(order):
        inverse = [one] + _product(minus_x, inverse)[1:]
    return _product(_product(mu, sin_phi), inverse)


def _order_term_without_current(phis: list[TrigPolynomial], p: int) -> dict[int, Fraction]:
    """Free term F_p: the order-p sine coefficients of mu*g computed with
    Phi_p = 0, so that (mu*g)_p = 3*Phi_p + F_p isolates F_p."""
    padded = phis[:p - 1] + [TrigPolynomial()] * (p - len(phis[:p - 1]))
    return _mu_g_series(padded, p)[p].pure_sine_coefficients()


def _solve_order(free_term: dict[int, Fraction], p: int) -> dict[int, Fraction]:
    """Invert (I - 3B) on modes k >= 2: c_k = f_k / (3 (k - 1))."""
    out: dict[int, Fraction] = {}
    for k, f in free_term.items():
        if k == 1:
            continue
        out[k] = f / (3 * (k - 1))
    if any(k > p for k in out):
        raise AssertionError(f"order {p} produced modes above {p}: {sorted(out)}")
    return out


def _solvability_coefficient(phis: list[TrigPolynomial], p: int, c_value: Fraction) -> Fraction:
    """sin(theta) coefficient of F_p as a function of the free constant
    C_{p-1} in Phi_{p-1}."""
    trial = list(phis)
    trial[p - 2] = trial[p - 2] + TrigPolynomial.sines({1: c_value})
    return _order_term_without_current(trial, p).get(1, Fraction(0))


def expand_solution(order: int) -> RationalSineSeries:
    """Run the bifurcation recurrence to the given order (1..4).

    Order p requires the solvability condition at order p + 1 to pin the
    free sin(theta) constant C_p, so the expansion is carried one order
    beyond the request internally.  The result is computed on the first
    call for each order and cached on the order as an int; every later
    caller, with numpy's integer too, shares the same read-only series.
    """
    return _expansion(_check_order(order))


@functools.cache
def _expansion(order: int) -> RationalSineSeries:
    # Phi_p accumulated with C_p initially zero;  C_p is found at order p+1.
    phis: list[TrigPolynomial] = [TrigPolynomial()]
    # order-2 solvability is quadratic in C_1: f(C) = beta*C + alpha*C^2
    f1 = _solvability_coefficient(phis, 2, Fraction(1))
    f2 = _solvability_coefficient(phis, 2, Fraction(2))
    alpha = (f2 - 2 * f1) / 2
    beta = (4 * f1 - f2) / 2
    if alpha == 0:
        raise AssertionError("order-2 solvability degenerated")
    c1 = -beta / alpha
    phis[0] = TrigPolynomial.sines({1: c1})

    for p in range(2, order + 1):
        tail = _solve_order(_order_term_without_current(phis, p), p)
        phis.append(TrigPolynomial.sines(tail))
        # affine solvability at order p+1 fixes C_p
        f0 = _solvability_coefficient(phis, p + 1, Fraction(0))
        f1 = _solvability_coefficient(phis, p + 1, Fraction(1))
        slope = f1 - f0
        if slope == 0:
            raise AssertionError(f"order-{p + 1} solvability degenerated")
        c_p = -f0 / slope
        phis[p - 1] = phis[p - 1] + TrigPolynomial.sines({1: c_p})

    coeffs = {p + 1: phi.pure_sine_coefficients() for p, phi in enumerate(phis)}
    return RationalSineSeries(order=order, coefficients=coeffs)


def eval_series(series: RationalSineSeries, mu_prime: float, theta) -> np.ndarray:
    """Evaluate sum_p mu'^p sum_k c_{p,k} sin(k theta) in floating point."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta, dtype=float)
    modes = sorted({k for d in series.coefficients.values() for k in d})
    amps = series_coefficients(series, mu_prime, max(modes, default=0))
    for k in modes:
        out = out + amps[k - 1] * np.sin(k * theta)
    return out if out.ndim else float(out)


def series_coefficients(series: RationalSineSeries, mu_prime: float, k_max: int) -> np.ndarray:
    """Floating-point sine coefficients b_k of the truncated expansion,
    each mode's polynomial in mu' evaluated by Horner's rule."""
    _check_mu_prime(mu_prime)
    out = np.zeros(k_max)
    for k in range(1, k_max + 1):
        amp = 0.0
        for coeff in reversed(series.mode_series(k)):
            amp = amp * mu_prime + float(coeff)
        out[k - 1] = amp
    return out


def wave_height_series(mu_prime: float, wavelength: float) -> float:
    """Crest-to-trough height of the small-amplitude wave.

    (lambda/pi) * [mu'/9 - 8 mu'^2/243 + 71 mu'^3/6561].
    """
    _check_mu_prime(mu_prime)
    if not (math.isfinite(wavelength) and wavelength > 0):
        raise ValueError(f"wavelength must be finite and positive, got {wavelength}")
    acc = 0.0
    for coeff in reversed(height_coefficients_from_expansion(3)):
        acc = (acc + float(coeff)) * mu_prime
    return wavelength / np.pi * acc


def height_coefficients_from_expansion(order: int = 3) -> tuple[Fraction, ...]:
    """The height/wavelength coefficients of mu'^1..mu'^order, derived from
    the expansion itself; order 3 gives the classical 1/9, -8/243, 71/6561.

    The angle coefficients b_k exponentiate to the surface-map coefficients
    a_k (log f has power-series coefficients equal to the b_k), and the
    crest-to-trough height is (lambda/pi) sum_{k odd} a_k / k.  Everything
    is exact; the result is computed on the first call for each order and
    cached on the order as an int, like expand_solution's.
    """
    return _height_coefficients(_check_order(order))


@functools.cache
def _height_coefficients(order: int) -> tuple[Fraction, ...]:
    series = expand_solution(order)
    # a_k as mu'-polynomials via exp of the power series sum b_k u^k:
    # k a_k = sum_{m=1..k} m b_m a_{k-m}
    b = {k: series.mode_series(k) for k in range(1, order + 1)}
    a = [[Fraction(1)] + [Fraction(0)] * order]
    for k in range(1, order + 1):
        acc = [Fraction(0)] * (order + 1)
        for m in range(1, k + 1):
            acc = [x + Fraction(m, k) * y for x, y in zip(acc, _product(b[m], a[k - m]))]
        a.append(acc)
    return tuple(sum(a[k][p] / k for k in range(1, order + 1, 2))
                 for p in range(1, order + 1))
