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
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from types import MappingProxyType

import numpy as np

_HALF = Fraction(1, 2)


class TrigPolynomial:
    """Trigonometric polynomial with exact rational coefficients.

    cos holds cos(k theta) coefficients (k = 0 is the constant term);
    sin holds sin(k theta) coefficients (k >= 1).
    """

    __slots__ = ("cos", "sin")

    def __init__(self, cos=None, sin=None):
        self.cos: dict[int, Fraction] = dict(cos or {})
        self.sin: dict[int, Fraction] = dict(sin or {})

    @classmethod
    def zero(cls) -> "TrigPolynomial":
        return cls()

    @classmethod
    def sine(cls, k: int, coeff) -> "TrigPolynomial":
        return cls(sin={k: Fraction(coeff)})

    def is_zero(self) -> bool:
        return not any(self.cos.values()) and not any(self.sin.values())

    def _clean(self) -> "TrigPolynomial":
        return TrigPolynomial(
            cos={k: c for k, c in self.cos.items() if c != 0},
            sin={k: c for k, c in self.sin.items() if c != 0})

    def __add__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        out = TrigPolynomial(self.cos, self.sin)
        for k, c in other.cos.items():
            out.cos[k] = out.cos.get(k, Fraction(0)) + c
        for k, c in other.sin.items():
            out.sin[k] = out.sin.get(k, Fraction(0)) + c
        return out._clean()

    def scaled(self, factor) -> "TrigPolynomial":
        factor = Fraction(factor)
        return TrigPolynomial(cos={k: c * factor for k, c in self.cos.items()},
                              sin={k: c * factor for k, c in self.sin.items()})._clean()

    def __mul__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        # product-to-sum identities; cos(-k) = cos(k), sin(-k) = -sin(k)
        cos: dict[int, Fraction] = {}
        sin: dict[int, Fraction] = {}

        def add_cos(k, c):
            if k < 0:
                k = -k
            cos[k] = cos.get(k, Fraction(0)) + c

        def add_sin(k, c):
            if k == 0:
                return
            if k < 0:
                k, c = -k, -c
            sin[k] = sin.get(k, Fraction(0)) + c

        for a, ca in self.cos.items():
            for b, cb in other.cos.items():
                add_cos(a + b, ca * cb * _HALF)
                add_cos(a - b, ca * cb * _HALF)
            for b, cb in other.sin.items():
                add_sin(a + b, ca * cb * _HALF)
                add_sin(b - a, ca * cb * _HALF)
        for a, ca in self.sin.items():
            for b, cb in other.cos.items():
                add_sin(a + b, ca * cb * _HALF)
                add_sin(a - b, ca * cb * _HALF)
            for b, cb in other.sin.items():
                add_cos(a - b, ca * cb * _HALF)
                add_cos(a + b, -ca * cb * _HALF)
        return TrigPolynomial(cos=cos, sin=sin)._clean()

    def integral_from_zero(self) -> "TrigPolynomial":
        """Int_0^theta of a pure sine polynomial: sum s_k (1 - cos k theta)/k."""
        if self.cos and any(c != 0 for c in self.cos.values()):
            raise ValueError("integral_from_zero requires a pure sine polynomial")
        out = TrigPolynomial()
        const = Fraction(0)
        for k, c in self.sin.items():
            const += c / k
            out.cos[k] = -c / k
        out.cos[0] = const
        return out._clean()

    def pure_sine_coefficients(self) -> dict[int, Fraction]:
        bad = {k: c for k, c in self.cos.items() if c != 0}
        if bad:
            raise ValueError(f"polynomial has even part {bad}; expected odd")
        return {k: c for k, c in self.sin.items() if c != 0}


class MuSeries:
    """Truncated power series in mu' with TrigPolynomial coefficients."""

    __slots__ = ("terms", "order")

    def __init__(self, terms: list[TrigPolynomial], order: int):
        self.order = order
        terms = list(terms[:order + 1])
        while len(terms) < order + 1:
            terms.append(TrigPolynomial.zero())
        self.terms = terms

    @classmethod
    def zero(cls, order: int) -> "MuSeries":
        return cls([], order)

    @classmethod
    def constant(cls, value, order: int) -> "MuSeries":
        return cls([TrigPolynomial(cos={0: Fraction(value)})], order)

    def __add__(self, other: "MuSeries") -> "MuSeries":
        order = min(self.order, other.order)
        return MuSeries([self.terms[p] + other.terms[p] for p in range(order + 1)], order)

    def scaled(self, factor) -> "MuSeries":
        return MuSeries([t.scaled(factor) for t in self.terms], self.order)

    def shifted(self, powers: int) -> "MuSeries":
        """Multiply by mu'^powers."""
        return MuSeries([TrigPolynomial.zero()] * powers + self.terms, self.order)

    def __mul__(self, other: "MuSeries") -> "MuSeries":
        order = min(self.order, other.order)
        out = [TrigPolynomial.zero() for _ in range(order + 1)]
        for p, a in enumerate(self.terms[:order + 1]):
            if a.is_zero():
                continue
            for q in range(order + 1 - p):
                b = other.terms[q]
                if b.is_zero():
                    continue
                out[p + q] = out[p + q] + a * b
        return MuSeries(out, order)

    def low_order(self) -> int:
        for p, t in enumerate(self.terms):
            if not t.is_zero():
                return p
        return self.order + 1

    def sin_of(self) -> "MuSeries":
        """sin(X) = X - X^3/6 + X^5/120 - ... for a series with no order-0 term."""
        if not self.terms[0].is_zero():
            raise ValueError("sin_of requires a series vanishing at order 0")
        out = MuSeries.zero(self.order)
        power = MuSeries([t for t in self.terms], self.order)
        square = self * self
        m = 1
        sign = 1
        while m <= self.order:
            out = out + power.scaled(Fraction(sign, factorial(m)))
            power = power * square
            m += 2
            sign = -sign
        return out

    def integral_from_zero(self) -> "MuSeries":
        return MuSeries([t.integral_from_zero() for t in self.terms], self.order)

    def geometric_inverse(self) -> "MuSeries":
        """1 / (1 + X) = sum (-X)^m for a series X with no order-0 term."""
        if not self.terms[0].is_zero():
            raise ValueError("geometric_inverse requires no order-0 term")
        one = MuSeries.constant(1, self.order)
        out = one
        power = one
        low = max(1, self.low_order())
        m = 1
        while m * low <= self.order:
            power = power * self.scaled(-1)
            out = out + power
            m += 1
        return out


class UnsupportedOrderError(ValueError):
    """Requested expansion order beyond the implemented maximum."""


MAX_ORDER = 4


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


def _mu_g_series(phis: list[TrigPolynomial], order: int) -> MuSeries:
    """The integrand series mu * sin Phi / (1 + mu * Int sin Phi) to the
    given order, for Phi = sum mu'^p phis[p-1]."""
    phi = MuSeries([TrigPolynomial.zero()] + phis, order)
    sin_phi = phi.sin_of()
    mu = MuSeries.constant(3, order) + MuSeries.constant(1, order).shifted(1)
    mu_j = mu * sin_phi.integral_from_zero()
    return mu * sin_phi * mu_j.geometric_inverse()


def _order_term_without_current(phis: list[TrigPolynomial], p: int) -> dict[int, Fraction]:
    """Free term F_p: the order-p sine coefficients of mu*g computed with
    Phi_p = 0, so that (mu*g)_p = 3*Phi_p + F_p isolates F_p."""
    padded = phis[:p - 1] + [TrigPolynomial.zero()] * (p - len(phis[:p - 1]))
    series = _mu_g_series(padded, p)
    return series.terms[p].pure_sine_coefficients()


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
    trial[p - 2] = trial[p - 2] + TrigPolynomial.sine(1, c_value)
    return _order_term_without_current(trial, p).get(1, Fraction(0))


@functools.cache
def expand_solution(order: int) -> RationalSineSeries:
    """Run the bifurcation recurrence to the given order (1..4).

    Order p requires the solvability condition at order p + 1 to pin the
    free sin(theta) constant C_p, so the expansion is carried one order
    beyond the request internally.  The result is computed on the first
    call for each order and cached; every later caller shares the same
    read-only series.
    """
    if not 1 <= order <= MAX_ORDER:
        raise UnsupportedOrderError(
            f"order must be between 1 and {MAX_ORDER}, got {order}")

    # Phi_p accumulated with C_p initially zero;  C_p is found at order p+1.
    phis: list[TrigPolynomial] = [TrigPolynomial.zero()]
    # order-2 solvability is quadratic in C_1: f(C) = beta*C + alpha*C^2
    f1 = _solvability_coefficient(phis, 2, Fraction(1))
    f2 = _solvability_coefficient(phis, 2, Fraction(2))
    alpha = (f2 - 2 * f1) / 2
    beta = (4 * f1 - f2) / 2
    if alpha == 0:
        raise AssertionError("order-2 solvability degenerated")
    c1 = -beta / alpha
    phis[0] = TrigPolynomial.sine(1, c1)

    for p in range(2, order + 1):
        tail = _solve_order(_order_term_without_current(phis, p), p)
        phis.append(TrigPolynomial(sin=tail))
        # affine solvability at order p+1 fixes C_p
        f0 = _solvability_coefficient(phis, p + 1, Fraction(0))
        f1 = _solvability_coefficient(phis, p + 1, Fraction(1))
        slope = f1 - f0
        if slope == 0:
            raise AssertionError(f"order-{p + 1} solvability degenerated")
        c_p = -f0 / slope
        phis[p - 1] = phis[p - 1] + TrigPolynomial.sine(1, c_p)

    coeffs = {p + 1: phi.pure_sine_coefficients() for p, phi in enumerate(phis)}
    return RationalSineSeries(order=order, coefficients=coeffs)


def eval_series(series: RationalSineSeries, mu_prime: float, theta) -> np.ndarray:
    """Evaluate sum_p mu'^p sum_k c_{p,k} sin(k theta) in floating point."""
    if mu_prime < 0:
        raise ValueError(f"mu_prime must be nonnegative, got {mu_prime}")
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
    if mu_prime < 0:
        raise ValueError(f"mu_prime must be nonnegative, got {mu_prime}")
    if not wavelength > 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    acc = 0.0
    for coeff in reversed(height_coefficients_from_expansion(3)):
        acc = (acc + float(coeff)) * mu_prime
    return wavelength / np.pi * acc


@functools.cache
def height_coefficients_from_expansion(order: int = 3) -> tuple[Fraction, ...]:
    """The height/wavelength coefficients of mu'^1..mu'^order, derived from
    the expansion itself; order 3 gives the classical 1/9, -8/243, 71/6561.

    The angle coefficients b_k exponentiate to the surface-map coefficients
    a_k (log f has power-series coefficients equal to the b_k), and the
    crest-to-trough height is (lambda/pi) sum_{k odd} a_k / k.  Everything
    is exact; the result is computed on the first call for each order and
    cached, like expand_solution's.
    """
    series = expand_solution(order)
    # a_k as mu'-polynomials via exp of the power series sum b_k u^k
    zero = [Fraction(0)] * (order + 1)

    def poly_mul(u, v):
        out = list(zero)
        for i, a in enumerate(u):
            if a == 0:
                continue
            for j, b in enumerate(v):
                if i + j <= order and b != 0:
                    out[i + j] += a * b
        return out

    b = {k: series.mode_series(k) for k in range(1, order + 1)}
    a: dict[int, list[Fraction]] = {0: [Fraction(1)] + zero[1:]}
    for k in range(1, order + 1):
        acc = list(zero)
        for m in range(1, k + 1):
            term = poly_mul(b.get(m, zero), a[k - m])
            acc = [x + Fraction(m, k) * y for x, y in zip(acc, term)]
        a[k] = acc
    height = list(zero)
    for k in range(1, order + 1, 2):
        height = [x + y / k for x, y in zip(height, a[k])]
    return tuple(height[1:order + 1])
