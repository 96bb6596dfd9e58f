"""Sine-spectral grid on (0, pi), uniform or crest-clustered, and odd angle fields.

The tangent angle of a symmetric periodic wave is an odd 2pi-periodic
function, zero at theta = 0 and theta = pi.  Working on the interior grid
q_j = j*pi/n with a sine basis hard-codes that symmetry: every field
handled here is implicitly extended by Phi(-theta) = -Phi(theta).  The
nodes are theta_j = q_j, or on a mapped grid theta(q_j) with tan(theta/2)
= L tan(q/2), which keeps that symmetry; every transform acts in q.

The grid's transforms are scipy's unnormalised DST-I on the n - 1 interior
values and DCT-I on the n + 1 closed-grid values, each one pocketfft call
(a real FFT of length 2n) at every n.  They are called through
scipy.fftpack, whose dst and dct pass the array straight to the pocketfft
backend that scipy.fft dispatches to, so every result is bitwise that of
scipy.fft; _dst1 and _dct1 are the one place that picks that backend.

AngleField.sup_norm and AngleField.resample both start from the field on
its grid refined four times, the DST-I of its coefficients zero-padded to
4n - 1 modes, built without caching a grid that nothing else uses.

get_grid hands every caller the same SineGrid for a given (n, L) (numpy's
integers included) while it stays among the GRID_CACHE most recently used,
and antiderivative_closed writes through that grid's one closed-grid
scratch array, so a grid is safe for one thread at a time.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np
from scipy import fftpack

TAIL_FRACTION = 0.25


def _dst1(x: np.ndarray) -> np.ndarray:
    """DST-I (scipy.fft.dst(x, type=1)) of the n - 1 interior values of grid n."""
    return fftpack.dst(x, type=1)


def _dct1(x: np.ndarray) -> np.ndarray:
    """DCT-I (scipy.fft.dct(x, type=1)) of the n + 1 closed-grid values of grid n."""
    return fftpack.dct(x, type=1)


def _grid_size(n) -> int:
    """n as an int: an integer (numpy's too, not a bool) of at least 4."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 4:
        raise ValueError(f"grid size must be an integer of at least 4, got {n!r}")
    return int(n)


class SineGrid:
    """Interior nodes theta_j = theta(q_j), q_j = j*pi/n, j = 1..n-1, with
    DST-I transforms in q.

    The map tan(theta/2) = L tan(q/2), 0 < L <= 1, clusters the nodes at the
    crest theta = 0 (Lushnikov, Dyachenko & Silantyev, Proc. R. Soc. A 473,
    2017); a field is odd and 2 pi-periodic in q as in theta, so every
    transform is in q and dtheta holds theta'(q) = L / (cos^2(q/2) +
    L^2 sin^2(q/2)).  L = 1 is the uniform grid, theta = q, theta' = 1.
    """

    def __init__(self, n: int, L: float = 1.0):
        self.n = _grid_size(n)
        if not 0.0 < L <= 1.0:
            raise ValueError(f"the map parameter L must lie in (0, 1], got {L!r}")
        self.L = float(L)
        self.modes = np.arange(1, self.n)
        # closed grid includes the endpoints theta = 0 and theta = pi
        self.q_closed = q = np.arange(0, self.n + 1) * (np.pi / self.n)
        self.theta_closed, self.dtheta_closed = q, np.ones(self.n + 1)
        if L != 1.0:
            sin, cos = np.sin(0.5 * q), np.cos(0.5 * q)
            self.theta_closed = 2.0 * np.arctan2(L * sin, cos)
            self.theta_closed[-1] = np.pi
            self.dtheta_closed = L / (cos * cos + L * L * sin * sin)
        self.theta = self.theta_closed[1:-1]
        self.dtheta = self.dtheta_closed[1:-1]
        # antiderivative_closed's factors 1/(2nk) and its closed-grid input,
        # whose two end values stay zero
        self._half_inv_nk = 0.5 / (self.n * self.modes)
        self._closed = np.zeros(self.n + 1)

    def q_of(self, theta: np.ndarray) -> np.ndarray:
        """The map's inverse, q = 2 arctan(tan(theta/2) / L), continuous in
        theta and equal to theta modulo 2 pi."""
        half = 0.5 * np.asarray(theta, dtype=float)
        return 2.0 * np.arctan2(np.sin(half), self.L * np.cos(half))

    def __repr__(self) -> str:
        return f"SineGrid(n={self.n}, L={self.L!r})"

    def to_coefficients(self, values: np.ndarray) -> np.ndarray:
        """Sine coefficients b_k of the interpolant sum b_k sin(k theta)."""
        return _dst1(values) / self.n

    def to_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Grid values of sum b_k sin(k theta_j)."""
        return _dst1(coeffs) / 2.0

    def cosine_values_closed(self, coeffs: np.ndarray) -> np.ndarray:
        """Values of sum_{k>=1} c_k cos(k theta) on the closed grid [0, pi].

        Input is indexed by mode k = 1..n-1.
        """
        y = np.zeros(self.n + 1)
        y[1:self.n] = coeffs
        return _dct1(y) / 2.0

    def cosine_coefficients_closed(self, values: np.ndarray) -> np.ndarray:
        """Cosine coefficients c_k, k = 1..n-1, of a zero-mean even function
        sampled on the closed grid; the inverse of cosine_values_closed."""
        # DCT-I is self-inverse up to 2/n on this grid
        return _dct1(values)[1:-1] / self.n

    def antiderivative_closed(self, values: np.ndarray) -> np.ndarray:
        """Integral from 0 to theta of the sine interpolant, on [0, pi].

        For an odd integrand the result is even;  it is returned on the
        closed grid so that the exact values at 0 and pi are available.
        With the half coefficients u_k = b_k / (2k) = DST-I(values)_k / (2nk)
        it is 2 sum u_k - DCT-I(0, u, 0): one scaling pass, written into a
        reused closed-grid array.  That scratch array belongs to the grid, so
        the grid is safe for one thread at a time.
        """
        u = self._closed[1:-1]
        np.multiply(_dst1(values), self._half_inv_nk, out=u)
        out = _dct1(self._closed)
        np.subtract(2.0 * u.sum(), out, out=out)
        out[0] = 0.0  # identically zero; avoid summation-order round-off
        return out

    def evaluate_sine(self, coeffs: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Evaluate sum b_k sin(k q) at arbitrary points q (direct sum)."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        out = np.zeros_like(theta)
        # chunk over modes to bound the temporary outer-product size
        step = max(1, int(4e6 // max(1, theta.size)))
        for start in range(0, coeffs.size, step):
            k = self.modes[start:start + step]
            out += np.sin(np.multiply.outer(theta, k)) @ coeffs[start:start + step]
        return out


def get_grid(n: int, L: float = 1.0) -> SineGrid:
    """The grid of n points with map parameter L, cached on (n, L) for the
    GRID_CACHE most recently used keys."""
    return _cached_grid(_grid_size(n), float(L))


GRID_CACHE = 32
# AngleField.resample's Lagrange stencil j = -3..4, weight denominators prod_{l != j} (j - l)
_STENCIL = np.arange(-3, 5)[:, None]
_STENCIL_SCALE = np.prod(_STENCIL - _STENCIL.T + np.eye(8), axis=1, keepdims=True)


@functools.lru_cache(maxsize=GRID_CACHE)
def _cached_grid(n: int, L: float) -> SineGrid:
    return SineGrid(n, L)


class AngleField:
    """Odd angle function Phi on a SineGrid (grid values + sine coefficients)."""

    __slots__ = ("grid", "_values", "_coeffs")

    def __init__(self, grid: SineGrid, values: np.ndarray | None = None,
                 coefficients: np.ndarray | None = None):
        if (values is None) == (coefficients is None):
            raise ValueError("provide exactly one of values / coefficients")
        self.grid = grid
        if values is not None:
            values = np.asarray(values, dtype=float)
            if values.shape != (grid.n - 1,):
                raise ValueError(f"expected {grid.n - 1} grid values, got {values.shape}")
        if coefficients is not None:
            coefficients = np.asarray(coefficients, dtype=float)
            if coefficients.shape != (grid.n - 1,):
                raise ValueError(f"expected {grid.n - 1} coefficients, got {coefficients.shape}")
        self._values = values
        self._coeffs = coefficients

    @classmethod
    def from_coefficients(cls, coeffs: np.ndarray, n: int | None = None) -> "AngleField":
        coeffs = np.asarray(coeffs, dtype=float)
        if n is None:
            n = coeffs.size + 1
        if coeffs.size < n - 1:
            coeffs = np.pad(coeffs, (0, n - 1 - coeffs.size))
        return cls(get_grid(n), coefficients=coeffs)

    @classmethod
    def zero(cls, n: int) -> "AngleField":
        field = cls(get_grid(n), values=np.zeros(n - 1))
        field._coeffs = np.zeros(n - 1)  # +0.0: the transform of zeros gives -0.0
        return field

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = self.grid.to_values(self._coeffs)
        return self._values

    @property
    def coefficients(self) -> np.ndarray:
        if self._coeffs is None:
            self._coeffs = self.grid.to_coefficients(self._values)
        return self._coeffs

    def __call__(self, theta) -> np.ndarray:
        """Phi at the angles theta, through q = grid.q_of(theta) on a mapped grid."""
        grid = self.grid
        return grid.evaluate_sine(self.coefficients, theta if grid.L == 1.0 else grid.q_of(theta))

    def _fine_values(self) -> np.ndarray:
        """Twice Phi on the field's own grid refined four times, q = j pi / 4n,
        j = 1..4n-1: the DST-I of its coefficients zero-padded to 4n - 1."""
        padded = np.zeros(4 * self.grid.n - 1)
        padded[:self.n - 1] = self.coefficients
        return _dst1(padded)

    def sup_norm(self) -> float:
        """Max of |Phi| over (0, pi), evaluated on a grid four times finer
        (_fine_values): bitwise max|to_values| on that grid."""
        fine = self._fine_values()
        return float(np.abs(fine, out=fine).max()) / 2.0

    def resample(self, n_new: int, L: float | None = None) -> "AngleField":
        """The field on grid (n_new, L), L defaulting to the field's own: on
        its own map the sine coefficients zero-padded or truncated; onto
        another, 8-point Lagrange in q on the field's own grid refined four
        times (_fine_values), its odd extension included."""
        L = self.grid.L if L is None else L
        target = get_grid(n_new, L)
        if L == self.grid.L:
            if target.n == self.grid.n:
                return self
            out = np.zeros(target.n - 1)
            keep = min(self.n, target.n) - 1
            out[:keep] = self.coefficients[:keep]
            return AngleField(target, coefficients=out)
        fine = self._fine_values() / 2.0
        m = 4 * self.grid.n
        period = np.concatenate(([0.0], fine, [0.0], -fine[::-1]))
        x = self.grid.q_of(target.theta) * (m / np.pi)
        i = x.astype(np.intp)
        # s - j at the stencil's nodes i + j, s kept off 0 so that node i's weight is 1, not 0/0
        d = np.maximum(x - i, 1e-300) - _STENCIL
        weights = np.prod(d, axis=0) / (d * _STENCIL_SCALE)
        nodes = np.take(period, i + _STENCIL, mode="wrap")
        return AngleField(target, values=np.sum(weights * nodes, axis=0))

    def spectral_tail(self, band: int | None = None) -> float:
        """Relative magnitude of the top TAIL_FRACTION of the spectrum.

        Used to decide whether the grid resolves the field: an analytic
        field has an exponentially small tail once resolved.  `band`
        restricts the measurement to the first `band` modes (the retained
        band of a dealiased operator, whose upper half is exactly zero).
        """
        coeffs = np.abs(self.coefficients[:band])
        peak = coeffs.max(initial=0.0)
        if peak == 0.0:
            return 0.0
        cut = int((1.0 - TAIL_FRACTION) * coeffs.size)
        return float(coeffs[cut:].max(initial=0.0) / peak)
