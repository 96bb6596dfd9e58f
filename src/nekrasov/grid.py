"""Uniform sine-spectral grid on (0, pi) and odd angle fields.

The tangent angle of a symmetric periodic wave is an odd 2pi-periodic
function, zero at theta = 0 and theta = pi.  Working on the interior grid
theta_j = j*pi/n with a sine basis hard-codes that symmetry: every field
handled here is implicitly extended by Phi(-theta) = -Phi(theta).

The grid's transforms are scipy's unnormalised DST-I on the n - 1 interior
values and DCT-I on the n + 1 closed-grid values, computed by pocketfft
through a real FFT of length 2n.  They are called through scipy.fftpack,
whose dst and dct pass the array straight to the pocketfft backend that
scipy.fft dispatches to, so every result is bitwise that of scipy.fft.
For even n >= _SPLIT_MIN they are split instead.  With m = n/2, x_j the
input at theta_j and Y_k the output for mode k:

    DST-I:  Y_2k   = DST-I  on grid m of  x_j - x_{n-j}, j = 1..m-1;
            Y_2k+1 = DST-III of length m of  x_j + x_{n-j}, j = 1..m
                     (the j = m entry is 2 x_m);
    DCT-I:  Y_2k   = DCT-I  on grid m of  x_j + x_{n-j}, j = 0..m
                     (the j = m entry is 2 x_m);
            Y_2k+1 = DCT-III of length m of  x_j - x_{n-j}, j = 0..m-1.

The even half recurses down to the cut; the odd half is one pocketfft
DST-III/DCT-III (a length-m real FFT and twiddles), so rounding stays
O(eps log n).  Below the cut, and for odd n, the transform is the plain
pocketfft call, bitwise.

AngleField.sup_norm evaluates the series on a grid four times finer, from
coefficients zero-padded to three quarters.  While the padded input's
upper half is zero the split needs no x_{n-j} terms, so _dst1_padded hands
back the DST-III of each odd half and the last grid's _dst1 as separate
pieces, and the max over them is bitwise the max of the full transform.

get_grid hands every caller the same SineGrid for a given n (numpy's
integers included), and antiderivative_closed writes through that grid's
one closed-grid scratch array, so a grid is safe for one thread at a time.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np
from scipy import fftpack

TAIL_FRACTION = 0.25
# smallest (even) grid size whose transforms are split in half; see above
_SPLIT_MIN = 16384


def _dst1(x: np.ndarray) -> np.ndarray:
    """DST-I (scipy.fft.dst(x, type=1)) of the n - 1 interior values of grid n."""
    n = x.size + 1
    if n % 2 or n < _SPLIT_MIN:
        return fftpack.dst(x, type=1)
    m = n // 2
    lo, hi = x[:m], x[m - 1:][::-1]  # x_j and x_{n-j}, j = 1..m
    out = np.empty(n - 1)
    out[1::2] = _dst1((lo - hi)[:-1])
    out[0::2] = fftpack.dst(lo + hi, type=3)
    return out


def _dst1_padded(x: np.ndarray, n: int) -> list[np.ndarray]:
    """The outputs of _dst1 on grid n for x zero-padded to n - 1 values, as
    pieces in no fixed order.  While x fits below the split's midpoint, the
    x_{n-j} half is zero, so the odd modes are the DST-III of x padded to
    n/2 values and the even ones recurse on grid n/2; past that point, at
    the cut or for odd n, it is _dst1 of the padded input.  Every pocketfft
    call sees the same input as in _dst1, up to the sign of zeros."""
    if n % 2 or n < _SPLIT_MIN or x.size >= n // 2:
        padded = np.zeros(n - 1)
        padded[:x.size] = x
        return [_dst1(padded)]
    lo = np.zeros(n // 2)
    lo[:x.size] = x
    return [fftpack.dst(lo, type=3), *_dst1_padded(x, n // 2)]


def _dct1(x: np.ndarray) -> np.ndarray:
    """DCT-I (scipy.fft.dct(x, type=1)) of the n + 1 closed-grid values of grid n."""
    n = x.size - 1
    if n % 2 or n < _SPLIT_MIN:
        return fftpack.dct(x, type=1)
    m = n // 2
    lo, hi = x[:m + 1], x[m:][::-1]  # x_j and x_{n-j}, j = 0..m
    out = np.empty(n + 1)
    out[0::2] = _dct1(lo + hi)
    out[1::2] = fftpack.dct((lo - hi)[:-1], type=3)
    return out


def _grid_size(n) -> int:
    """n as an int: an integer (numpy's too, not a bool) of at least 4."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 4:
        raise ValueError(f"grid size must be an integer of at least 4, got {n!r}")
    return int(n)


class SineGrid:
    """Interior nodes theta_j = j*pi/n, j = 1..n-1, with DST-I transforms."""

    def __init__(self, n: int):
        self.n = _grid_size(n)
        self.theta = np.arange(1, self.n) * (np.pi / self.n)
        self.modes = np.arange(1, self.n)
        # closed grid includes the endpoints theta = 0 and theta = pi
        self.theta_closed = np.arange(0, self.n + 1) * (np.pi / self.n)
        # antiderivative_closed's factors 1/(2nk) and its closed-grid input,
        # whose two end values stay zero
        self._half_inv_nk = 0.5 / (self.n * self.modes)
        self._closed = np.zeros(self.n + 1)

    def __repr__(self) -> str:
        return f"SineGrid(n={self.n})"

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
        """Evaluate sum b_k sin(k theta) at arbitrary points (direct sum)."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        out = np.zeros_like(theta)
        # chunk over modes to bound the temporary outer-product size
        step = max(1, int(4e6 // max(1, theta.size)))
        for start in range(0, coeffs.size, step):
            k = self.modes[start:start + step]
            out += np.sin(np.multiply.outer(theta, k)) @ coeffs[start:start + step]
        return out


def get_grid(n: int) -> SineGrid:
    return _cached_grid(_grid_size(n))


@functools.cache
def _cached_grid(n: int) -> SineGrid:
    return SineGrid(n)


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
        return self.grid.evaluate_sine(self.coefficients, theta)

    def sup_norm(self) -> float:
        """Max of |Phi| over (0, pi), evaluated on a grid four times finer.
        The fine grid's values are taken piece by piece from the zero-padded
        coefficients (_dst1_padded), bitwise equal to the max of its
        to_values, without caching a grid that nothing else uses."""
        pieces = _dst1_padded(self.coefficients, 4 * self.grid.n)
        return float(np.max([np.abs(p, out=p).max() for p in pieces])) / 2.0

    def resample(self, n_new: int) -> "AngleField":
        """Spectral resampling: zero-pad or truncate the sine coefficients."""
        if n_new == self.grid.n:
            return self
        coeffs = self.coefficients
        out = np.zeros(n_new - 1)
        keep = min(coeffs.size, n_new - 1)
        out[:keep] = coeffs[:keep]
        return AngleField(get_grid(n_new), coefficients=out)

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
