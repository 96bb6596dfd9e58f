"""Physical wave reconstruction from a solved tangent-angle field.

Internally the wave is non-dimensionalized to wavelength 2*pi and unit
gravity; the requested wavelength and gravity enter only as output scales.
The crest sits at theta = 0 (minimal surface speed) and the troughs at
theta = +-pi; x decreases as theta increases, so one half-wave spans
x in [-lambda/2, 0].  On a mapped grid (SineGrid) every integral over theta
is taken in q with the factor theta'(q).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .grid import AngleField
from .solver import BreakdownError, inner_accumulate


class GeometryWarning(UserWarning):
    """The reconstructed surface is not a graph (dx/dtheta changes sign)."""


class ReconstructionError(RuntimeError):
    """A physical quantity could not be recovered from the field."""


@dataclass
class WaveProfile:
    """Free-surface data over theta in [0, pi] (closed grid).

    x and eta are the surface coordinates, R the surface-speed factor
    (flow speed is q = c/R, maximal R at the crest), a_k the power-series
    coefficients of the conformal map derivative.  eta has zero mean over
    one period in x; metadata records the offsets for other gauges.
    """

    theta: np.ndarray
    x: np.ndarray
    eta: np.ndarray
    R: np.ndarray
    q_over_q0: np.ndarray
    wavelength: float
    c: float
    q0: float
    g: float
    mu: float
    a_k: np.ndarray
    metadata: dict = dataclass_field(default_factory=dict)

    @property
    def height(self) -> float:
        """Crest-to-trough height eta(0) - eta(pi) (offset independent)."""
        return float(self.eta[0] - self.eta[-1])


def _denominator(field: AngleField, mu: float) -> np.ndarray:
    """1 + mu*I on the closed grid, validated finite and positive."""
    if not (mu > 0 and np.isfinite(mu)):
        raise ValueError(f"mu must be positive and finite, got {mu}")
    denom = 1.0 + mu * inner_accumulate(field)
    lowest = denom.min()
    if np.isnan(lowest):
        raise ValueError("the field has non-finite values")
    if lowest <= 0.0:
        raise BreakdownError("1 + mu*I lost positivity; cannot reconstruct")
    return denom


def _closed_values(field: AngleField) -> np.ndarray:
    v = np.zeros(field.n + 1)
    v[1:-1] = field.values
    return v


def _crest_normalized(field: AngleField, mu: float):
    """1 + mu*I, R with R(0) = 1, cos(Phi), and the x-extent integral
    D = Int_0^pi R cos Phi dtheta, all from one evaluation of 1 + mu*I."""
    denom = _denominator(field, mu)
    r = denom ** (-1.0 / 3.0)
    cos_phi = np.cos(_closed_values(field))
    # trapezoid on the uniform closed grid in q integrates trig polynomials
    # of degree < 2n exactly
    d = np.trapezoid(r * cos_phi * field.grid.dtheta_closed, dx=np.pi / field.n)
    if d <= 0.0:
        raise ReconstructionError("horizontal extent integral is nonpositive")
    return denom, r, cos_phi, d


def _check_scales(wavelength: float, g: float) -> None:
    """Raise ValueError unless the wavelength and g are finite and positive."""
    if not (0.0 < wavelength < np.inf and 0.0 < g < np.inf):
        raise ValueError(f"wavelength and g must be finite and positive, "
                         f"got {wavelength} and {g}")


def _speeds(mu: float, d: float, wavelength: float, g: float) -> tuple[float, float]:
    """c and q0 from the x-extent integral D (see physical_params).  Raises
    ValueError unless the wavelength and g are finite and positive."""
    _check_scales(wavelength, g)
    q_at = mu ** (1.0 / 3.0) * d / np.pi
    c = np.sqrt(3.0 * g * wavelength / (2.0 * np.pi * q_at**3))
    q0 = (3.0 * g * c * wavelength / (2.0 * np.pi * mu)) ** (1.0 / 3.0)
    return float(c), float(q0)


def physical_params(field: AngleField, mu: float, wavelength: float = 2.0 * np.pi,
                    g: float = 1.0) -> tuple[float, float]:
    """Wave speed c and crest speed q0 for given wavelength and gravity.

    c solves [3 g lambda/(2 pi c^2)]^(1/3) =
    (1/2 pi) Int_{-pi}^{pi} cos Phi [mu^(-1) + I]^(-1/3) dtau, after which
    q0 follows from mu = 3 g c lambda / (2 pi q0^3).  Raises ValueError
    unless the wavelength and g are finite and positive.
    """
    return _speeds(mu, _crest_normalized(field, mu)[3], wavelength, g)


def _scaled_speed(field: AngleField, mu: float):
    """_crest_normalized's 1 + mu*I and D, with R scaled by pi/D (so that the
    x-extent over a period is 2 pi) and R cos Phi; warns GeometryWarning
    where R cos Phi <= 0, since the surface is then not a graph."""
    denom, r_unit, cos_phi, d = _crest_normalized(field, mu)
    r = (np.pi / d) * r_unit
    rc = r * cos_phi
    if rc.min() <= 0.0:
        warnings.warn("dx/dtheta changes sign: surface is not a graph",
                      GeometryWarning, stacklevel=3)
    return denom, d, r, rc


def height_over_wavelength(field: AngleField, mu: float) -> float:
    """H/lambda of the reconstruct_profile surface, without building it.

    With o_k the sine coefficients of R sin Phi (R scaled as in
    reconstruct_profile), eta = (lambda/2 pi) sum (o_k/k) cos(k theta) up to
    its offset, so H = eta(0) - eta(pi) = (lambda/2 pi) sum over odd k of
    2 o_k/k: one transform besides the two of 1 + mu*I.  Same checks and
    GeometryWarning as reconstruct_profile.
    """
    _, _, r, _ = _scaled_speed(field, mu)
    grid = field.grid
    odd_series = grid.to_coefficients(r[1:-1] * np.sin(field.values) * grid.dtheta)
    return float(np.sum(odd_series[0::2] / grid.modes[0::2]) / np.pi)


def _wave_profile(field: AngleField, mu: float, wavelength: float, g: float,
                  denom: np.ndarray, d: float, r: np.ndarray,
                  even_series: np.ndarray, odd_series: np.ndarray) -> WaveProfile:
    """The profile from the cosine/sine series in q of -(2 pi/lambda) dx/dq
    = 1 + sum e_k cos and -(2 pi/lambda) deta/dq = sum o_k sin; on the
    uniform grid the e_k are also the map coefficients a_k.  x and eta are
    integrated on the closed grid and eta is shifted to zero mean over one
    period in x (trapezoid in the x variable); c and q0 follow from D."""
    c, q0 = _speeds(mu, d, wavelength, g)
    grid = field.grid
    scale = wavelength / (2.0 * np.pi)
    theta = grid.theta_closed
    k = grid.modes
    x = -scale * (grid.q_closed + np.concatenate(
        ([0.0], grid.to_values(even_series / k), [0.0])))
    eta = scale * grid.cosine_values_closed(odd_series / k)
    offset = float(np.trapezoid(eta, x) / (x[-1] - x[0]))
    eta = eta - offset
    return WaveProfile(
        theta=theta.copy(), x=x, eta=eta, R=r, q_over_q0=denom ** (1.0 / 3.0),
        wavelength=wavelength, c=c, q0=q0, g=g, mu=mu, a_k=even_series,
        metadata={"eta_offset_mean_zero": offset})


def reconstruct_profile(field: AngleField, mu: float, wavelength: float = 2.0 * np.pi,
                        g: float = 1.0) -> WaveProfile:
    """Reconstruct the free surface by integrating the tangent-angle relations
    dx/dtheta = -(lambda/2 pi) R cos Phi, deta/dtheta = -(lambda/2 pi) R sin Phi.

    R is normalized so the horizontal extent over a full period is exactly
    the wavelength; eta is shifted to zero mean over one period.  On a
    mapped grid a_k are the cosine coefficients in q of R cos Phi theta' - 1.
    """
    denom, d, r, rc = _scaled_speed(field, mu)
    grid = field.grid
    sin_phi = np.sin(_closed_values(field))
    # cosine series of R cos Phi theta' - 1 (its mean is 0 after normalization)
    even_series = grid.cosine_coefficients_closed(rc * grid.dtheta_closed - 1.0)
    odd_series = grid.to_coefficients((r * sin_phi * grid.dtheta_closed)[1:-1])
    profile = _wave_profile(field, mu, wavelength, g, denom, d, r,
                            even_series, odd_series)
    profile.metadata.update(eta_trough=float(profile.eta[-1]),
                            eta_crest=float(profile.eta[0]), n=field.n)
    return profile


def _map_coefficients(field: AngleField) -> np.ndarray:
    """Power-series coefficients a_1..a_k_max, k_max the grid's mode count,
    of the conformal map derivative factor f(u) = 1 + sum a_k u^k.

    The boundary values of i log f are (-Phi, log R), so log f has power
    series coefficients equal to Phi's sine coefficients b_k; f follows by
    exact series exponentiation.
    """
    b = field.coefficients
    k_max = b.size
    # k a_k = sum_{m=1..k} m b_m a_{k-m}.  a is kept reversed, a_j at
    # rev[k_max - j], so a_{k-1}, ..., a_0 is the contiguous tail
    # rev[k_max - k + 1:] and each step is one dot of two slices
    mb = np.arange(1, k_max + 1) * b[:k_max]
    rev = np.zeros(k_max + 1)
    rev[k_max] = 1.0
    for k in range(1, k_max + 1):
        rev[k_max - k] = float(np.dot(mb[:k], rev[k_max - k + 1:]) / k)
    return rev[:k_max][::-1].copy()


def profile_from_map_coefficients(field: AngleField, mu: float,
                                  wavelength: float = 2.0 * np.pi,
                                  g: float = 1.0) -> WaveProfile:
    """Independent reconstruction route through the map coefficients a_k:

        eta = (lambda/2 pi) sum (a_k/k) cos(k theta),
        x   = -(lambda/2 pi) (theta + sum (a_k/k) sin(k theta)),

    series in theta, so a field on a mapped grid raises ValueError.
    """
    if field.grid.L != 1.0:
        raise ValueError("the map-coefficient route needs a field on the uniform grid")
    denom, r, _, d = _crest_normalized(field, mu)
    a = _map_coefficients(field)
    profile = _wave_profile(field, mu, wavelength, g, denom, d, (np.pi / d) * r, a, a)
    profile.metadata.update(route="map_coefficients", n=field.n)
    return profile
