"""Integral kernels for deep and finite-depth waves and their eigenstructure.

The nonlinear wave equation for the tangent angle is

    Phi(theta) = mu * Integral_{-pi}^{pi} g(tau) K(theta, tau) dtau,

with g = sin Phi / (1 + mu * I) and the kernel

    K(theta, tau) = (1/(3 pi)) sum_k lambda_k sin(k theta) sin(k tau) / k,

where lambda_k = 1 on infinitely deep water and lambda_k = tanh(2 pi k h/L)
at depth-to-wavelength ratio h/L.  On deep water the series sums in closed
form to (1/(6 pi)) log|sin((theta+tau)/2) / sin((theta-tau)/2)|.

The linearized operator B (the Frechet derivative of the right-hand side at
the zero solution, divided by mu) acts diagonally on sine modes with factor
lambda_k/(3k); its characteristic values 3k/lambda_k are the bifurcation
points of the nonlinear problem.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


class SingularEvaluationError(ValueError):
    """Raised when a kernel is evaluated on its logarithmic diagonal."""


def _check_count(name: str, value) -> None:
    """A mode count must be an integer (numpy's too, not a bool) of at least 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")


@dataclass(frozen=True)
class KernelSpec:
    """Depth regime of the wave kernel, with a series truncation.

    depth_ratio is h/L (depth over wavelength); infinity selects deep water.
    It is the one input of the solvers: their operator keeps its grid's
    dealiased band, modes 1..n // 2, whatever n_modes says, and so does
    apply_linearized.  n_modes truncates only the series of kernel_series.
    """

    depth_ratio: float = math.inf
    n_modes: int = 256

    def __post_init__(self):
        if not self.depth_ratio > 0:
            raise ValueError(f"depth_ratio must be positive, got {self.depth_ratio}")
        _check_count("n_modes", self.n_modes)

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.depth_ratio)

    @property
    def r0(self) -> float:
        """Inner conformal radius exp(-2 pi h/L) of the annular image (finite depth)."""
        if self.is_infinite:
            return 0.0
        return math.exp(-2.0 * math.pi * self.depth_ratio)

    def mode_weights(self, k_max: int) -> np.ndarray:
        """lambda_k for k = 1..k_max: 1 (deep) or tanh(2 pi k h/L) (finite)."""
        k = np.arange(1, k_max + 1)
        if self.is_infinite:
            return np.ones(k_max)
        return np.tanh(2.0 * np.pi * k * self.depth_ratio)

    def to_dict(self) -> dict:
        return {"depth_ratio": "inf" if self.is_infinite else self.depth_ratio}


DEEP = KernelSpec()


def kernel_deep_closed(theta, tau):
    """Closed-form deep-water kernel (1/(6 pi)) log|sin((t+s)/2)/sin((t-s)/2)|.

    Symmetric in its arguments and odd under tau -> -tau.  Raises
    SingularEvaluationError on the diagonal theta = +-tau (mod 2 pi) where
    the logarithm is infinite.
    """
    theta = np.asarray(theta, dtype=float)
    tau = np.asarray(tau, dtype=float)
    s_plus = np.sin(0.5 * (theta + tau))
    s_minus = np.sin(0.5 * (theta - tau))
    if np.any(s_plus == 0.0) or np.any(s_minus == 0.0):
        raise SingularEvaluationError("kernel evaluated at theta = +-tau (mod 2 pi)")
    out = np.log(np.abs(s_plus / s_minus)) / (6.0 * np.pi)
    return out if out.ndim else float(out)


def kernel_series(theta, tau, spec: KernelSpec):
    """Truncated sine-series kernel (1/(3 pi)) sum lambda_k sin(k t) sin(k s)/k."""
    scalar = np.ndim(theta) == 0 and np.ndim(tau) == 0
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    shape = np.broadcast_shapes(theta.shape, tau.shape)
    theta = np.broadcast_to(theta, shape).ravel()
    tau = np.broadcast_to(tau, shape).ravel()
    weights = spec.mode_weights(spec.n_modes) / np.arange(1, spec.n_modes + 1)
    out = np.zeros(theta.size)
    step = max(1, int(4e6 // max(1, theta.size)))
    for start in range(0, spec.n_modes, step):
        k = np.arange(start + 1, min(start + step, spec.n_modes) + 1)
        out += np.einsum(
            "kj,kj,k->j",
            np.sin(np.multiply.outer(k, theta)),
            np.sin(np.multiply.outer(k, tau)),
            weights[start:start + k.size],
        )
    out = out.reshape(shape) / (3.0 * np.pi)
    return float(out.ravel()[0]) if scalar else out


def linearized_factors(spec: KernelSpec, k_max: int) -> np.ndarray:
    """Diagonal factors lambda_k/(3k) of B on sine modes k = 1..k_max."""
    k = np.arange(1, k_max + 1)
    return spec.mode_weights(k_max) / (3.0 * k)


def apply_linearized(coeffs: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Apply B to a sine series: mode k is scaled by lambda_k/(3k).

    The series is read as the coefficients of a grid of coeffs.size + 1
    points, and B keeps that grid's dealiased band, modes
    1..(coeffs.size + 1) // 2, annihilating the rest: the action of the
    solvers' operator on that grid.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    out = np.zeros_like(coeffs)
    keep = (coeffs.size + 1) // 2
    out[:keep] = coeffs[:keep] * linearized_factors(spec, keep)
    return out


def characteristic_values(spec: KernelSpec, k_max: int) -> np.ndarray:
    """Characteristic values of B: 3k (deep) or 3k coth(2 pi k h/L) (finite).

    These are the reciprocals of B's eigenvalues and the bifurcation points
    of the nonlinear equation; the sequence is strictly increasing.
    """
    _check_count("k_max", k_max)
    k = np.arange(1, k_max + 1)
    return 3.0 * k / spec.mode_weights(k_max)
