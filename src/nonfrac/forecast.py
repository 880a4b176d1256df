"""Minimum mean-square-error forecasting for CSA processes.

The observed path is the MA filter applied to truncated innovations, so the
innovations come back by inverting a unit-diagonal triangular Toeplitz
system (forward substitution, O(T^2) time and O(T) memory); forecasts then
extrapolate the MA weights over the recovered innovations.
"""

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .model import csa_ma_coeffs

__all__ = ["ForecastResult", "recover_innovations", "forecast_csa"]


@dataclass(frozen=True)
class ForecastResult:
    horizon: int
    point_forecasts: np.ndarray
    innovations: np.ndarray
    reconstruction_error: float  # max abs error of re-filtering the innovations


def recover_innovations(x, p):
    """Solve nu_i = x_i - sum_{j=1}^{i} phi_j nu_{i-j} for i = 0..T-1.

    Implemented as an all-pole filter with coefficient vector phi, which is
    exactly the forward substitution on the triangular Toeplitz system.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("x must be a nonempty 1-d sequence")
    phi = csa_ma_coeffs(p, x.size)
    return lfilter([1.0], phi, x)


def forecast_csa(x, p, h):
    """Minimum-MSE forecasts x_hat_{T+i} = sum_{j=i}^{T-1+i} phi_j nu_{T-1+i-j}
    for i = 1..h, with the weights extended to length T+h."""
    x = np.asarray(x, dtype=float)
    T = x.size
    if h < 1:
        raise ValueError(f"horizon must be >= 1, got {h}")
    if h > T:
        raise ValueError(f"horizon {h} exceeds sample size {T}")
    nu = recover_innovations(x, p)
    phi = csa_ma_coeffs(p, T + h)
    nu_rev = nu[::-1]
    forecasts = np.array([float(np.dot(phi[i : i + T], nu_rev)) for i in range(1, h + 1)])
    recon = lfilter(phi[:T], [1.0], nu)
    return ForecastResult(
        horizon=h,
        point_forecasts=forecasts,
        innovations=nu,
        reconstruction_error=float(np.max(np.abs(recon - x))),
    )
