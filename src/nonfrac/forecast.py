"""Minimum mean-square-error forecasting for CSA processes.

The observed path is the MA filter applied to truncated innovations,
x = phi * nu, so the innovations are nu = g * x with g the power-series
inverse of phi(z). g comes from Newton iteration on power series
(Brent & Kung 1978, "Fast algorithms for manipulating formal power
series"), which doubles the number of correct coefficients with each
pair of FFT convolutions; forecasts are one more convolution of the
innovations with the weights extended to the horizon. Every step is
O(T log T) time and O(T) memory. The inverse coefficients depend only on
(a, b, T), so the last few are kept read-only; with the shared weights of
`model`, both spectra come from `spectral`'s cache, and a repeated forecast
at one fitted (a, b) skips the Newton iteration and makes four real FFTs,
those of x, nu and the two products.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_triangular, toeplitz

from .model import CsaParams, csa_ma_coeffs
from .spectral import circular_convolve

__all__ = ["ForecastResult", "recover_innovations", "forecast_csa"]

# Coefficients of 1/phi solved densely before the Newton doublings start;
# below this a doubling's fixed cost exceeds the O(k^2) triangular solve.
_DENSE_TERMS = 128

# Inverse coefficient series kept by `_inverse_coefficients`: at most this
# many read-only arrays of 8t bytes.
_INVERSE_CACHE_SIZE = 4


@dataclass(frozen=True)
class ForecastResult:
    horizon: int
    point_forecasts: np.ndarray
    innovations: np.ndarray
    reconstruction_error: float  # max abs error of re-filtering the innovations


def _inverse_series(phi):
    """First len(phi) coefficients of the power series 1 / phi(z).

    The leading coefficients come from the unit-lower-triangular Toeplitz
    system of phi; each Newton step g <- g - g (phi g - 1) mod z^{2k} then
    extends k correct coefficients to 2k. Since phi g - 1 vanishes below
    z^k, only its upper half e enters, and the new coefficients are
    -(g * e) truncated to the new half.
    """
    n = phi.size
    k = min(n, _DENSE_TERMS)
    g = np.zeros(n)
    unit = np.zeros(k)
    unit[0] = 1.0
    g[:k] = solve_triangular(toeplitz(phi[:k], np.zeros(k)), unit, lower=True)
    while k < n:
        k2 = min(2 * k, n)
        e = circular_convolve(phi[:k2], g[:k2])[k:]
        g[k:k2] = -circular_convolve(g[: k2 - k], e)
        k = k2
    return g


# sigma_eps does not change the inverse, so it is not part of the key.
@lru_cache(maxsize=_INVERSE_CACHE_SIZE)
def _inverse_coefficients(a, b, t):
    """First t coefficients of 1 / phi(z) for CSA(a, b), read-only."""
    g = _inverse_series(csa_ma_coeffs(CsaParams(a, b), t))
    g.flags.writeable = False
    return g


def recover_innovations(x, p):
    """Solve nu_i = x_i - sum_{j=1}^{i} phi_j nu_{i-j} for i = 0..T-1.

    This is the unit-lower-triangular Toeplitz system x = Phi nu. Its
    solution is the convolution of x with the power-series inverse of the
    MA weights, computed by Newton iteration in O(T log T). An I(d) law is
    a ValueError.
    """
    if not isinstance(p, CsaParams):
        raise ValueError(f"forecasting needs a csa law, got {p!r}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("x must be a nonempty 1-d sequence")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    return circular_convolve(_inverse_coefficients(p.a, p.b, x.size), x)


def forecast_csa(x, p, h):
    """Minimum-MSE forecasts x_hat_{T+i} = sum_{j=i}^{T-1+i} phi_j nu_{T-1+i-j}
    for i = 1..h, with the weights extended to length T+h.

    One convolution of the zero-padded innovations with those weights gives
    both the re-filtered path (its first T entries, behind
    `reconstruction_error`) and the forecasts (its last h entries).
    """
    x = np.asarray(x, dtype=float)
    T = x.size
    if h < 1:
        raise ValueError(f"horizon must be >= 1, got {h}")
    if h > T:
        raise ValueError(f"horizon {h} exceeds sample size {T}")
    nu = recover_innovations(x, p)
    y = circular_convolve(np.concatenate([nu, np.zeros(h)]), csa_ma_coeffs(p, T + h))
    return ForecastResult(
        horizon=h,
        point_forecasts=y[T:],
        innovations=nu,
        reconstruction_error=float(np.max(np.abs(y[:T] - x))),
    )
