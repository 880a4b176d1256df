"""Frequency-domain memory estimation: periodogram and the log-periodogram
(GPH) regression of log I(lambda_j) on log lambda_j over the first ~sqrt(T)
Fourier frequencies."""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["PeriodogramResult", "GphEstimate", "periodogram", "gph_estimate"]


@dataclass(frozen=True)
class PeriodogramResult:
    frequencies: np.ndarray  # lambda_j = 2 pi j / T, j = 1..floor((T-1)/2); read-only, shared per T
    ordinates: np.ndarray  # I(lambda_j) >= 0


@dataclass(frozen=True)
class GphEstimate:
    d_hat: float
    std_error: float
    bandwidth: int


# Fourier grids (about 4T bytes each) and GPH regressors (8m bytes) kept:
# those of the last 8 sample sizes and (T, m) pairs.
_GRID_MEMO_SIZE = 8


@lru_cache(maxsize=_GRID_MEMO_SIZE)
def _fourier_grid(T):
    """lambda_j = 2 pi j / T for j = 1..floor((T-1)/2), read-only and shared
    by every periodogram of length T."""
    grid = 2.0 * np.pi * np.arange(1, (T - 1) // 2 + 1) / T
    grid.flags.writeable = False
    return grid


@lru_cache(maxsize=_GRID_MEMO_SIZE)
def _gph_regressor(T, bandwidth):
    """The centred log-frequency regressor of the GPH regression over
    j = 1..bandwidth (read-only) and its sum of squares."""
    reg = np.log(_fourier_grid(T)[:bandwidth])
    reg_c = reg - reg.mean()
    reg_c.flags.writeable = False
    return reg_c, float(np.dot(reg_c, reg_c))


def periodogram(x):
    """I(lambda_j) = |sum_t x_t exp(-i lambda_j t)|^2 / (2 pi T) at the
    positive Fourier frequencies, via one real FFT of any length. The mean
    is removed first; in exact arithmetic that only changes the excluded
    j=0 bin. `frequencies` is read-only and shared by every result of the
    same length; `ordinates` is the caller's own."""
    x = np.asarray(x, dtype=float)
    T = x.size
    if T < 4:
        raise ValueError(f"need T >= 4, got {T}")
    x = x - x.mean()
    spec = np.fft.rfft(x)
    ordinates = np.abs(spec[1 : (T - 1) // 2 + 1])
    np.square(ordinates, out=ordinates)
    ordinates /= 2.0 * np.pi * T
    return PeriodogramResult(frequencies=_fourier_grid(T), ordinates=ordinates)


def gph_estimate(x, bandwidth=None):
    """OLS of log I(lambda_j) on log lambda_j over j = 1..m; the memory
    estimate is -slope/2 and the standard error comes from the classical
    homoskedastic slope variance. Default bandwidth m = floor(sqrt(T)).
    A series with no log-periodogram over the band, because it is constant
    or an ordinate there overflows or is zero, raises ValueError."""
    x = np.asarray(x, dtype=float)
    T = x.size
    if bandwidth is None:
        bandwidth = int(np.floor(np.sqrt(T)))
    # a finite series can still overflow the periodogram or zero an ordinate
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pgram = periodogram(x)
        y = np.log(pgram.ordinates[:bandwidth])
    if x.min() == x.max():
        raise ValueError("constant series: the log-periodogram is undefined")
    if bandwidth > pgram.frequencies.size:
        raise ValueError(
            f"bandwidth {bandwidth} exceeds the {pgram.frequencies.size} available ordinates"
        )
    if bandwidth < 3:
        raise ValueError(f"bandwidth {bandwidth} leaves a degenerate regression")
    if not np.isfinite(y).all():
        raise ValueError("the periodogram overflows or is zero in the band: the log-periodogram is undefined")
    reg_c, sxx = _gph_regressor(T, bandwidth)
    slope = float(np.dot(reg_c, y)) / sxx
    resid = y - y.mean() - slope * reg_c
    dof = bandwidth - 2
    slope_var = float(np.dot(resid, resid)) / dof / sxx
    return GphEstimate(
        d_hat=-slope / 2.0,
        std_error=math.sqrt(slope_var) / 2.0,
        bandwidth=bandwidth,
    )
