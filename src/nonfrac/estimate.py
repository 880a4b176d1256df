"""Frequency-domain memory estimation: periodogram and the log-periodogram
(GPH) regression of log I(lambda_j) on log lambda_j over the first ~sqrt(T)
Fourier frequencies."""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["PeriodogramResult", "GphEstimate", "periodogram", "gph_estimate"]


@dataclass(frozen=True)
class PeriodogramResult:
    frequencies: np.ndarray  # lambda_j = 2 pi j / T, j = 1..floor((T-1)/2)
    ordinates: np.ndarray  # I(lambda_j) >= 0


@dataclass(frozen=True)
class GphEstimate:
    d_hat: float
    std_error: float
    bandwidth: int


def periodogram(x):
    """I(lambda_j) = |sum_t x_t exp(-i lambda_j t)|^2 / (2 pi T) at the
    positive Fourier frequencies, via one real FFT of any length. The mean
    is removed first; in exact arithmetic that only changes the excluded
    j=0 bin."""
    x = np.asarray(x, dtype=float)
    T = x.size
    if T < 4:
        raise ValueError(f"need T >= 4, got {T}")
    x = x - x.mean()
    spec = np.fft.rfft(x)
    m = (T - 1) // 2
    j = np.arange(1, m + 1)
    ordinates = np.abs(spec[1 : m + 1]) ** 2 / (2.0 * np.pi * T)
    return PeriodogramResult(frequencies=2.0 * np.pi * j / T, ordinates=ordinates)


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
    reg = np.log(pgram.frequencies[:bandwidth])
    reg_c = reg - reg.mean()
    sxx = float(np.dot(reg_c, reg_c))
    slope = float(np.dot(reg_c, y)) / sxx
    resid = y - y.mean() - slope * reg_c
    dof = bandwidth - 2
    slope_var = float(np.dot(resid, resid)) / dof / sxx
    return GphEstimate(
        d_hat=-slope / 2.0,
        std_error=math.sqrt(slope_var) / 2.0,
        bandwidth=bandwidth,
    )
