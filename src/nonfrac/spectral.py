"""Circular convolution kernel on numpy's real FFT."""

import numpy as np
from scipy.fft import next_fast_len

__all__ = ["circular_convolve"]


def _fft_length(t):
    """Fast real-FFT length >= 2t-1, at which the circular convolution of
    two zero-padded length-t sequences keeps its first t outputs free of
    the wrap."""
    return next_fast_len(2 * t - 1, real=True)


def circular_convolve(x, y):
    """First T elements of the linear convolution of two length-T sequences.

    Both inputs are zero-padded to `_fft_length(T)`, so the circular wrap
    never reaches the first T outputs; element t equals
    sum_{j<=t} y_j x_{t-j}.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
        raise ValueError("x and y must be 1-d sequences of equal length")
    t = x.size
    if t < 1:
        raise ValueError("sequences must be nonempty")
    n = _fft_length(t)
    return np.fft.irfft(np.fft.rfft(x, n) * np.fft.rfft(y, n), n)[:t]
