"""Circular convolution kernel on numpy's real FFT.

The spectrum of an operand that is read-only and owns its data, such as the
shared MA weights of `model`, is kept by identity while that operand lives,
so convolving with the same weights again costs two real FFTs, not three.
"""

import threading
import weakref
from collections import OrderedDict

import numpy as np
from scipy.fft import next_fast_len

__all__ = ["circular_convolve"]

# Spectra kept: at most this many read-only complex arrays of 8(n+2) bytes,
# n = _fft_length(t), one per operand; the least recently used goes first.
_SPECTRUM_CACHE_SIZE = 8
_spectra = OrderedDict()  # id(operand) -> (weak reference to it, its spectrum)
_spectra_lock = threading.Lock()


def _fft_length(t):
    """Fast real-FFT length >= 2t-1, at which the circular convolution of
    two zero-padded length-t sequences keeps its first t outputs free of
    the wrap."""
    return next_fast_len(2 * t - 1, real=True)


def _spectrum(seq, n):
    """rfft of seq zero-padded to n. For a read-only seq that owns its data
    the spectrum is looked up, or made read-only and kept, by the identity
    of seq; a writeable seq or a view is transformed afresh every time."""
    if seq.flags.writeable or not seq.flags.owndata:
        return np.fft.rfft(seq, n)
    key = id(seq)
    with _spectra_lock:
        ref, spectrum = _spectra.get(key, (None, None))
        if ref is not None and ref() is seq:
            _spectra.move_to_end(key)
            return spectrum
    spectrum = np.fft.rfft(seq, n)
    spectrum.flags.writeable = False
    with _spectra_lock:
        _spectra[key] = (weakref.ref(seq), spectrum)
        _spectra.move_to_end(key)
        if len(_spectra) > _SPECTRUM_CACHE_SIZE:
            _spectra.popitem(last=False)
    return spectrum


def circular_convolve(x, y):
    """First T elements of the linear convolution of two length-T sequences.

    Both inputs are zero-padded to `_fft_length(T)`, so the circular wrap
    never reaches the first T outputs; element t equals
    sum_{j<=t} y_j x_{t-j}. An input that is read-only and owns its data is
    taken to be immutable: its spectrum is reused while it lives
    (`_spectrum`), bit for bit a fresh rfft.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
        raise ValueError("x and y must be 1-d sequences of equal length")
    t = x.size
    if t < 1:
        raise ValueError("sequences must be nonempty")
    n = _fft_length(t)
    return np.fft.irfft(_spectrum(x, n) * _spectrum(y, n), n)[:t]
