"""Closed-form process definitions for the two long-memory mechanisms.

I(d): fractionally differenced white noise with memory d in (-1/2, 1/2).
CSA(a, b): the limit of 1/sqrt(N) aggregation of AR(1) units whose squared
coefficients are Beta(a, b) draws; implied memory d = 1 - b/2.

All Gamma-ratio quantities use one-step recursions where lags shift by
integers, and log-Beta differences where they shift by half-integers, so
they stay stable for lags up to 1e6.
"""

import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np
from scipy.special import betaln

from .specfun import ConvergenceError, _gamma_half_ratio, _sum_ratio_series, beta_ratio_sequence

__all__ = [
    "FracParams",
    "CsaParams",
    "frac_ma_coeffs",
    "csa_ma_coeffs",
    "acf_frac_lags",
    "acf_csa_lags",
    "csa_variance",
    "csa_spectrum_at_zero",
    "csa_aggregate_spectrum_at_zero",
    "params_to_dict",
    "params_from_dict",
]


@dataclass(frozen=True)
class FracParams:
    """Memory parameter of a fractionally differenced process with unit
    innovation variance; the same surface as `CsaParams`."""

    process = "frac"
    sigma_eps = 1.0

    d: float

    def __post_init__(self):
        _check_fields(self)
        if not -0.5 < self.d < 0.5:
            raise ValueError(f"d must lie in (-1/2, 1/2), got {self.d}")

    @property
    def memory_d(self):
        return self.d

    def ma_weights(self, T):
        return frac_ma_coeffs(self, T)

    def acf(self, kmax):
        return acf_frac_lags(self, kmax)


@dataclass(frozen=True)
class CsaParams:
    """Beta-distribution parameters (a, b) of a cross-sectionally
    aggregated process, plus the innovation standard deviation.

    All three must be finite real numbers. b > 1 is required for the
    autocorrelation function to exist; the implied memory parameter is
    d = 1 - b/2.
    """

    process = "csa"

    a: float
    b: float
    sigma_eps: float = 1.0

    def __post_init__(self):
        _check_fields(self)
        if self.a <= 0:
            raise ValueError(f"a must be positive, got {self.a}")
        if self.b <= 1:
            raise ValueError(f"b must exceed 1, got {self.b}")
        if self.sigma_eps <= 0:
            raise ValueError(f"sigma_eps must be positive, got {self.sigma_eps}")

    @property
    def memory_d(self):
        return 1.0 - self.b / 2.0

    def ma_weights(self, T):
        return csa_ma_coeffs(self, T)

    def acf(self, kmax):
        return acf_csa_lags(self, kmax)


def _check_fields(p):
    """Each field of `p` is a finite real number. A bool counts as an int in
    Python, and an int can be too large for a float; both are rejected."""
    for f in fields(p):
        value = getattr(p, f.name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{f.name} must be a real number, got {value!r}")
        try:
            finite = math.isfinite(value)
        except OverflowError:
            raise ValueError(f"{f.name} must be finite, got an integer too large for a float") from None
        if not finite:
            raise ValueError(f"{f.name} must be finite, got {value}")


def params_to_dict(p):
    """The flat dict form of a params object, `process` first and then its
    fields in order: the config-file grid entry and the CSV columns."""
    return {"process": p.process, **asdict(p)}


def params_from_dict(entry):
    """Inverse of `params_to_dict`. An entry that is not a dict, an unknown
    process and a key that is not a field of the process are ValueErrors;
    a missing required field is a TypeError naming it."""
    if not isinstance(entry, dict):
        raise ValueError(f"parameter entry {entry!r} is not an object")
    entry = dict(entry)
    process = entry.pop("process", None)
    for cls in (CsaParams, FracParams):
        if cls.process == process:
            names = [f.name for f in fields(cls)]
            stray = [str(key) for key in entry if key not in names]
            if stray:
                raise ValueError(f"the {process} process takes no {', '.join(stray)} (only {', '.join(names)})")
            missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in entry]
            if missing:
                raise TypeError(f"the {process} process needs {' and '.join(missing)}")
            return cls(**entry)
    raise ValueError(f"unknown process {process!r}")


def frac_ma_coeffs(p, T):
    """First T MA weights pi_j of (1-L)^{-d}: pi_0 = 1,
    pi_j = pi_{j-1} (j-1+d)/j.

    Tail behaves like j^{d-1}; all weights negative for j >= 1 when d < 0.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    w = np.empty(T)
    w[0] = 1.0
    if T > 1:
        j = np.arange(1.0, T)
        np.cumprod((j - 1.0 + p.d) / j, out=w[1:])
    return w


def csa_ma_coeffs(p, T):
    """First T MA weights phi_j = sqrt(B(a+j, b) / B(a, b)): positive,
    decreasing, tail ~ j^{-b/2}."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    return np.sqrt(beta_ratio_sequence(p.a, p.b, T - 1))


def acf_frac_lags(p, kmax):
    """Autocorrelations of I(d) at lags 0..kmax:
    Gamma(k+d)Gamma(1-d) / (Gamma(k-d+1)Gamma(d)), via the lag recursion.
    Negative for all k >= 1 when d < 0."""
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    g = np.empty(kmax + 1)
    g[0] = 1.0
    if kmax > 0:
        i = np.arange(1.0, kmax + 1)
        np.cumprod((i - 1.0 + p.d) / (i - p.d), out=g[1:])
    return g


def acf_csa_lags(p, kmax):
    """Autocorrelations of CSA(a, b) at lags 0..kmax:
    B(a+k/2, b-1) / B(a, b-1).

    Always strictly positive, decays like k^{1-b}. The half-integer lag
    shift rules out a pure product recursion, so this goes through
    log-Beta differences.
    """
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    k = np.arange(kmax + 1, dtype=float)
    out = np.exp(betaln(p.a + k / 2.0, p.b - 1.0) - betaln(p.a, p.b - 1.0))
    out[0] = 1.0
    return out


def csa_variance(p):
    """Process variance sigma_eps^2 * B(a, b-1) / B(a, b), the limit of
    sigma_eps^2 * sum phi_j^2."""
    # B(a, b-1)/B(a, b) simplifies to (a+b-1)/(b-1); sigma * sigma, unlike
    # sigma**2, overflows to inf instead of raising OverflowError
    return p.sigma_eps * p.sigma_eps * (p.a + p.b - 1.0) / (p.b - 1.0)


def csa_spectrum_at_zero(p):
    """Spectral density at the origin of the paper's MA filter for
    CSA(a, b), b > 2: (sigma^2 / 2 pi) * (sum_j phi_j)^2.

    This is the filter's value, not the aggregate's: the weights phi_j are
    not the Wold weights of CSA(a, b), they overshoot its autocovariances,
    and this exceeds `csa_aggregate_spectrum_at_zero` (2.2-3.5 times at
    (a, b) = (0.2, 2.4), (0.2, 2.8), (0.5, 3.0), (1.0, 2.5)). The weight
    sum converges only for b > 2 (the weights decay like j^{-b/2}); it is
    summed to a relative 1e-8.
    """
    if p.b <= 2.0:
        raise ConvergenceError(f"weight sum for b = {p.b} diverges (b <= 2: memory is nonnegative)")
    total = _sum_ratio_series(lambda n: np.sqrt((p.a + n) / (p.a + p.b + n)), p.b / 2.0, 1e-8)
    return p.sigma_eps**2 / (2.0 * np.pi) * total**2


def csa_aggregate_spectrum_at_zero(p):
    """Spectral density at the origin of the CSA(a, b) aggregate, b > 2:
    (gamma_0 / 2 pi) * (2 S - 1) with gamma_0 the `csa_variance` and S the
    sum of all rho_k; it equals (sigma^2 / 2 pi) E[(1 - alpha)^{-2}] with
    alpha^2 ~ Beta(a, b). The even and odd lags sum to 2F1(1, a; a+b-1; 1)
    and c 2F1(1, a+1/2; a+b-1/2; 1), c = rho_1 = B(a+1/2, b-1) / B(a, b-1),
    so Gauss's theorem gives S = ((a+b-2) + c (a+b-3/2)) / (b-2), finite
    only for b > 2. A value that overflows a float is a ValueError.
    """
    if p.b <= 2.0:
        raise ConvergenceError(f"autocorrelation sum for b = {p.b} diverges (b <= 2: memory is nonnegative)")
    a, excess = p.a, p.b - 2.0  # b - 2 is exact for b <= 4, where a + b - 2 would cancel
    c = _gamma_half_ratio(a) / _gamma_half_ratio(a + (excess + 1.0))
    s = ((a + excess) + c * (a + (excess + 0.5))) / excess
    value = csa_variance(p) / (2.0 * np.pi) * (2.0 * s - 1.0)
    if not math.isfinite(value):
        raise ValueError(f"the spectral density at zero of {p} overflows a float")
    return value
