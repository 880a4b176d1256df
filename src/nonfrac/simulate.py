"""Sample-path generation.

Fast generators filter seeded Gaussian innovations with the MA weights via
one circular convolution (O(T log T)); the naive aggregator runs N seeded
AR(1) units and is kept as the definitional oracle. Both fast paths use the
truncated (Type II) convention with zero pre-sample innovations.
"""

import time
from dataclasses import dataclass

import numpy as np

from .spectral import circular_convolve

__all__ = [
    "SeriesSample",
    "TimingRow",
    "generate_csa_fast",
    "generate_csa_naive",
    "generate_frac_fast",
    "benchmark_generation",
]


@dataclass(frozen=True)
class SeriesSample:
    """A simulated path with its generating metadata.

    Identical (generator, params, seed, T, n_units) reproduce the values
    bit-for-bit on one platform.
    """

    values: np.ndarray
    generator: str  # 'csa_fast', 'csa_naive' or 'frac_fast'
    params: object
    seed: int
    n_units: int | None = None


def _generate_fast(p, T, seed, innovations):
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    # A huge but finite sigma overflows the draw or the FFT; report that as
    # one error instead of numpy warnings and a path of nan.
    with np.errstate(over="ignore", invalid="ignore"):
        if innovations is None:
            nu = np.random.default_rng(seed).standard_normal(T)
            if p.sigma_eps != 1.0:  # scaling by 1.0 is exact, so it is skipped
                nu *= p.sigma_eps
        else:
            nu = np.asarray(innovations, dtype=float)
            if nu.size != T:
                raise ValueError(f"need {T} innovations, got {nu.size}")
        values = circular_convolve(nu, p.ma_weights(T))
    if not np.isfinite(values).all():
        raise ValueError("simulated path overflows float64; use a smaller sigma")
    return SeriesSample(values=values, generator=f"{p.process}_fast", params=p, seed=seed)


def generate_csa_fast(p, T, seed, innovations=None):
    """Fast CSA(a, b) path: convolve seeded N(0, sigma^2) innovations with
    the MA weights. `innovations` overrides the random draw (a stream shared
    with another law, or an impulse, which returns the weights)."""
    return _generate_fast(p, T, seed, innovations)


def generate_frac_fast(p, T, seed, innovations=None):
    """Fast I(d) path: same convolution device with the fractional
    weights, unit innovation variance."""
    return _generate_fast(p, T, seed, innovations)


def generate_csa_naive(p, T, n_units, burn_in=None, seed=0, alphas=None):
    """Definitional CSA generator: N AR(1) units with alpha_i^2 ~ Beta(a, b),
    started at zero, warmed up for `burn_in` steps and aggregated with
    1/sqrt(N) scaling.

    Innovations are drawn one time step at a time so memory stays O(N + T)
    even for very long warm-ups. `alphas` overrides the Beta draw (test
    hook). Default burn_in is max(2000, T); units with alpha near 1 need a
    long warm-up.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if n_units < 1:
        raise ValueError(f"n_units must be >= 1, got {n_units}")
    if burn_in is None:
        burn_in = max(2000, T)
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    rng = np.random.default_rng(seed)
    if alphas is None:
        alphas = np.sqrt(rng.beta(p.a, p.b, size=n_units))
    else:
        alphas = np.asarray(alphas, dtype=float)
        if alphas.size != n_units:
            raise ValueError(f"need {n_units} alphas, got {alphas.size}")
    state = np.zeros(n_units)
    out = np.empty(T)
    # as in `_generate_fast`: one error for a path that overflows float64
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(burn_in + T):
            state = alphas * state + p.sigma_eps * rng.standard_normal(n_units)
            if t >= burn_in:
                out[t - burn_in] = state.sum()
        out /= np.sqrt(n_units)
    if not np.isfinite(out).all():
        raise ValueError("simulated path overflows float64; use a smaller sigma")
    return SeriesSample(
        values=out, generator="csa_naive", params=p, seed=seed, n_units=n_units
    )


@dataclass(frozen=True)
class TimingRow:
    T: int
    n_units: int
    fast_seconds: float
    naive_seconds: float

    @property
    def speedup(self):
        return self.naive_seconds / self.fast_seconds


def _median_time(fn, runs):
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def benchmark_generation(p, sizes, runs=5):
    """Median wall-clock of `runs` calls of the fast vs the naive generator
    at each sample size, with seed 0 and N = T units, matching the advice
    that the cross-sectional dimension should grow with the sample size.
    """
    if not sizes:
        raise ValueError("sizes must be nonempty")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    rows = []
    for T in sizes:
        t_fast = _median_time(lambda: generate_csa_fast(p, T, 0), runs)
        t_naive = _median_time(lambda: generate_csa_naive(p, T, T, seed=0), runs)
        rows.append(TimingRow(T=T, n_units=T, fast_seconds=t_fast, naive_seconds=t_naive))
    return rows
