import warnings

import numpy as np
import pytest

from nonfrac import simulate
from nonfrac.model import (
    CsaParams,
    FracParams,
    acf_csa_lags,
    acf_frac_lags,
    csa_ma_coeffs,
    frac_ma_coeffs,
)
from nonfrac.simulate import (
    benchmark_generation,
    generate_csa_fast,
    generate_csa_naive,
    generate_frac_fast,
)

CSA = CsaParams(0.2, 1.6)


def sample_acf(x, max_lag):
    x = x - x.mean()
    denom = float(np.dot(x, x))
    return np.array([float(np.dot(x[k:], x[: x.size - k])) / denom for k in range(max_lag + 1)])


class TestImpulseResponses:
    def test_csa_fast_impulse(self):
        T = 64
        impulse = np.zeros(T)
        impulse[0] = 1.0
        out = generate_csa_fast(CSA, T, seed=0, innovations=impulse)
        np.testing.assert_allclose(out.values, csa_ma_coeffs(CSA, T), atol=1e-10)

    def test_frac_fast_impulse(self):
        T = 64
        impulse = np.zeros(T)
        impulse[0] = 1.0
        out = generate_frac_fast(FracParams(0.3), T, seed=0, innovations=impulse)
        np.testing.assert_allclose(out.values, frac_ma_coeffs(FracParams(0.3), T), atol=1e-10)

    def test_frac_identity_at_zero_memory(self):
        rng = np.random.default_rng(9)
        eps = rng.standard_normal(128)
        out = generate_frac_fast(FracParams(0.0), 128, seed=0, innovations=eps)
        np.testing.assert_allclose(out.values, eps, atol=1e-10)


class TestDeterminism:
    def test_csa_fast(self):
        a = generate_csa_fast(CSA, 256, seed=42).values
        b = generate_csa_fast(CSA, 256, seed=42).values
        assert np.array_equal(a, b)

    def test_csa_naive(self):
        a = generate_csa_naive(CSA, 64, 10, burn_in=50, seed=42).values
        b = generate_csa_naive(CSA, 64, 10, burn_in=50, seed=42).values
        assert np.array_equal(a, b)

    def test_frac_fast(self):
        a = generate_frac_fast(FracParams(0.4), 256, seed=42).values
        b = generate_frac_fast(FracParams(0.4), 256, seed=42).values
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = generate_csa_fast(CSA, 256, seed=1).values
        b = generate_csa_fast(CSA, 256, seed=2).values
        assert not np.array_equal(a, b)


def truncated_autocov_expectation(weights, T, max_lag):
    # E[(1/T) sum_t x_t x_{t-k}] for x_t = sum_{j<=t} phi_j eps_{t-j}:
    # exact finite-sample value, free of the usual sample-ACF bias
    out = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        partial = np.cumsum(weights[: T - k] * weights[k:T])
        out[k] = partial.sum() / T
    return out


def sample_autocov(x, max_lag):
    T = x.size
    return np.array([float(np.dot(x[k:], x[: T - k])) / T for k in range(max_lag + 1)])


class TestDistribution:
    def test_fast_autocov_matches_exact_expectation(self):
        reps, T, max_lag = 300, 2048, 20
        covs = np.empty((reps, max_lag + 1))
        for r in range(reps):
            seed = np.random.SeedSequence((1234, r))
            covs[r] = sample_autocov(generate_csa_fast(CSA, T, seed).values, max_lag)
        mean = covs.mean(axis=0)
        se = covs.std(axis=0, ddof=1) / np.sqrt(reps)
        theory = truncated_autocov_expectation(csa_ma_coeffs(CSA, T), T, max_lag)
        assert np.all(np.abs(mean - theory) < 3.0 * se)
        # the truncated-filter correlations converge to the filter's own
        # long-run ACF, which sits strictly above the aggregation-limit
        # closed form at every positive lag (Cauchy-Schwarz on the weights)
        J = 1_000_000
        w = csa_ma_coeffs(CSA, J)
        longrun = np.array(
            [float(np.dot(w[: J - k], w[k:])) for k in range(max_lag + 1)]
        )
        longrun /= longrun[0]
        gaps = []
        for size in (512, 8192, 131072):
            trunc = truncated_autocov_expectation(
                csa_ma_coeffs(CSA, size), size, max_lag
            )
            gaps.append(np.max(np.abs(trunc / trunc[0] - longrun)))
        assert gaps[2] < gaps[1] < gaps[0]
        closed = acf_csa_lags(CSA, max_lag)
        assert np.all(longrun[1:] > closed[1:])

    def test_frac_autocov_matches_exact_expectation(self):
        reps, T, max_lag = 300, 2048, 10
        p = FracParams(0.4)
        covs = np.empty((reps, max_lag + 1))
        for r in range(reps):
            seed = np.random.SeedSequence((77, r))
            covs[r] = sample_autocov(generate_frac_fast(p, T, seed).values, max_lag)
        mean = covs.mean(axis=0)
        se = covs.std(axis=0, ddof=1) / np.sqrt(reps)
        theory = truncated_autocov_expectation(frac_ma_coeffs(p, T), T, max_lag)
        assert np.all(np.abs(mean - theory) < 3.0 * se)
        closed = acf_frac_lags(p, max_lag)
        gaps = []
        for size in (512, 8192, 131072):
            trunc = truncated_autocov_expectation(
                frac_ma_coeffs(p, size), size, max_lag
            )
            gaps.append(np.max(np.abs(trunc / trunc[0] - closed)))
        assert gaps[2] < gaps[1] < gaps[0]

    def test_naive_zero_alpha_is_white_noise(self):
        out = generate_csa_naive(CSA, 4000, 1, burn_in=10, seed=3, alphas=[0.0])
        acf1 = sample_acf(out.values, 1)[1]
        assert abs(acf1) < 3.0 / np.sqrt(4000)

    def test_naive_acf_matches_closed_form(self):
        reps, T, n_units, max_lag = 30, 2000, 2000, 10
        acfs = np.empty((reps, max_lag + 1))
        for r in range(reps):
            seed = np.random.SeedSequence((555, r))
            acfs[r] = sample_acf(
                generate_csa_naive(CSA, T, n_units, burn_in=2000, seed=seed).values,
                max_lag,
            )
        mean = acfs.mean(axis=0)
        se = acfs.std(axis=0, ddof=1) / np.sqrt(reps)
        theory = acf_csa_lags(CSA, max_lag)
        assert np.all(np.abs(mean[1:] - theory[1:]) < 3.0 * se[1:])

    def test_fast_variance_matches_truncated_filter(self):
        # E[x_t^2] for the truncated filter is cumsum(phi^2); its average over
        # t also converges to csa_variance as T grows
        reps, T = 400, 1000
        vs = np.empty(reps)
        for r in range(reps):
            seed = np.random.SeedSequence((808, r))
            vs[r] = float(np.mean(generate_csa_fast(CSA, T, seed).values ** 2))
        se = vs.std(ddof=1) / np.sqrt(reps)
        phi = csa_ma_coeffs(CSA, T)
        truncated_expect = float(np.mean(np.cumsum(phi**2)))
        assert abs(vs.mean() - truncated_expect) < 3.0 * se
        from nonfrac.model import csa_variance

        assert truncated_expect == pytest.approx(csa_variance(CSA), rel=0.02)


class TestValidation:
    def test_bad_length(self):
        with pytest.raises(ValueError):
            generate_csa_fast(CSA, 0, seed=0)

    def test_bad_units(self):
        with pytest.raises(ValueError):
            generate_csa_naive(CSA, 10, 0, seed=0)

    def test_bad_burn_in(self):
        with pytest.raises(ValueError):
            generate_csa_naive(CSA, 10, 5, burn_in=-1, seed=0)

    def test_innovation_length_checked(self):
        with pytest.raises(ValueError):
            generate_csa_fast(CSA, 8, seed=0, innovations=np.zeros(4))

    @pytest.mark.parametrize("sigma", [1e308, 1e305])
    def test_overflowing_path_rejected(self, sigma):
        # 1e308 overflows the draw; 1e305 only the FFT of the filtered path
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                generate_csa_fast(CsaParams(0.2, 1.6, sigma_eps=sigma), 4096, seed=0)

    def test_finite_path_with_overflowing_sum_accepted(self, monkeypatch):
        # an FFT-made path keeps its sum in range, so an identity filter
        # stands in for the convolution and returns the impulses as the path
        monkeypatch.setattr(simulate, "circular_convolve", lambda nu, w: nu.copy())
        impulses = np.zeros(16)
        impulses[[0, 5, 9]] = [1.5e308, 1.7e308, -2e307]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                path = generate_csa_fast(CSA, 16, seed=0, innovations=impulses).values
        assert path.tobytes() == impulses.tobytes()
        with np.errstate(over="ignore"):
            assert np.isfinite(path).all() and path.sum() == np.inf

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("convolve", ["fft", "identity"])
    def test_non_finite_path_rejected(self, monkeypatch, bad, convolve):
        if convolve == "identity":  # one bad value among finite ones reaches the check
            monkeypatch.setattr(simulate, "circular_convolve", lambda nu, w: nu.copy())
        innovations = np.ones(64)
        innovations[7] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows") as info:
                generate_frac_fast(FracParams(0.3), 64, seed=0, innovations=innovations)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("sigma", [1.0, 1.5])
    def test_draw_is_sigma_times_standard_normal(self, monkeypatch, sigma):
        p = CsaParams(0.2, 1.6, sigma_eps=sigma)
        drawn = []
        convolve = simulate.circular_convolve
        monkeypatch.setattr(simulate, "circular_convolve", lambda nu, w: drawn.append(nu.copy()) or convolve(nu, w))
        path = generate_csa_fast(p, 1000, seed=17).values
        expected = sigma * np.random.default_rng(17).standard_normal(1000)
        assert drawn[0].tobytes() == expected.tobytes()
        assert path.tobytes() == convolve(expected, csa_ma_coeffs(p, 1000)).tobytes()

    def test_overflowing_naive_path_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                generate_csa_naive(CsaParams(0.2, 1.6, sigma_eps=1e308), 8, 4, burn_in=3, seed=0)


class TestBenchmark:
    def test_smoke(self):
        rows = benchmark_generation(CSA, [16], runs=2)
        assert len(rows) == 1
        assert rows[0].fast_seconds > 0 and rows[0].naive_seconds > 0

    def test_empty_sizes(self):
        with pytest.raises(ValueError):
            benchmark_generation(CSA, [])

    @pytest.mark.parametrize("runs", [0, -1])
    def test_no_runs(self, runs):
        # a median of no timings is nan
        with pytest.raises(ValueError, match="runs must be >= 1"):
            benchmark_generation(CSA, [16], runs=runs)
