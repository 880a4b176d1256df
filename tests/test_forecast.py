import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular, toeplitz

from nonfrac import forecast
from nonfrac.forecast import forecast_csa, recover_innovations
from nonfrac.model import CsaParams, csa_ma_coeffs
from nonfrac.simulate import generate_csa_fast
from nonfrac.spectral import _fft_length, circular_convolve

CSA = CsaParams(0.3, 1.5)

# slow and fast weight decay, long and short memory; T straddles the dense
# seed (128 terms) and the first Newton doublings
ORACLE_PARAMS = [(0.05, 1.02), (0.3, 1.5), (2.0, 3.9), (10.0, 8.0)]
ORACLE_T = [1, 2, 127, 128, 129, 257, 1000]


SPECTRUM_CACHES = (forecast._inverse_spectrum, forecast._weight_spectrum)


def _clear_spectra():
    for cache in SPECTRUM_CACHES:
        cache.cache_clear()


def _cache_counts(cache):
    info = cache.cache_info()
    return info.hits, info.misses, info.currsize


def _brute_force_forecasts(phi, nu, h):
    # x_hat_{T+i} = sum_{j=i}^{T-1+i} phi_j nu_{T-1+i-j}, spelled out
    T = nu.size
    return [sum(phi[j] * nu[T - 1 + i - j] for j in range(i, T + i)) for i in range(1, h + 1)]


def _assert_brute_force_forecasts(T, h):
    x = generate_csa_fast(CSA, T, seed=13).values
    res = forecast_csa(x, CSA, h)
    brute = _brute_force_forecasts(csa_ma_coeffs(CSA, T + h), res.innovations, h)
    assert list(res.point_forecasts) == pytest.approx(brute, rel=1e-10)


class TestRecoverInnovations:
    def test_round_trip(self):
        # filter with the MA weights, invert, get the innovations back
        T = 400
        rng = np.random.default_rng(7)
        eps = rng.standard_normal(T)
        x = generate_csa_fast(CSA, T, seed=0, innovations=eps).values
        nu = recover_innovations(x, CSA)
        assert np.max(np.abs(nu - eps)) < 1e-8

    def test_matches_dense_triangular_solve(self):
        for a, b in ORACLE_PARAMS:
            for T in ORACLE_T:
                p = CsaParams(a, b)
                x = generate_csa_fast(p, T, seed=T).values
                phi = csa_ma_coeffs(p, T)
                dense = solve_triangular(toeplitz(phi, np.zeros(T)), x, lower=True)
                nu = recover_innovations(x, p)
                np.testing.assert_allclose(
                    nu, dense, rtol=0, atol=1e-12 * np.max(np.abs(x)), err_msg=f"a={a}, b={b}, T={T}"
                )

    def test_first_innovation_is_first_observation(self):
        x = generate_csa_fast(CSA, 16, seed=2).values
        assert recover_innovations(x, CSA)[0] == pytest.approx(x[0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            recover_innovations(np.array([]), CSA)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        x = generate_csa_fast(CSA, 64, seed=3).values
        x[10] = bad
        _clear_spectra()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="x must be finite"):
                forecast_csa(x, CSA, 5)
        assert [c.cache_info().currsize for c in SPECTRUM_CACHES] == [0, 0]


class TestForecastCsa:
    def test_reconstruction_error_small(self):
        x = generate_csa_fast(CSA, 500, seed=5).values
        res = forecast_csa(x, CSA, 10)
        assert res.reconstruction_error < 1e-8

    def test_noise_free_continuation_recovered(self):
        # if the path is the pure impulse response, the forecast continues it
        T, h = 200, 20
        phi = csa_ma_coeffs(CSA, T + h)
        res = forecast_csa(phi[:T], CSA, h)
        np.testing.assert_allclose(res.point_forecasts, phi[T:], atol=1e-8)

    def test_matches_brute_force_definition(self):
        _assert_brute_force_forecasts(100, 5)

    @pytest.mark.parametrize("T", [129, 400])
    def test_matches_brute_force_at_horizon_T(self, T):
        # h = T is the largest horizon the CLI accepts
        _assert_brute_force_forecasts(T, T)

    def test_matches_forward_substitution_at_slow_decay(self):
        # b near 1: the weights decay like j^{-0.51}, so the Toeplitz matrix has
        # a large norm and magnifies rounding in the innovations into the
        # forecasts; the reference innovations come from forward substitution
        T, h = 10_000, 20
        p = CsaParams(10.0, 1.02)
        x = generate_csa_fast(p, T, seed=T).values
        phi = csa_ma_coeffs(p, T + h)
        nu = np.empty(T)
        nu[0] = x[0]
        for i in range(1, T):
            nu[i] = x[i] - phi[1 : i + 1] @ nu[i - 1 :: -1]
        res = forecast_csa(x, p, h)
        scale = np.max(np.abs(x))
        np.testing.assert_allclose(res.innovations, nu, rtol=0, atol=1e-12 * scale)
        brute = _brute_force_forecasts(phi, nu, h)
        np.testing.assert_allclose(res.point_forecasts, brute, rtol=0, atol=1e-13 * scale)

    def test_one_step_error_is_next_innovation(self):
        # the truncated process satisfies x_{T+1} = forecast + eps_{T+1}
        T = 300
        rng = np.random.default_rng(23)
        eps = rng.standard_normal(T + 1)
        x_full = generate_csa_fast(CSA, T + 1, seed=0, innovations=eps).values
        res = forecast_csa(x_full[:T], CSA, 1)
        assert x_full[T] - res.point_forecasts[0] == pytest.approx(eps[T], abs=1e-8)

    def test_forecast_decays_toward_mean(self):
        x = generate_csa_fast(CSA, 400, seed=31).values
        res = forecast_csa(x, CSA, 100)
        assert abs(res.point_forecasts[-1]) < abs(res.point_forecasts[0]) + 1e-12

    def test_horizon_validation(self):
        x = np.ones(10)
        with pytest.raises(ValueError):
            forecast_csa(x, CSA, 0)
        with pytest.raises(ValueError):
            forecast_csa(x, CSA, 11)

    def test_result_fields(self):
        x = generate_csa_fast(CSA, 50, seed=1).values
        res = forecast_csa(x, CSA, 3)
        assert res.horizon == 3
        assert res.point_forecasts.shape == (3,)
        assert res.innovations.shape == (50,)


def _forecast_bytes(x, p, h):
    res = forecast_csa(x, p, h)
    return res.point_forecasts.tobytes(), res.innovations.tobytes(), res.reconstruction_error


class TestInverseWeightCache:
    """The spectra of the inverse weights, keyed by (a, b, T), and of the
    weights extended to the horizon, keyed by (a, b, T+h)."""

    @pytest.mark.parametrize(
        "a, b, T",
        [(a, b, T) for a, b in ORACLE_PARAMS for T in [1, 128, 129, 1000]] + [(10.0, 1.02, 10_000)],
    )
    def test_warm_call_is_bit_identical_to_cold(self, a, b, T):
        p = CsaParams(a, b)
        x = generate_csa_fast(p, T, seed=T).values
        h = min(T, 20)
        _clear_spectra()
        cold = _forecast_bytes(x, p, h)
        assert [_cache_counts(c) for c in SPECTRUM_CACHES] == [(0, 1, 1)] * 2
        warm = _forecast_bytes(x, p, h)
        assert [_cache_counts(c) for c in SPECTRUM_CACHES] == [(1, 1, 1)] * 2
        assert warm == cold
        # the cached spectra are those of a fresh inversion and fresh weights
        n = _fft_length(T)
        fresh = np.fft.rfft(forecast._inverse_series(csa_ma_coeffs(p, T)), n)
        assert forecast._inverse_spectrum(a, b, T).tobytes() == fresh.tobytes()
        n = _fft_length(T + h)
        fresh = np.fft.rfft(csa_ma_coeffs(p, T + h), n)
        assert forecast._weight_spectrum(a, b, T + h).tobytes() == fresh.tobytes()

    def test_parameters_do_not_share_an_entry(self):
        _clear_spectra()
        x = generate_csa_fast(CSA, 300, seed=1).values
        forecast_csa(x, CsaParams(0.3, 1.5), 5)
        forecast_csa(x, CsaParams(0.3, 1.6), 5)
        forecast_csa(x, CsaParams(0.4, 1.5), 5)
        assert [_cache_counts(c) for c in SPECTRUM_CACHES] == [(0, 3, 3)] * 2

    def test_sigma_shares_an_entry(self):
        _clear_spectra()
        x = generate_csa_fast(CSA, 300, seed=1).values
        one = forecast_csa(x, CsaParams(0.3, 1.5, sigma_eps=1.0), 5)
        two = forecast_csa(x, CsaParams(0.3, 1.5, sigma_eps=2.5), 5)
        assert [_cache_counts(c) for c in SPECTRUM_CACHES] == [(1, 1, 1)] * 2
        assert one.point_forecasts.tobytes() == two.point_forecasts.tobytes()

    def test_cached_weights_are_read_only(self):
        for cache in SPECTRUM_CACHES:
            spectrum = cache(0.3, 1.5, 64)
            assert not spectrum.flags.writeable
            with pytest.raises(ValueError):
                spectrum[0] = 2.0

    def test_size_is_bounded(self):
        _clear_spectra()
        x = generate_csa_fast(CSA, 200, seed=4).values
        for cache in SPECTRUM_CACHES:
            assert cache.cache_info().maxsize == forecast._SPECTRUM_CACHE_SIZE
        for k in range(forecast._SPECTRUM_CACHE_SIZE + 3):
            forecast_csa(x, CsaParams(0.3 + 0.1 * k, 1.5), 3)
            assert all(c.cache_info().currsize <= forecast._SPECTRUM_CACHE_SIZE for c in SPECTRUM_CACHES)
        assert [c.cache_info().currsize for c in SPECTRUM_CACHES] == [forecast._SPECTRUM_CACHE_SIZE] * 2

    def test_warm_call_makes_four_ffts_and_no_weights(self, monkeypatch):
        x = generate_csa_fast(CSA, 1000, seed=6).values
        forecast_csa(x, CSA, 20)
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.fft, "rfft", counted("rfft", np.fft.rfft))
        monkeypatch.setattr(np.fft, "irfft", counted("irfft", np.fft.irfft))
        monkeypatch.setattr(forecast, "csa_ma_coeffs", counted("weights", csa_ma_coeffs))
        forecast_csa(x, CSA, 20)
        assert sorted(calls) == ["irfft", "irfft", "rfft", "rfft"]

    def test_entries_are_shared_by_length(self):
        _clear_spectra()
        x = generate_csa_fast(CSA, 300, seed=1).values
        # equal T + h share the weights entry
        forecast_csa(x, CSA, 10)
        forecast_csa(x[:290], CSA, 20)
        assert _cache_counts(forecast._weight_spectrum) == (1, 1, 1)
        assert _cache_counts(forecast._inverse_spectrum) == (0, 2, 2)
        # different h at one T share only the inverse entry
        _clear_spectra()
        forecast_csa(x, CSA, 5)
        forecast_csa(x, CSA, 7)
        assert _cache_counts(forecast._inverse_spectrum) == (1, 1, 1)
        assert _cache_counts(forecast._weight_spectrum) == (0, 2, 2)

    @pytest.mark.parametrize("a, b", ORACLE_PARAMS + [(0.2, 1.6), (10.0, 1.02)])
    def test_matches_convolution_formula_bit_for_bit(self, a, b):
        # the two-convolution form the cached spectra replace:
        # nu = g * x, then y = [nu, 0_h] * phi_{T+h}
        p = CsaParams(a, b)
        for T in [1, 2, 127, 128, 129, 257, 1000, 10_000]:
            x = generate_csa_fast(p, T, seed=T).values
            g = forecast._inverse_series(csa_ma_coeffs(p, T))
            nu = circular_convolve(g, x)
            for h in sorted({1, min(20, T), T}):
                y = circular_convolve(np.concatenate([nu, np.zeros(h)]), csa_ma_coeffs(p, T + h))
                expected = y[T:].tobytes(), nu.tobytes(), float(np.max(np.abs(y[:T] - x)))
                _clear_spectra()
                assert _forecast_bytes(x, p, h) == expected, (T, h)  # cold
                assert _forecast_bytes(x, p, h) == expected, (T, h)  # warm
