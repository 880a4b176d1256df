import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular, toeplitz

from nonfrac import forecast, model, spectral
from nonfrac.forecast import forecast_csa, recover_innovations
from nonfrac.model import CsaParams, FracParams, csa_ma_coeffs
from nonfrac.simulate import generate_csa_fast
from nonfrac.spectral import _fft_length, circular_convolve

CSA = CsaParams(0.3, 1.5)

# slow and fast weight decay, long and short memory; T straddles the dense
# seed (128 terms) and the first Newton doublings
ORACLE_PARAMS = [(0.05, 1.02), (0.3, 1.5), (2.0, 3.9), (10.0, 8.0)]
ORACLE_T = [1, 2, 127, 128, 129, 257, 1000]

# the memos a forecast goes through: the inverse series, the shared weights
MEMOS = (forecast._inverse_coefficients, model._shared_weights)


def _clear_caches():
    for memo in MEMOS:
        memo.cache_clear()
    spectral._spectra.clear()


def _cache_counts(memo):
    info = memo.cache_info()
    return info.hits, info.misses, info.currsize


def _cached_spectrum(seq):
    """The spectrum `spectral` keeps for the operand `seq`, or None."""
    ref, spectrum = spectral._spectra.get(id(seq), (None, None))
    return spectrum if ref is not None and ref() is seq else None


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
        _clear_caches()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="x must be finite"):
                forecast_csa(x, CSA, 5)
        assert [m.cache_info().currsize for m in MEMOS] == [0, 0]
        assert not spectral._spectra

    @pytest.mark.parametrize("call", [recover_innovations, lambda x, p: forecast_csa(x, p, 5)])
    def test_frac_law_rejected(self, call):
        x = generate_csa_fast(CSA, 64, seed=3).values
        with pytest.raises(ValueError, match=r"needs a csa law, got FracParams\(d=0\.2\)"):
            call(x, FracParams(0.2))


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
    """The inverse series, keyed by (a, b, T); the shared weights, keyed by
    (a, b, T) and (a, b, T+h); and the spectra `spectral` keeps for both."""

    @pytest.mark.parametrize(
        "a, b, T",
        [(a, b, T) for a, b in ORACLE_PARAMS for T in [1, 128, 129, 1000]] + [(10.0, 1.02, 10_000)],
    )
    def test_warm_call_is_bit_identical_to_cold(self, a, b, T):
        p = CsaParams(a, b)
        x = generate_csa_fast(p, T, seed=T).values
        h = min(T, 20)
        _clear_caches()
        cold = _forecast_bytes(x, p, h)
        # weights at T (for the inverse) and at T + h; the inverse and the
        # extended weights, not x or the innovations, keep a spectrum
        assert [_cache_counts(m) for m in MEMOS] == [(0, 1, 1), (0, 2, 2)]
        assert len(spectral._spectra) == 2
        warm = _forecast_bytes(x, p, h)
        assert [_cache_counts(m) for m in MEMOS] == [(1, 1, 1), (1, 2, 2)]
        assert warm == cold
        # the cached series and spectra are those of a fresh inversion and
        # fresh weights
        g = forecast._inverse_coefficients(a, b, T)
        fresh = forecast._inverse_series(np.array(csa_ma_coeffs(p, T)))
        assert g.tobytes() == fresh.tobytes()
        assert _cached_spectrum(g).tobytes() == np.fft.rfft(fresh, _fft_length(T)).tobytes()
        phi = csa_ma_coeffs(p, T + h)
        fresh = model._csa_weights(a, b, T + h)
        assert phi.tobytes() == fresh.tobytes()
        assert _cached_spectrum(phi).tobytes() == np.fft.rfft(fresh, _fft_length(T + h)).tobytes()

    def test_parameters_do_not_share_an_entry(self):
        x = generate_csa_fast(CSA, 300, seed=1).values
        _clear_caches()
        forecast_csa(x, CsaParams(0.3, 1.5), 5)
        forecast_csa(x, CsaParams(0.3, 1.6), 5)
        forecast_csa(x, CsaParams(0.4, 1.5), 5)
        assert [_cache_counts(m) for m in MEMOS] == [(0, 3, 3), (0, 6, 6)]

    def test_sigma_shares_an_entry(self):
        x = generate_csa_fast(CSA, 300, seed=1).values
        _clear_caches()
        one = forecast_csa(x, CsaParams(0.3, 1.5, sigma_eps=1.0), 5)
        two = forecast_csa(x, CsaParams(0.3, 1.5, sigma_eps=2.5), 5)
        assert [_cache_counts(m) for m in MEMOS] == [(1, 1, 1), (1, 2, 2)]
        assert one.point_forecasts.tobytes() == two.point_forecasts.tobytes()

    def test_cached_weights_are_read_only(self):
        x = generate_csa_fast(CSA, 64, seed=1).values
        _clear_caches()
        forecast_csa(x, CSA, 3)
        cached = [forecast._inverse_coefficients(0.3, 1.5, 64), csa_ma_coeffs(CSA, 67)]
        cached += [spectrum for _, spectrum in spectral._spectra.values()]
        assert len(cached) == 4
        for array in cached:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 2.0

    def test_size_is_bounded(self):
        x = generate_csa_fast(CSA, 200, seed=4).values
        _clear_caches()
        sizes = (forecast._INVERSE_CACHE_SIZE, model._WEIGHT_MEMO_SIZE)
        assert [m.cache_info().maxsize for m in MEMOS] == list(sizes)
        for k in range(spectral._SPECTRUM_CACHE_SIZE + 3):
            forecast_csa(x, CsaParams(0.3 + 0.1 * k, 1.5), 3)
            assert [m.cache_info().currsize <= size for m, size in zip(MEMOS, sizes)] == [True, True]
            assert len(spectral._spectra) <= spectral._SPECTRUM_CACHE_SIZE
        assert [m.cache_info().currsize for m in MEMOS] == list(sizes)
        assert len(spectral._spectra) == spectral._SPECTRUM_CACHE_SIZE

    def test_warm_call_makes_four_ffts_and_no_weights(self, monkeypatch):
        x = generate_csa_fast(CSA, 1000, seed=6).values
        forecast_csa(x, CSA, 20)
        made = model._shared_weights.cache_info().misses
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.fft, "rfft", counted("rfft", np.fft.rfft))
        monkeypatch.setattr(np.fft, "irfft", counted("irfft", np.fft.irfft))
        monkeypatch.setattr(forecast, "_inverse_series", counted("newton", forecast._inverse_series))
        forecast_csa(x, CSA, 20)
        assert sorted(calls) == ["irfft", "irfft", "rfft", "rfft"]
        assert model._shared_weights.cache_info().misses == made

    def test_entries_are_shared_by_length(self):
        x = generate_csa_fast(CSA, 300, seed=1).values
        _clear_caches()
        # equal T + h share the weights entry
        forecast_csa(x, CSA, 10)
        forecast_csa(x[:290], CSA, 20)
        assert _cache_counts(forecast._inverse_coefficients) == (0, 2, 2)
        assert _cache_counts(model._shared_weights) == (1, 3, 3)  # 300, 310; 290, 310
        # different h at one T share only the inverse entry
        _clear_caches()
        forecast_csa(x, CSA, 5)
        forecast_csa(x, CSA, 7)
        assert _cache_counts(forecast._inverse_coefficients) == (1, 1, 1)
        assert _cache_counts(model._shared_weights) == (0, 3, 3)  # 300, 305, 307

    @pytest.mark.parametrize("a, b", ORACLE_PARAMS + [(0.2, 1.6), (10.0, 1.02)])
    def test_matches_convolution_formula_bit_for_bit(self, a, b):
        # the two-convolution form, on writeable copies that no cache keeps:
        # nu = g * x, then y = [nu, 0_h] * phi_{T+h}
        p = CsaParams(a, b)
        for T in [1, 2, 127, 128, 129, 257, 1000, 10_000]:
            x = generate_csa_fast(p, T, seed=T).values
            g = forecast._inverse_series(np.array(csa_ma_coeffs(p, T)))
            nu = circular_convolve(g, x)
            for h in sorted({1, min(20, T), T}):
                phi = np.array(csa_ma_coeffs(p, T + h))
                y = circular_convolve(np.concatenate([nu, np.zeros(h)]), phi)
                expected = y[T:].tobytes(), nu.tobytes(), float(np.max(np.abs(y[:T] - x)))
                _clear_caches()
                assert _forecast_bytes(x, p, h) == expected, (T, h)  # cold
                assert _forecast_bytes(x, p, h) == expected, (T, h)  # warm
