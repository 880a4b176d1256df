import numpy as np
import pytest
from scipy.linalg import solve_triangular, toeplitz

from nonfrac.forecast import forecast_csa, recover_innovations
from nonfrac.model import CsaParams, csa_ma_coeffs
from nonfrac.simulate import generate_csa_fast

CSA = CsaParams(0.3, 1.5)


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
        T = 128
        x = generate_csa_fast(CSA, T, seed=11).values
        phi = csa_ma_coeffs(CSA, T)
        M = toeplitz(phi, np.zeros(T))
        dense = solve_triangular(M, x, lower=True)
        nu = recover_innovations(x, CSA)
        np.testing.assert_allclose(nu, dense, atol=1e-10)

    def test_first_innovation_is_first_observation(self):
        x = generate_csa_fast(CSA, 16, seed=2).values
        assert recover_innovations(x, CSA)[0] == pytest.approx(x[0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            recover_innovations(np.array([]), CSA)


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
        # x_hat_{T+i} = sum_{j=i}^{T-1+i} phi_j nu_{T-1+i-j}, spelled out
        T, h = 100, 5
        x = generate_csa_fast(CSA, T, seed=13).values
        res = forecast_csa(x, CSA, h)
        phi = csa_ma_coeffs(CSA, T + h)
        nu = res.innovations
        for i in range(1, h + 1):
            brute = sum(phi[j] * nu[T - 1 + i - j] for j in range(i, T + i))
            assert res.point_forecasts[i - 1] == pytest.approx(brute, rel=1e-10)

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
