import math

import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.signal import fftconvolve

from nonfrac import fitloss
from nonfrac.fitloss import (
    approximation_loss,
    best_matching_a,
    fit_ar_population,
    gamma_z,
    zeta_ar,
    zeta_fractional,
)
from nonfrac.harness import TABLE_A_GRID, TABLE_B_GRID
from nonfrac.model import (
    CsaParams,
    FracParams,
    acf_csa_lags,
    acf_frac_lags,
    csa_variance,
    frac_ma_coeffs,
)
from nonfrac.specfun import ConvergenceError, hypergeometric_pfq


def series_gamma_z(p, k, hyper):
    """gamma_z(k) in its series form, with `hyper(num, den)` the (q+1)Fq sum at
    unit argument: gamma*(k)/B(a,b) [B(a,b-1)(F1(k) + F1(-k) - 1) +
    B(a+1/2,b-1)(F2(k) + F2(-k))], F1 and F2 4F3 values. Returns gamma*(k)
    and the bracket over B(a,b-1)/B(a,b) = (a+b-1)/(b-1)."""
    a, b = p.a, p.b
    d = 1.0 - b / 2.0

    def f1(s):
        return hyper([1, a, (1 - d + s) / 2, (-d + s) / 2], [a + b - 1, (2 + d + s) / 2, (1 + d + s) / 2])

    def f2(s):
        return (-d + s) / (1 + d + s) * hyper(
            [1, a + 0.5, (1 - d + s) / 2, (2 - d + s) / 2], [a + b - 0.5, (2 + d + s) / 2, (3 + d + s) / 2])

    return f1(k) + f1(-k) - 1, f2(k) + f2(-k)


class TestFitArPopulation:
    def test_order_one_is_lag_one_autocorrelation(self):
        p = CsaParams(0.5, 1.6)
        coeffs = fit_ar_population(p, 1)
        assert coeffs.shape == (1,)
        assert coeffs[0] == pytest.approx(acf_csa_lags(p, 1)[1], rel=1e-14)

    @pytest.mark.parametrize("order", [2, 5, 20])
    def test_matches_dense_solve(self, order):
        p = CsaParams(0.9, 1.4)
        r = acf_csa_lags(p, order)
        dense = np.linalg.solve(toeplitz(r[:order]), r[1 : order + 1])
        np.testing.assert_allclose(fit_ar_population(p, order), dense, atol=1e-10)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            fit_ar_population(CsaParams(0.5, 1.6), 0)

    def test_singular_system_is_a_runtime_error(self):
        # near a unit root the autocorrelations round to a singular Toeplitz
        # matrix: a numerical failure, not the LinAlgError (a ValueError)
        # that would read as bad input
        p = CsaParams(3.1622776601683794e13, 1.1)
        with pytest.raises(RuntimeError, match=r"AR\(20\) Yule-Walker system of CsaParams\(a=3162") as info:
            fit_ar_population(p, 20)
        assert not isinstance(info.value, ValueError)


class TestZetaAr:
    def test_ar1_closed_form_reduction(self):
        # (B(a,b-1)/B(a,b)) (1 - rho_1^2)
        for a, b in ((0.1, 1.8), (0.5, 1.6), (1.7, 1.1)):
            p = CsaParams(a, b)
            rho1 = acf_csa_lags(p, 1)[1]
            closed = (a + b - 1.0) / (b - 1.0) * (1.0 - rho1**2)
            general = zeta_ar(p, fit_ar_population(p, 1))
            assert general == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("order", [1, 3, 20])
    def test_against_quadratic_form_oracle(self, order):
        # zeta = E[(x_t - sum alpha_i x_{t-i})^2] / sigma^2 from the dense
        # autocovariance quadratic form
        p = CsaParams(1.3, 1.2)
        alpha = fit_ar_population(p, order)
        g = csa_variance(p) * acf_csa_lags(p, order)
        mse = g[0] - 2.0 * float(np.dot(alpha, g[1:])) + float(
            alpha @ toeplitz(g[:order]) @ alpha
        )
        assert zeta_ar(p, alpha) == pytest.approx(mse, rel=1e-11)

    def test_monotone_decreasing_in_order(self):
        p = CsaParams(0.5, 1.6)
        zetas = [zeta_ar(p, fit_ar_population(p, k)) for k in range(1, 21)]
        assert np.all(np.diff(zetas) < 0)
        assert all(z > 1.0 for z in zetas)

    def test_printed_anchors(self):
        # one-step error variance of AR fits at a few tabulated cells
        assert zeta_ar(CsaParams(0.5, 1.6), fit_ar_population(CsaParams(0.5, 1.6), 1)) == pytest.approx(1.172, abs=0.002)
        assert zeta_ar(CsaParams(0.1, 1.1), fit_ar_population(CsaParams(0.1, 1.1), 1)) == pytest.approx(1.387, abs=0.002)
        assert zeta_ar(CsaParams(1.7, 1.8), fit_ar_population(CsaParams(1.7, 1.8), 20)) == pytest.approx(1.075, abs=0.002)

    @staticmethod
    def _ar1_oracle(a, b):
        # (a+b-1)/(b-1) (1 - rho_1^2), rho_1 = B(a+1/2, b-1) / B(a, b-1), in
        # 50-digit arithmetic
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            am, bm = mp.mpf(a), mp.mpf(b)
            rho1 = mp.beta(am + 0.5, bm - 1) / mp.beta(am, bm - 1)
            return float((am + bm - 1) / (bm - 1) * (1 - rho1**2))

    @pytest.mark.parametrize("a", [1e3, 1e6])
    def test_large_a_against_mpmath(self, a):
        p = CsaParams(a, 1.5)
        zeta = zeta_ar(p, fit_ar_population(p, 1))
        assert zeta == pytest.approx(self._ar1_oracle(a, 1.5), rel=1e-8)

    @pytest.mark.parametrize("a", [1e9, 1e15])
    def test_huge_a_accurate_or_refused(self, a):
        # (1 + alpha^2) - 2 rho_1 alpha cancels as alpha -> 1
        p = CsaParams(a, 1.5)
        try:
            zeta = zeta_ar(p, fit_ar_population(p, 1))
        except RuntimeError as exc:
            assert "cancellation" in str(exc)
        else:
            assert zeta == pytest.approx(self._ar1_oracle(a, 1.5), rel=1e-6)

    def test_at_least_one_whenever_returned(self):
        # zeta >= 1 for any coefficients: no forecaster of the aggregate beats
        # one that sees every unit's innovations
        returned = 0
        for a in 10.0 ** np.arange(0.0, 15.5, 0.5):
            for b in (1.1, 1.5, 1.9):
                for order in (1, 20):
                    p = CsaParams(a, b)
                    try:
                        zeta = zeta_ar(p, fit_ar_population(p, order))
                    except RuntimeError:  # refused, or a singular Yule-Walker solve
                        continue
                    returned += 1
                    assert zeta >= 1.0, (a, b, order)
        assert returned > 50


class TestGammaZ:
    def test_against_double_sum_oracle(self):
        # gamma_z(k) = sum_{i,j} pi_i pi_j gamma_x(k+i-j) with pi the
        # differencing weights, truncated at 2e5 terms (accurate to ~1e-5)
        p = CsaParams(0.5, 1.6)
        d = p.memory_d
        J = 200_000
        pi = frac_ma_coeffs(FracParams(-d), J)
        r = fftconvolve(pi, pi[::-1])[J - 1 :]
        gx = csa_variance(p) * acf_csa_lags(p, J + 2)
        m = np.arange(1, J)
        for k in (0, 1):
            brute = (
                r[0] * gx[k]
                + float(np.dot(r[1:], gx[k + 1 : k + J]))
                + float(np.dot(r[1:], gx[np.abs(k - m)]))
            )
            assert gamma_z(p, k) == pytest.approx(brute, abs=2e-5)

    def test_against_4f3_series(self):
        # the lag sum regroups the series form: even j give F1(k) + F1(-k),
        # odd j rho_1 (F2(k) + F2(-k)); here that form summed by hypergeometric_pfq
        for a in TABLE_A_GRID:
            for b in TABLE_B_GRID:
                p = CsaParams(a, b)
                d = p.memory_d
                star = math.gamma(1 + 2 * d) / math.gamma(1 + d) ** 2 * acf_frac_lags(FracParams(-d), 2)
                rho1 = acf_csa_lags(p, 1)[1]
                for k in (0, 1, 2):
                    f1, f2 = series_gamma_z(p, k, hypergeometric_pfq)
                    ref = csa_variance(p) * star[k] * (f1 + rho1 * f2)
                    assert gamma_z(p, k) == pytest.approx(ref, rel=1e-12), (a, b, k)

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")

        def ref(p, k):
            a, b = p.a, p.b
            d = 1.0 - b / 2.0
            f1, f2 = series_gamma_z(p, k, lambda num, den: mp.hyper(num, den, 1))
            star = (mp.gamma(1 + 2 * d) / (mp.gamma(-d) * mp.gamma(1 + d))
                    * mp.gamma(-d - k) / mp.gamma(1 + d - k))
            return float(star / mp.beta(a, b) * (mp.beta(a, b - 1) * f1 + mp.beta(a + 0.5, b - 1) * f2))

        for a, b in ((0.9, 1.4), (0.1, 1.1), (1.7, 1.8), (10.0, 1.02)):
            for k in (0, 1, 2):
                assert gamma_z(CsaParams(a, b), k) == pytest.approx(ref(CsaParams(a, b), k), rel=1e-11), (a, b, k)
        # more of the lag sum cancels at a far lag: S_50 is 1.3% of the sum
        # of its terms' magnitudes, where S_0 is 28%
        assert gamma_z(CsaParams(0.5, 1.6), 50) == pytest.approx(ref(CsaParams(0.5, 1.6), 50), rel=1e-9)

    def test_term_budget(self, monkeypatch):
        # (1000, 1.5) needs 2^18 terms a class; a budget of 10^4 refuses it
        monkeypatch.setattr(fitloss, "MAX_SERIES_TERMS", 10**4)
        with pytest.raises(ConvergenceError, match="after 16384 terms"):
            gamma_z(CsaParams(1000.0, 1.5), 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gamma_z(CsaParams(0.5, 2.5), 0)
        with pytest.raises(ValueError):
            gamma_z(CsaParams(0.5, 1.6), -1)

    def test_scales_with_sigma_squared_and_overflow_is_a_value_error(self):
        one, two = gamma_z(CsaParams(0.5, 1.6), 1), gamma_z(CsaParams(0.5, 1.6, sigma_eps=2.0), 1)
        assert two == 4.0 * one
        with pytest.raises(ValueError, match="overflows a float"):
            gamma_z(CsaParams(0.5, 1.6, sigma_eps=1e200), 0)

    def test_int_sigma_is_its_float(self):
        # an int sigma whose square overflows gives inf, as its float does, not OverflowError
        assert gamma_z(CsaParams(0.5, 1.6, 3), 1) == gamma_z(CsaParams(0.5, 1.6, 3.0), 1)
        with pytest.raises(ValueError, match="overflows a float"):
            gamma_z(CsaParams(0.5, 1.6, 10**200), 0)


class TestZetaFractional:
    def test_printed_anchors(self):
        pure, arfima = zeta_fractional(CsaParams(0.5, 1.6))
        assert pure.zeta == pytest.approx(1.253, abs=0.005)
        assert arfima.fitted_params[0] == pytest.approx(0.312, abs=0.005)
        assert arfima.zeta == pytest.approx(1.132, abs=0.005)
        pure, arfima = zeta_fractional(CsaParams(1.7, 1.8))
        assert pure.zeta == pytest.approx(2.138, abs=0.005)
        assert arfima.fitted_params[0] == pytest.approx(0.699, abs=0.005)
        assert arfima.zeta == pytest.approx(1.093, abs=0.005)

    @pytest.mark.parametrize("sigma", [0.5, 2.0, 1e200])
    def test_zeta_does_not_depend_on_sigma(self, sigma):
        # zeta is relative to sigma_eps^2, like zeta_ar's; the reports keep
        # the caller's parameters
        p = CsaParams(0.5, 1.6, sigma_eps=sigma)
        got = zeta_fractional(p)
        unit = zeta_fractional(CsaParams(0.5, 1.6))
        assert [(r.zeta, r.fitted_params) for r in got] == [(r.zeta, r.fitted_params) for r in unit]
        assert all(r.csa == p for r in got)

    def test_arfima_beats_pure_when_alpha_positive(self):
        pure, arfima = zeta_fractional(CsaParams(0.9, 1.4))
        assert 1.0 < arfima.zeta < pure.zeta

    def test_displayed_expression_is_capped_at_one(self):
        # the paper's expression (g0^2 - g1^2)/g0^2 = 1 - alpha^2 never
        # exceeds 1, so it cannot be a relative error variance; zeta_fractional
        # reports g0 times it
        p = CsaParams(0.5, 1.6)
        g0, g1 = gamma_z(p, 0), gamma_z(p, 1)
        displayed = (g0**2 - g1**2) / g0**2
        _, arfima = zeta_fractional(p)
        assert displayed < 1.0
        assert arfima.zeta == pytest.approx(g0 * displayed, rel=1e-12)


class TestApproximationLoss:
    def test_hand_computed_k1(self):
        # single lag: squared gap between the two lag-1 autocorrelations
        a, d = 0.3, 0.2
        gap = acf_csa_lags(CsaParams(a, 1.6), 1)[1] - 0.2 / 0.8
        assert approximation_loss(1, a, d) == pytest.approx(gap**2, rel=1e-12)

    def test_zero_at_matched_decay_is_not_required(self):
        assert approximation_loss(10, 0.12, 0.2) > 0.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            approximation_loss(0, 0.5, 0.2)


class TestBestMatchingA:
    def test_interior_minimum(self):
        a_star, loss = best_matching_a(10, 0.2)
        assert 0.0 < a_star < 5.0
        for nudge in (-1e-3, 1e-3):
            assert approximation_loss(10, a_star + nudge, 0.2) >= loss

    def test_text_anchor(self):
        a2, _ = best_matching_a(2, 0.2)
        a30, _ = best_matching_a(30, 0.2)
        assert a2 == pytest.approx(0.118, abs=0.001)
        assert a30 == pytest.approx(0.121, abs=0.001)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            best_matching_a(0, 0.2)
