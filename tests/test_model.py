import math
import sys
import threading

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta, betaln, gammaln, gammasgn

from nonfrac import model, spectral
from nonfrac.model import (
    CsaParams,
    FracParams,
    acf_csa_lags,
    acf_frac_lags,
    csa_aggregate_spectrum_at_zero,
    csa_ma_coeffs,
    csa_spectrum_at_zero,
    csa_variance,
    frac_ma_coeffs,
    params_from_dict,
    params_to_dict,
)
from nonfrac.spectral import circular_convolve
from nonfrac.specfun import ConvergenceError, beta_ratio_sequence


class TestParams:
    def test_frac_domain(self):
        with pytest.raises(ValueError):
            FracParams(d=0.5)
        with pytest.raises(ValueError):
            FracParams(d=-0.6)

    def test_csa_domain(self):
        with pytest.raises(ValueError):
            CsaParams(a=0.0, b=1.5)
        with pytest.raises(ValueError):
            CsaParams(a=1.0, b=1.0)
        with pytest.raises(ValueError):
            CsaParams(a=1.0, b=1.5, sigma_eps=0.0)

    @pytest.mark.parametrize("field", ["a", "b", "sigma_eps"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_csa_non_finite(self, field, value):
        # nan <= 0 is False, and b = inf would make the weights white noise
        fields = {"a": 0.5, "b": 1.5, "sigma_eps": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CsaParams(**fields)

    def test_implied_memory(self):
        assert CsaParams(a=0.2, b=1.6).memory_d == pytest.approx(0.2)
        assert CsaParams(a=0.2, b=2.8).memory_d == pytest.approx(-0.4)

    @pytest.mark.parametrize(
        "cls, fields, field",
        [(CsaParams, {"a": 0.5, "b": 1.5}, "a"), (CsaParams, {"a": 0.5, "b": 1.5}, "b"),
         (CsaParams, {"a": 0.5, "b": 1.5}, "sigma_eps"), (FracParams, {"d": 0.2}, "d")],
    )
    @pytest.mark.parametrize("value", [True, False, "0.2", None, [1.0], 10**400, -(10**400)])
    def test_field_not_a_finite_real(self, cls, fields, field, value):
        # a bool is an int to Python, and 10**400 overflows float(): neither may pass
        with pytest.raises(ValueError, match=f"^{field} must be"):
            cls(**{**fields, field: value})

    def test_valid_int_kept_as_given(self):
        p = CsaParams(a=1, b=3)
        assert type(p.a) is int and params_to_dict(p) == {"process": "csa", "a": 1, "b": 3, "sigma_eps": 1.0}
        assert type(FracParams(0).d) is int


class TestSurface:
    """CsaParams and FracParams answer the same questions."""

    CSA, FRAC = CsaParams(0.3, 1.7, 2.0), FracParams(-0.2)

    def test_process_memory_sigma(self):
        assert (self.CSA.process, self.CSA.memory_d, self.CSA.sigma_eps) == ("csa", 1.0 - 1.7 / 2.0, 2.0)
        assert (self.FRAC.process, self.FRAC.memory_d, self.FRAC.sigma_eps) == ("frac", -0.2, 1.0)

    def test_sigma_is_not_a_frac_field(self):
        with pytest.raises(TypeError):
            FracParams(d=0.2, sigma_eps=2.0)

    def test_weights_and_acf_are_the_module_functions(self):
        assert self.CSA.ma_weights(50).tobytes() == csa_ma_coeffs(self.CSA, 50).tobytes()
        assert self.FRAC.ma_weights(50).tobytes() == frac_ma_coeffs(self.FRAC, 50).tobytes()
        assert self.CSA.acf(40).tobytes() == acf_csa_lags(self.CSA, 40).tobytes()
        assert self.FRAC.acf(40).tobytes() == acf_frac_lags(self.FRAC, 40).tobytes()

    def test_dict_key_order(self):
        # CSV columns follow this order
        assert list(params_to_dict(self.CSA)) == ["process", "a", "b", "sigma_eps"]
        assert list(params_to_dict(self.FRAC)) == ["process", "d"]

    @pytest.mark.parametrize("p", [CSA, FRAC, CsaParams(1, 3)])
    def test_dict_round_trip(self, p):
        assert params_from_dict(params_to_dict(p)) == p

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("ab", "parameter entry 'ab' is not an object"),
            ([["process", "frac"], ["d", 0.1]], "is not an object"),
            ({"process": "arma"}, "unknown process 'arma'"),
            ({"d": 0.1}, "unknown process None"),
            ({"process": "frac", "d": 0.1, "sigma_eps": 2.0}, "the frac process takes no sigma_eps"),
            ({"process": "csa", "a": 0.2, "b": 1.6, "d": 0.2}, "the csa process takes no d"),
        ],
    )
    def test_from_dict_rejects(self, entry, message):
        with pytest.raises(ValueError, match=message):
            params_from_dict(entry)

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"process": "frac"}, "^the frac process needs d$"),
            ({"process": "csa", "b": 1.6}, "^the csa process needs a$"),
            ({"process": "csa", "sigma_eps": 2.0}, "^the csa process needs a and b$"),
        ],
    )
    def test_from_dict_names_missing_fields(self, entry, message):
        with pytest.raises(TypeError, match=message):
            params_from_dict(entry)


class TestFracMaCoeffs:
    def test_no_memory(self):
        np.testing.assert_allclose(frac_ma_coeffs(FracParams(0.0), 4), [1, 0, 0, 0])

    def test_first_steps(self):
        w = frac_ma_coeffs(FracParams(0.4), 3)
        assert w[0] == 1.0
        assert w[1] == pytest.approx(0.4)
        assert w[2] == pytest.approx(0.4 * 1.4 / 2)

    def test_negative_d_signs(self):
        w = frac_ma_coeffs(FracParams(-0.2), 50)
        assert w[0] == 1.0
        assert np.all(w[1:] < 0)

    def test_against_gamma_formula(self):
        # pi_j = Gamma(j+d) / (Gamma(d) Gamma(j+1)) via sign-tracked log-gamma
        d = -0.2
        w = frac_ma_coeffs(FracParams(d), 10_001)
        for j in (1, 10, 100, 1000, 10_000):
            sign = gammasgn(j + d) / gammasgn(d)
            expected = sign * math.exp(gammaln(j + d) - gammaln(d) - gammaln(j + 1))
            assert w[j] == pytest.approx(expected, rel=1e-10)


class TestSharedWeights:
    """Both weight functions return one read-only array per law shape and T."""

    @pytest.mark.parametrize(
        "weights, p, same_shape",
        [
            (csa_ma_coeffs, CsaParams(0.2, 1.6, sigma_eps=2.5), CsaParams(0.2, 1.6)),
            (frac_ma_coeffs, FracParams(0.3), FracParams(0.3)),
        ],
    )
    def test_one_array_per_shape_and_length(self, weights, p, same_shape):
        w = weights(p, 100)
        assert w is weights(same_shape, 100)
        assert w is not weights(p, 101)
        with pytest.raises(ValueError):
            w[0] = 2.0
        assert w[0] == 1.0

    def test_threads_missing_one_law_at_once_make_it_once(self):
        # eight threads ask for one cold law together: one miss, one array,
        # and one spectrum kept for it
        model._shared_weights.cache_clear()
        spectral._spectra.clear()
        p, T = CsaParams(0.37, 1.45), 10_000
        start = threading.Barrier(8)
        got = [None] * 8

        def ask(k):
            start.wait()
            got[k] = csa_ma_coeffs(p, T)
            circular_convolve(np.ones(T), got[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert all(w is got[0] for w in got)
        assert model._shared_weights.cache_info().misses == 1
        assert list(spectral._spectra) == [id(got[0])]

    def test_laws_do_not_share_an_array(self):
        assert csa_ma_coeffs(CsaParams(0.2, 1.6), 50) is not csa_ma_coeffs(CsaParams(0.2, 1.7), 50)
        assert frac_ma_coeffs(FracParams(0.2), 50) is not frac_ma_coeffs(FracParams(0.25), 50)

    @pytest.mark.parametrize("weights, p", [(csa_ma_coeffs, CsaParams(0.2, 1.6)), (frac_ma_coeffs, FracParams(0.3))])
    @pytest.mark.parametrize("T", [0, -3])
    def test_length_below_one_rejected(self, weights, p, T):
        with pytest.raises(ValueError, match="T must be >= 1"):
            weights(p, T)


class TestCsaMaCoeffs:
    def test_leading_weight(self):
        w = csa_ma_coeffs(CsaParams(0.7, 1.9), 3)
        assert w[0] == 1.0

    def test_square_is_beta_ratio(self):
        # phi_1^2 = B(a+1,b)/B(a,b) = a/(a+b); at (1, 1) that is 1/2
        assert beta_ratio_sequence(1.0, 1.0, 1)[1] == pytest.approx(0.5)
        w = csa_ma_coeffs(CsaParams(1.0, 2.0), 2)
        assert w[1] == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-14)

    def test_positive_decreasing(self):
        w = csa_ma_coeffs(CsaParams(0.2, 1.6), 500)
        assert np.all(w > 0)
        assert np.all(np.diff(w) < 0)

    def test_against_log_gamma_route(self):
        a, b = 0.2, 1.2
        w = csa_ma_coeffs(CsaParams(a, b), 101)
        for j in (1, 10, 100):
            expected = math.exp((betaln(a + j, b) - betaln(a, b)) / 2.0)
            assert w[j] == pytest.approx(expected, rel=1e-10)


class TestAcf:
    def test_lag_zero(self):
        assert acf_frac_lags(FracParams(0.3), 0).tolist() == [1.0]
        assert acf_csa_lags(CsaParams(0.4, 1.7), 0).tolist() == [1.0]

    def test_frac_one_step(self):
        assert acf_frac_lags(FracParams(0.2), 1)[1] == pytest.approx(0.25)
        assert acf_frac_lags(FracParams(-0.2), 1)[1] == pytest.approx(-0.2 / 1.2)

    def test_csa_integer_beta(self):
        # B(2,1)/B(1,1) = 1/2 at a=1, b=2, k=2
        assert acf_csa_lags(CsaParams(1.0, 2.0), 2)[2] == pytest.approx(0.5, rel=1e-12)

    def test_csa_domain(self):
        with pytest.raises(ValueError):
            acf_csa_lags(CsaParams(1.0, 1.5), -1)

    def test_frac_domain(self):
        with pytest.raises(ValueError):
            acf_frac_lags(FracParams(0.2), -1)

    def test_lags_match_scalar(self):
        # each lag against its own closed form in Python floats
        p = CsaParams(0.3, 1.4)
        seq = acf_csa_lags(p, 20)
        for k in (0, 1, 7, 20):
            expected = math.exp(
                math.lgamma(p.a + k / 2) - math.lgamma(p.a + k / 2 + p.b - 1)
                - math.lgamma(p.a) + math.lgamma(p.a + p.b - 1)
            )
            assert seq[k] == pytest.approx(expected, rel=1e-13)
        d = -0.3
        seq = acf_frac_lags(FracParams(d), 20)
        for k in (0, 1, 7, 20):
            # Gamma(k+d)Gamma(1-d) / (Gamma(k-d+1)Gamma(d)), with Gamma(d) < 0
            expected = math.gamma(k + d) * math.gamma(1 - d) / (math.gamma(k - d + 1) * math.gamma(d))
            assert seq[k] == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize(
        "a, b",
        [(0.09, 2.4), (0.2, 1.6), (0.5, 1.02), (1.7, 1.1), (10.0, 8.0), (1e3, 1.5), (1e6, 1.5), (0.001, 1.001)],
    )
    def test_csa_against_mpmath_beta_ratio(self, a, b):
        # B(a+k/2, b-1) / B(a, b-1) in 30-digit arithmetic, at lags of both
        # parities up to 1e6
        mp = pytest.importorskip("mpmath")
        lags = (1, 2, 3, 50, 51, 1001, 10**4, 10**5 + 1, 10**6)
        rho = acf_csa_lags(CsaParams(a, b), lags[-1])
        with mp.workdps(30):
            am, bm = mp.mpf(a), mp.mpf(b)
            for k in lags:
                oracle = float(mp.beta(am + mp.mpf(k) / 2, bm - 1) / mp.beta(am, bm - 1))
                assert rho[k] == pytest.approx(oracle, rel=1e-10), k

    def test_sign_dichotomy(self):
        # for negative memory the fractional ACF is negative at every lag
        # while the aggregated one with b = 2(1-d) stays positive
        for d in (-0.1, -0.25, -0.4):
            frac = acf_frac_lags(FracParams(d), 200)
            csa = acf_csa_lags(CsaParams(0.2, 2.0 * (1.0 - d)), 200)
            assert np.all(frac[1:] < 0)
            assert np.all(csa > 0)

    @pytest.mark.parametrize("d", [0.2, -0.2])
    def test_matched_decay_rate(self, d):
        # log|acf| on log k over k in [100, 1000]: slope ~ 2d - 1 for both
        k = np.arange(100, 1001)
        logk = np.log(k)
        for acf in (
            np.abs(acf_frac_lags(FracParams(d), 1000)[100:]),
            acf_csa_lags(CsaParams(0.2, 2.0 * (1.0 - d)), 1000)[100:],
        ):
            slope = np.polyfit(logk, np.log(acf), 1)[0]
            assert slope == pytest.approx(2 * d - 1, abs=0.05)


class TestCsaVariance:
    def test_integer_beta(self):
        assert csa_variance(CsaParams(1.0, 2.0, sigma_eps=1.0)) == pytest.approx(2.0)
        assert csa_variance(CsaParams(1.0, 2.0, sigma_eps=3.0)) == pytest.approx(18.0)

    def test_definition_instantiation(self):
        p = CsaParams(0.2, 2.4)
        expected = math.exp(betaln(0.2, 1.4) - betaln(0.2, 2.4))
        assert csa_variance(p) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("sigma", [3, 10**200], ids=["int", "int_square_overflows"])
    def test_int_sigma_is_its_float(self, sigma):
        # sigma is squared as a float: 10**200 gives inf, as 1e200 does,
        # not OverflowError
        for f, p in ((csa_variance, CsaParams(0.2, 1.6, sigma)), (csa_spectrum_at_zero, CsaParams(0.2, 2.4, sigma))):
            assert f(p) == f(CsaParams(p.a, p.b, float(sigma)))

    def test_partial_sum_limit(self):
        p = CsaParams(0.5, 1.8)
        phi2 = beta_ratio_sequence(p.a, p.b, 1_000_000)
        assert float(phi2.sum()) == pytest.approx(csa_variance(p), abs=1e-3)


class TestSpectrumAtZero:
    def test_positive_and_stable(self):
        p = CsaParams(0.09, 2.4)
        val = csa_spectrum_at_zero(p)
        assert val > 0

    def test_against_direct_summation(self):
        # direct sum to J = 1e7 plus a crude integral tail brackets the value
        p = CsaParams(1.0, 2.8)
        phi = np.sqrt(beta_ratio_sequence(p.a, p.b, 10_000_000))
        partial = float(phi.sum())
        crude_tail = phi[-1] * 10_000_000 / (p.b / 2.0 - 1.0)
        val = csa_spectrum_at_zero(p)
        total = math.sqrt(val * 2.0 * math.pi)
        assert partial < total < partial + 2.0 * crude_tail

    def test_decreasing_in_b(self):
        vals = [csa_spectrum_at_zero(CsaParams(1.0, b)) for b in np.arange(2.1, 2.95, 0.1)]
        assert np.all(np.diff(vals) < 0)

    def test_divergence_error(self):
        for b in (1.5, 2.0):
            with pytest.raises(ConvergenceError):
                csa_spectrum_at_zero(CsaParams(0.5, b))

    def test_fast_decay_sums_directly(self):
        # weights ~ j^-100: the tail fit's design underflows, and the
        # 4097-term partial sum is already exact to double precision
        p = CsaParams(0.2, 200.0)
        direct = float(csa_ma_coeffs(p, 4097).sum())
        val = csa_spectrum_at_zero(p)
        assert val == pytest.approx(direct**2 / (2.0 * math.pi), rel=1e-12)


class TestAggregateSpectrumAtZero:
    @pytest.mark.parametrize(
        "a, b, printed",
        [(0.2, 2.4, 0.605298), (0.2, 2.8, 0.406308), (0.5, 3.0, 0.696303), (1.0, 2.5, 2.576291)],
    )
    def test_against_beta_mixture_integral(self, a, b, printed):
        # (sigma^2 / 2 pi) E[(1 - alpha)^-2] with alpha^2 ~ Beta(a, b): in alpha
        # the density times (1 - alpha)^-2 is 2 alpha^{2a-1} (1-alpha)^{b-3}
        # (1+alpha)^{b-1} / B(a, b), an algebraic weight times a smooth factor
        sigma = 1.5
        mean, _ = quad(lambda al: 2.0 * (1.0 + al) ** (b - 1.0), 0.0, 1.0,
                       weight="alg", wvar=(2.0 * a - 1.0, b - 3.0))
        oracle = sigma**2 / (2.0 * math.pi) * mean / beta(a, b)
        val = csa_aggregate_spectrum_at_zero(CsaParams(a, b, sigma))
        assert val == pytest.approx(oracle, rel=1e-6)
        assert val / sigma**2 == pytest.approx(printed, abs=1e-6)

    def test_below_the_filter_value(self):
        # the filter overshoots every positive-lag autocovariance of the aggregate
        for a, b in [(0.2, 2.4), (1.0, 2.5), (2.0, 3.9)]:
            p = CsaParams(a, b)
            assert csa_aggregate_spectrum_at_zero(p) < csa_spectrum_at_zero(p)

    def test_divergence_error(self):
        for b in (1.5, 2.0):
            with pytest.raises(ConvergenceError):
                csa_aggregate_spectrum_at_zero(CsaParams(0.5, b))

    @pytest.mark.parametrize("a", [1e-3, 0.09, 1.0, 10.0, 1e3, 1e6, 1e9])
    @pytest.mark.parametrize("b", [2.0001, 2.05, 2.4, 3.9, 100.0, 1000.0])
    def test_closed_form_against_mpmath(self, a, b):
        # Gauss's theorem on the even- and odd-lag 2F1 sums, with
        # c = B(a+1/2, b-1) / B(a, b-1) in 40-digit arithmetic
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            am, bm = mp.mpf(a), mp.mpf(b)
            c = mp.beta(am + 0.5, bm - 1) / mp.beta(am, bm - 1)
            s = ((am + bm - 2) + c * (am + bm - 1.5)) / (bm - 2)
            oracle = float((am + bm - 1) / (bm - 1) / (2 * mp.pi) * (2 * s - 1))
        val = csa_aggregate_spectrum_at_zero(CsaParams(a, b))
        assert type(val) is float
        assert val == pytest.approx(oracle, rel=1e-11)

    def test_overflow_is_a_value_error(self):
        with pytest.raises(ValueError, match="overflows"):
            csa_aggregate_spectrum_at_zero(CsaParams(1e300, 2.5))

    def test_fast_decay_sums_directly(self):
        # autocorrelations ~ k^-99: the partial sum to lag 4096 is already
        # exact to double precision, and the closed form agrees with it
        p = CsaParams(0.2, 100.0)
        direct = csa_variance(p) / (2.0 * math.pi) * (2.0 * float(acf_csa_lags(p, 4096).sum()) - 1.0)
        val = csa_aggregate_spectrum_at_zero(p)
        assert math.isfinite(val)
        assert val == pytest.approx(direct, rel=1e-12)
