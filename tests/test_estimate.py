import numpy as np
import pytest

from nonfrac.estimate import gph_estimate, periodogram
from nonfrac.model import FracParams
from nonfrac.simulate import generate_frac_fast


def brute_periodogram(x):
    x = np.asarray(x, dtype=float)
    T = x.size
    x = x - x.mean()
    m = (T - 1) // 2
    t = np.arange(T)
    out = np.empty(m)
    for j in range(1, m + 1):
        lam = 2.0 * np.pi * j / T
        c = np.dot(x, np.cos(lam * t))
        s = np.dot(x, np.sin(lam * t))
        out[j - 1] = (c * c + s * s) / (2.0 * np.pi * T)
    return out


class TestPeriodogram:
    @pytest.mark.parametrize("T", [16, 100, 128, 255, 1009, 2310])
    def test_matches_brute_force(self, T):
        x = np.random.default_rng(T).standard_normal(T)
        res = periodogram(x)
        np.testing.assert_allclose(res.ordinates, brute_periodogram(x), atol=1e-9)
        np.testing.assert_allclose(
            res.frequencies, 2.0 * np.pi * np.arange(1, (T - 1) // 2 + 1) / T
        )

    def test_nonnegative(self):
        x = np.random.default_rng(1).standard_normal(200)
        assert np.all(periodogram(x).ordinates >= 0)

    def test_parseval_sum(self):
        # sum over all Fourier frequencies recovers the sample variance;
        # with T odd the positive half covers all but j=0
        T = 255
        x = np.random.default_rng(3).standard_normal(T)
        res = periodogram(x)
        total = 2.0 * np.sum(res.ordinates) * 2.0 * np.pi / T
        assert total == pytest.approx(np.var(x), rel=1e-10)

    def test_pure_cosine_concentrates(self):
        T = 128
        j0 = 10
        t = np.arange(T)
        x = np.cos(2.0 * np.pi * j0 * t / T)
        res = periodogram(x)
        assert int(np.argmax(res.ordinates)) == j0 - 1
        others = np.delete(res.ordinates, j0 - 1)
        assert np.max(others) < 1e-10 * res.ordinates[j0 - 1]

    def test_demean_kills_constant(self):
        res = periodogram(np.full(64, 5.0))
        assert np.max(res.ordinates) < 1e-20

    def test_too_short(self):
        with pytest.raises(ValueError):
            periodogram(np.ones(3))


class TestGphEstimate:
    def test_default_bandwidth(self):
        x = np.random.default_rng(0).standard_normal(1000)
        assert gph_estimate(x).bandwidth == 31

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            gph_estimate(np.full(256, 1.5))

    @pytest.mark.parametrize(
        "x",
        [
            np.tile([1e308, -1e308], 8),
            np.tile([0.0, 1.0], 32),
            np.random.default_rng(3).standard_normal(64) * 1e200,
        ],
    )
    def test_degenerate_periodogram_rejected(self, x):
        # finite series whose band ordinates overflow or vanish; a numpy
        # RuntimeWarning on the way would fail the test too
        with pytest.raises(ValueError, match="overflows or is zero"):
            gph_estimate(x)

    def test_fields_are_python_numbers(self):
        est = gph_estimate(np.random.default_rng(2).standard_normal(300))
        assert type(est.d_hat) is float and type(est.std_error) is float

    def test_exact_power_law_recovered(self):
        # synthetic ordinates following an exact power law: the regression
        # slope is recovered exactly, so build x indirectly via a direct check
        # on the regression algebra using a deterministic series
        T = 512
        d_true = 0.3
        lam = 2.0 * np.pi * np.arange(1, (T - 1) // 2 + 1) / T
        # craft log-ordinates exactly linear in log-frequency
        logI = -2.0 * d_true * np.log(lam) + 1.7
        # replicate the internal regression
        m = int(np.floor(np.sqrt(T)))
        y = logI[:m]
        reg = np.log(lam[:m])
        slope = np.polyfit(reg, y, 1)[0]
        assert -slope / 2.0 == pytest.approx(d_true, rel=1e-12)

    def test_white_noise_memory_zero(self):
        reps = 200
        d_hats = np.empty(reps)
        for r in range(reps):
            x = np.random.default_rng(np.random.SeedSequence((4321, r))).standard_normal(2048)
            d_hats[r] = gph_estimate(x).d_hat
        se = d_hats.std(ddof=1) / np.sqrt(reps)
        assert abs(d_hats.mean()) < 3.0 * se

    @pytest.mark.parametrize("d", [0.3, -0.3])
    def test_fractional_memory_recovered(self, d):
        reps, T = 200, 4096
        p = FracParams(d)
        d_hats = np.empty(reps)
        for r in range(reps):
            x = generate_frac_fast(p, T, np.random.SeedSequence((888, r))).values
            d_hats[r] = gph_estimate(x).d_hat
        se = d_hats.std(ddof=1) / np.sqrt(reps)
        # finite-sample GPH bias is real; allow it alongside the MC noise
        assert abs(d_hats.mean() - d) < 0.03 + 3.0 * se

    def test_std_error_scale(self):
        # reported standard errors should be on the scale of the spread of
        # replicated estimates (same order of magnitude)
        reps = 100
        d_hats = np.empty(reps)
        ses = np.empty(reps)
        for r in range(reps):
            x = np.random.default_rng(np.random.SeedSequence((55, r))).standard_normal(1024)
            est = gph_estimate(x)
            d_hats[r] = est.d_hat
            ses[r] = est.std_error
        spread = d_hats.std(ddof=1)
        assert 0.3 * spread < ses.mean() < 3.0 * spread

    def test_bandwidth_validation(self):
        x = np.random.default_rng(9).standard_normal(64)
        with pytest.raises(ValueError):
            gph_estimate(x, bandwidth=2)
        with pytest.raises(ValueError):
            gph_estimate(x, bandwidth=1000)
