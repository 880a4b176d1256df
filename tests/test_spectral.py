import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonfrac import spectral
from nonfrac.spectral import circular_convolve


def brute_dft(x):
    x = np.asarray(x, dtype=complex)
    n = x.size
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) @ x


def brute_convolve(x, y):
    # the same zero-padded circular convolution, through the O(n^2) DFT
    n = len(x)
    pad = np.zeros(2 * n)
    xp, yp = pad.copy(), pad.copy()
    xp[:n], yp[:n] = x, y
    prod = brute_dft(xp) * brute_dft(yp)
    return (np.conj(brute_dft(np.conj(prod))) / (2 * n)).real[:n]


class TestFft:
    """The FFT round trip that circular_convolve makes (numpy's real FFT at
    a fast padded length): impulses, constants, linearity, energy and the
    brute-force DFT as oracle."""

    def test_impulse(self):
        y = np.random.default_rng(1).standard_normal(4)
        np.testing.assert_allclose(circular_convolve([1, 0, 0, 0], y), y, atol=1e-14)

    def test_constant(self):
        y = np.random.default_rng(2).standard_normal(4)
        np.testing.assert_allclose(
            circular_convolve([2, 2, 2, 2], y), 2 * np.cumsum(y), atol=1e-14
        )

    def test_round_trip_length_16(self):
        x = np.random.default_rng(3).standard_normal(16)
        e0 = np.zeros(16)
        e0[0] = 1.0
        back = circular_convolve(x, e0)
        assert np.max(np.abs(back - x)) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            circular_convolve(np.zeros(0), np.zeros(0))

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 32, 128])
    def test_matches_brute_force(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        y = np.random.default_rng(n + 1).standard_normal(n)
        np.testing.assert_allclose(circular_convolve(x, y), brute_convolve(x, y), atol=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        x, z, y = rng.standard_normal(64), rng.standard_normal(64), rng.standard_normal(64)
        alpha, beta = 0.7, -2.3
        lhs = circular_convolve(alpha * x + beta * z, y)
        rhs = alpha * circular_convolve(x, y) + beta * circular_convolve(z, y)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_parseval(self):
        # convolving x with its reverse puts the zero-lag autocorrelation,
        # the energy sum x_t^2, in the last output
        x = np.random.default_rng(5).standard_normal(64)
        energy_time = np.sum(x**2)
        energy_freq = circular_convolve(x, x[::-1])[-1]
        assert energy_freq == pytest.approx(energy_time, rel=1e-10)

    @given(st.integers(1, 200), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, n, seed):
        x = np.random.default_rng(seed).standard_normal(n)
        e0 = np.zeros(n)
        e0[0] = 1.0
        back = circular_convolve(x, e0)
        assert np.max(np.abs(back - x)) < 1e-10


class TestCircularConvolve:
    def test_identity_filter(self):
        np.testing.assert_allclose(circular_convolve([1, 2, 3], [1, 0, 0]), [1, 2, 3], atol=1e-12)

    def test_cumulative_sum(self):
        np.testing.assert_allclose(
            circular_convolve([1, 1, 1, 1], [1, 1, 1, 1]), [1, 2, 3, 4], atol=1e-12
        )

    def test_length_one(self):
        np.testing.assert_allclose(circular_convolve([3.0], [2.0]), [6.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            circular_convolve([1, 2], [1, 2, 3])

    def test_all_lengths_against_direct_sum(self):
        rng = np.random.default_rng(17)
        for t in range(1, 129):
            x = rng.standard_normal(t)
            y = rng.standard_normal(t)
            direct = np.array(
                [sum(y[j] * x[i - j] for j in range(i + 1)) for i in range(t)]
            )
            got = circular_convolve(x, y)
            assert np.max(np.abs(got - direct)) < 1e-9

    @pytest.mark.parametrize("t", [4096, 10_000])
    def test_long_against_numpy_convolve(self, t):
        # a power of two and the paper's sample size, against the O(T^2)
        # direct linear convolution; y mimics slowly decaying MA weights
        rng = np.random.default_rng(t)
        x = rng.standard_normal(t)
        y = (1.0 + np.arange(t)) ** -0.8
        direct = np.convolve(x, y)[:t]
        got = circular_convolve(x, y)
        assert got.shape == (t,)
        assert np.max(np.abs(got - direct)) < 1e-10 * np.max(np.abs(direct))


def _read_only(seq):
    seq = np.array(seq, dtype=float)
    seq.flags.writeable = False
    return seq


def _cached(seq):
    ref, _ = spectral._spectra.get(id(seq), (None, None))
    return ref is not None and ref() is seq


class TestSpectrumCache:
    """The spectrum of a read-only operand that owns its data is kept by
    identity while the operand lives; no other operand's is."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        spectral._spectra.clear()

    @pytest.mark.parametrize("t", [1, 7, 128, 10_000])
    def test_same_bytes_cold_warm_and_copied(self, t):
        rng = np.random.default_rng(t)
        x = rng.standard_normal(t)
        y = _read_only(rng.standard_normal(t))
        for first in (True, False):  # the kept operand on either side of the product
            call = (lambda z: circular_convolve(z, x)) if first else (lambda z: circular_convolve(x, z))
            cold = call(y).tobytes()
            assert _cached(y)
            assert call(y).tobytes() == cold
            assert call(y.copy()).tobytes() == cold
        assert len(spectral._spectra) == 1

    def test_kept_spectra_and_operands_are_never_written(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(1000)
        y, z = _read_only(rng.standard_normal(1000)), _read_only(rng.standard_normal(1000))
        circular_convolve(x, y)
        circular_convolve(z, x)
        kept = {id(seq): spectral._spectra[id(seq)][1] for seq in (y, z)}
        before = {key: s.tobytes() for key, s in kept.items()}
        x_before = x.tobytes()
        for a, b in ((x, y), (y, x), (z, x), (y, z), (z, y), (y, y)):
            circular_convolve(a, b)
        assert {key: s.tobytes() for key, s in kept.items()} == before
        assert not any(s.flags.writeable for s in kept.values())
        assert x.tobytes() == x_before

    def test_writeable_operands_and_views_are_never_kept(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(64)
        base = _read_only(rng.standard_normal(128))
        views = [base[:64], base[::2], np.frombuffer(base.tobytes(), count=64)]
        assert not any(v.flags.writeable or v.flags.owndata for v in views)
        for y in [rng.standard_normal(64), list(rng.standard_normal(64)), *views]:
            circular_convolve(x, y)
            circular_convolve(y, x)
        assert not spectral._spectra

    def test_a_dead_operand_is_not_recognised(self):
        x = np.random.default_rng(4).standard_normal(32)
        for seed in range(20):  # a new operand often takes the dead one's id
            y = _read_only(np.random.default_rng(seed).standard_normal(32))
            assert circular_convolve(x, y).tobytes() == circular_convolve(x, y.copy()).tobytes()
            del y

    def test_size_is_bounded(self):
        x = np.ones(16)
        operands = [_read_only(np.full(16, k)) for k in range(spectral._SPECTRUM_CACHE_SIZE + 3)]
        for y in operands:
            circular_convolve(x, y)
            assert len(spectral._spectra) <= spectral._SPECTRUM_CACHE_SIZE
        # the least recently used go first
        assert [_cached(y) for y in operands] == [False] * 3 + [True] * spectral._SPECTRUM_CACHE_SIZE

    def test_two_threads_with_one_fresh_operand_agree(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(10_000)
        y = _read_only(rng.standard_normal(10_000))
        expected = circular_convolve(x, y.copy()).tobytes()
        start = threading.Barrier(2)
        out = [None, None]

        def convolve(k):
            start.wait()
            out[k] = circular_convolve(x, y).tobytes()

        helper = threading.Thread(target=convolve, args=(1,))
        helper.start()
        convolve(0)
        helper.join()
        assert out == [expected, expected]
        assert _cached(y)

    def test_stress_more_threads_than_cores(self):
        # more operands than the cache keeps, so entries are evicted and made
        # again while other threads read them
        rng = np.random.default_rng(6)
        x = rng.standard_normal(256)
        operands = [_read_only(rng.standard_normal(256)) for _ in range(spectral._SPECTRUM_CACHE_SIZE + 4)]
        expected = [circular_convolve(x, y.copy()).tobytes() for y in operands]
        wrong = []

        def work(k):
            for i in range(60):
                j = (i * 5 + k) % len(operands)
                if circular_convolve(x, operands[j]).tobytes() != expected[j]:
                    wrong.append(j)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert len(spectral._spectra) <= spectral._SPECTRUM_CACHE_SIZE
