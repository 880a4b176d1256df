import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import betaln, zeta

from nonfrac.specfun import (
    ConvergenceError,
    _sum_ratio_series,
    algebraic_tail_estimate,
    beta_ratio_sequence,
    hypergeometric_pfq,
)


def product_ratio(a, b, j):
    """B(a+j, b) / B(a, b) as a plain loop over the telescoping product."""
    out = 1.0
    for i in range(j):
        out *= (a + i) / (a + b + i)
    return out


class TestBetaRatio:
    def test_one_step(self):
        # B(2,1)/B(1,1) = (1/2)/1
        assert beta_ratio_sequence(1.0, 1.0, 1)[1] == pytest.approx(0.5, rel=1e-15)

    def test_empty_product(self):
        assert beta_ratio_sequence(0.7, 2.3, 0).tolist() == [1.0]

    def test_against_log_gamma_route(self):
        # product recursion vs exp(lnB(a+j,b) - lnB(a,b)) on a grid
        for a in (0.1, 0.5, 1.0, 1.5, 2.0):
            for b in (1.1, 1.5, 2.0, 3.0):
                seq = beta_ratio_sequence(a, b, 1000)
                for j in (1, 3, 10, 100, 1000):
                    via_lgamma = math.exp(betaln(a + j, b) - betaln(a, b))
                    assert abs(seq[j] - via_lgamma) < 1e-10 * via_lgamma

    @given(
        a=st.floats(0.05, 3.0),
        b=st.floats(0.05, 3.0),
        j=st.integers(0, 200),
    )
    @settings(max_examples=100, deadline=None)
    def test_strictly_decreasing(self, a, b, j):
        seq = beta_ratio_sequence(a, b, j + 1)
        assert seq[j + 1] < seq[j]

    def test_sequence_matches_scalar(self):
        seq = beta_ratio_sequence(0.3, 1.7, 50)
        for j in (0, 1, 7, 50):
            assert seq[j] == pytest.approx(product_ratio(0.3, 1.7, j), rel=1e-14)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            beta_ratio_sequence(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            beta_ratio_sequence(1.0, 1.0, -1)


def zeta_via_tail(s, n_last=4096):
    """Riemann zeta(s) as the direct sum to n_last plus algebraic_tail_estimate;
    index 0 of the term array is a zero placeholder so that terms[n] = n^-s."""
    n = np.arange(1.0, n_last + 1)
    terms = np.concatenate([[0.0], n ** (-s)])
    return float(terms.sum()) + algebraic_tail_estimate(terms, s, n_last)


class TestZeta:
    """Zeta sums through algebraic_tail_estimate, whose fitted tail is
    summed with Hurwitz zeta."""

    def test_basel(self):
        assert zeta_via_tail(2.0) == pytest.approx(math.pi**2 / 6, rel=1e-12)

    def test_zeta_four(self):
        assert zeta_via_tail(4.0) == pytest.approx(math.pi**4 / 90, rel=1e-12)

    def test_near_one_against_partial_sums(self):
        # brute force: partial sum plus integral tail brackets the value
        s = 1.25
        n = 200_000
        partial = float(np.sum(np.arange(1.0, n + 1) ** (-s)))
        upper = partial + n ** (1 - s) / (s - 1)
        lower = partial + (n + 1) ** (1 - s) / (s - 1)
        val = zeta_via_tail(s)
        assert lower - 1e-10 <= val <= upper + 1e-10

    def test_integral_bounds(self):
        # the tail beyond N lies between the integrals of x^-s from N+1 and from N
        n_last = 1024
        for s in (1.1, 1.5, 2.5, 5.0):
            terms = np.concatenate([[0.0], np.arange(1.0, n_last + 1) ** (-s)])
            tail = algebraic_tail_estimate(terms, s, n_last)
            assert (n_last + 1) ** (1 - s) / (s - 1) < tail < n_last ** (1 - s) / (s - 1)

    def test_underflowing_design_gives_no_tail(self):
        # n^-(100+k) is 0.0 in double precision at the nodes 512..4096
        n_last = 4096
        terms = np.concatenate([[0.0], np.arange(1.0, n_last + 1) ** -100.0])
        assert algebraic_tail_estimate(terms, 100.0, n_last) == 0.0

    def test_rows_are_their_one_dimensional_tails(self):
        # one solve for all rows gives each row its own tail, to rounding; a
        # row whose terms underflow to 0.0 at every node has no tail
        n_last = 4096
        n = np.arange(n_last + 1.0)
        n[0] = 1.0
        rows = np.stack([n**-2.0, n**-2.0 * (1.0 + 0.5 / n), -3.0 * (n + 0.5) ** -2.0, n**-400.0])
        tails = algebraic_tail_estimate(rows, 2.0, n_last)
        assert tails.shape == (4,) and tails[3] == 0.0
        for row, tail in zip(rows, tails):
            assert tail == pytest.approx(algebraic_tail_estimate(row, 2.0, n_last), rel=1e-14, abs=0.0)

    def test_rows_with_an_underflowing_design(self):
        n_last = 4096
        rows = np.concatenate([[0.0], np.arange(1.0, n_last + 1) ** -100.0]) * np.ones((3, 1))
        assert algebraic_tail_estimate(rows, 100.0, n_last).tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("s", [1.0, 0.5, -2.0])
    def test_domain_error(self, s):
        with pytest.raises(ConvergenceError):
            algebraic_tail_estimate(np.ones(100), s, 64)

    def test_hurwitz_tail_consistency(self):
        # terms (n + 1/2)^-s: the estimated tail beyond N against mpmath's
        # Hurwitz zeta, the exact sum of those terms from N + 1 on
        mp = pytest.importorskip("mpmath")
        s, n_last = 1.7, 2048
        terms = (np.arange(n_last + 1) + 0.5) ** (-s)
        ref = float(mp.zeta(s, n_last + 1.5))
        assert algebraic_tail_estimate(terms, s, n_last) == pytest.approx(ref, rel=1e-12)

    def test_tail_against_mpmath_sum(self):
        # terms with a correction series, summed directly by mpmath
        mp = pytest.importorskip("mpmath")
        s, n_last = 1.3, 4096

        def term(n):
            return n ** (-s) * (1.0 + 0.5 / n - 0.25 / n**2)

        terms = np.concatenate([[0.0], term(np.arange(1.0, n_last + 1))])
        with mp.workdps(30):
            ref = float(mp.nsum(lambda n: term(mp.mpf(n)), [n_last + 1, mp.inf], method="euler-maclaurin"))
        assert algebraic_tail_estimate(terms, s, n_last) == pytest.approx(ref, rel=1e-10)


class TestSumRatioSeries:
    @pytest.mark.parametrize("s", [1.5, 2.0, 4.0])
    def test_riemann_zeta(self, s):
        # t_n = (n + 1)^-s sums to zeta(s); t_{n+1} / t_n = ((n + 1) / (n + 2))^s
        total = _sum_ratio_series(lambda n: ((n + 1.0) / (n + 2.0)) ** s, s, 1e-12)
        assert total == pytest.approx(float(zeta(s)), rel=1e-13)


class TestHypergeometricPfq:
    def test_gauss_2f1_closed_form(self):
        # 2F1(a, b; c; 1) = Gamma(c)Gamma(c-a-b) / (Gamma(c-a)Gamma(c-b))
        a, b, c = 0.3, 0.4, 1.9
        expected = math.exp(
            math.lgamma(c) + math.lgamma(c - a - b) - math.lgamma(c - a) - math.lgamma(c - b)
        )
        got = hypergeometric_pfq((a, b), (c,))
        assert got == pytest.approx(expected, rel=1e-11)

    def test_unit_balanced_4f3_against_brute_force(self):
        # the 4F3 from the differenced-autocovariance formula at
        # (a, b) = (0.1, 1.8): long direct summation
        # in extended precision, with the truncation tail bounded analytically
        a, b = 0.1, 1.8
        d = 1.0 - b / 2.0
        num = (1.0, a, (1 - d) / 2, -d / 2)
        den = (a + b - 1, (2 + d) / 2, (1 + d) / 2)
        n_terms = 1_000_000
        n = np.arange(n_terms, dtype=np.longdouble)
        ratios = np.ones(n_terms, dtype=np.longdouble)
        for c in num:
            ratios *= c + n
        for c in den:
            ratios /= c + n
        ratios /= n + 1.0
        terms = np.concatenate(
            [np.ones(1, dtype=np.longdouble), np.cumprod(ratios[:-1])]
        )
        brute = float(terms.sum())
        # terms decay like n^-2 (unit excess): tail below |t_N| * N * 1.2
        tail_bound = 1.2 * abs(float(terms[-1])) * n_terms
        got = hypergeometric_pfq(num, den)
        assert abs(got - brute) < tail_bound + 1e-12 * abs(brute)

    def test_unit_balanced_4f3_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        a, b = 0.1, 1.8
        d = 1.0 - b / 2.0
        num = (1.0, a, (1 - d) / 2, -d / 2)
        den = (a + b - 1, (2 + d) / 2, (1 + d) / 2)
        ref = float(mp.hyper(list(num), list(den), 1))
        got = hypergeometric_pfq(num, den)
        assert got == pytest.approx(ref, rel=1e-12)

    def test_divergent_excess(self):
        with pytest.raises(ConvergenceError):
            hypergeometric_pfq((1.0, 1.0), (1.5,))  # excess -0.5

    def test_denominator_pole_rejected(self):
        with pytest.raises(ValueError, match="pole"):
            hypergeometric_pfq((0.5, 1.0), (-2.0,))

    @pytest.mark.parametrize("num, den", [((0.5,), (1.5,)), ((0.5, 0.2, 0.1), (2.5,))])
    def test_only_balanced_orders(self, num, den):
        with pytest.raises(ValueError, match="only"):
            hypergeometric_pfq(num, den)

    def test_deterministic(self):
        num, den = (1.0, 0.6, 0.45, -0.05), (1.4, 1.05, 0.55)
        assert hypergeometric_pfq(num, den) == hypergeometric_pfq(num, den)
