"""Special-function kernel: Beta- and Gamma-function ratios, algebraic series
tails, and one summer of series given by their term ratio, which also sums
hypergeometric series at unit argument. `hypergeometric_pfq` has no caller
in the package, whose gamma_z is a lag sum (fitloss); it stays public as an
oracle for that sum, whose series form is a sum of 4F3 values.

Everything here is pure and thread-safe. The Beta ratios are computed by
telescoping products rather than Gamma calls so they stay finite for very
large shifts. The one module to import scipy.special: Gamma values for
Gamma(x + 1/2) / Gamma(x) below x = 20, and the Hurwitz zeta of series tails.
"""

import math

import numpy as np
from scipy.special import gamma, zeta

__all__ = [
    "ConvergenceError",
    "beta_ratio_sequence",
    "hypergeometric_pfq",
    "algebraic_tail_estimate",
]

MAX_SERIES_TERMS = 10**7
PFQ_REL_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """A series failed to converge under the requested tolerance."""


def beta_ratio_sequence(a, b, jmax):
    """B(a+j, b) / B(a, b) for j = 0..jmax (inclusive), as the cumulative
    product of (a+i)/(a+b+i).

    Exact 1.0 at j = 0, strictly decreasing in j for b > 0. Avoids the
    overflow and cancellation of evaluating two Beta functions at large j.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"beta_ratio_sequence requires a, b > 0, got a={a}, b={b}")
    if jmax < 0:
        raise ValueError(f"beta_ratio_sequence requires jmax >= 0, got {jmax}")
    i = np.arange(jmax, dtype=float)
    out = np.empty(jmax + 1)
    out[0] = 1.0
    if jmax > 0:
        np.cumprod((a + i) / (a + b + i), out=out[1:])
    return out


def _gamma_half_ratio(x):
    """Gamma(x + 1/2) / Gamma(x) for x > 0, to a few ulps: a quotient of two
    Gamma values below x = 20; above, where Gamma later overflows and
    log-Gamma differences cancel, the asymptotic series of its log, whose
    first omitted term is below 2e-17 from x = 20 on."""
    if x < 20.0:
        return float(gamma(x + 0.5) / gamma(x))
    y = 1.0 / (x * x)
    return math.sqrt(x) * math.exp((-1 / 8 + y * (1 / 192 + y * (-1 / 640 + y * (17 / 14336 - y * 31 / 18432)))) / x)


def algebraic_tail_estimate(terms, exponent, n_last):
    """Estimate sum_{n > n_last} t_n for terms decaying like n^{-exponent}.

    Fits t_n = n^{-exponent} (c0 + c1/n + c2/n^2 + c3/n^3) at four dyadic
    nodes up to n_last and sums the fitted tail exactly with scipy's Hurwitz
    zeta. A 2-D `terms` holds one series per row and gives an array of one
    tail per row, from one solve.
    Requires exponent > 1 and n_last >= 8. A tail is 0.0 when the fit's
    design underflows.
    """
    if exponent <= 1:
        raise ConvergenceError(
            f"algebraic tail diverges for exponent {exponent} <= 1"
        )
    if n_last < 8:
        raise ValueError("need at least 8 terms for the tail fit")
    return _fitted_tail(np.asarray(terms)[..., n_last >> np.arange(4)], exponent, n_last)


def _fitted_tail(tvals, exponent, n_last):
    """`algebraic_tail_estimate` from the terms at its nodes n_last >> i,
    i = 0..3, along the last axis of `tvals`."""
    nodes = (n_last >> np.arange(4)).astype(float)
    design = nodes[:, None] ** (-exponent - np.arange(4)[None, :])
    try:
        coeffs = np.linalg.solve(design, tvals.T)
    except np.linalg.LinAlgError:
        # n_last^-(exponent+3) underflowed to 0, which for n_last < 2^24
        # needs an exponent above 40: terms falling by 2^-exponent per
        # doubling of n leave a tail far below the partial sum's last bit
        return 0.0 if tvals.ndim == 1 else np.zeros(len(tvals))
    tail = zeta(exponent + np.arange(4), n_last + 1.0) @ coeffs
    return float(tail) if tvals.ndim == 1 else tail


def hypergeometric_pfq(num, den):
    """Evaluate (q+1)Fq(num; den; 1) = sum_n prod(num)_n / prod(den)_n / n!.

    At unit argument the terms decay only algebraically, ~ n^{-(1+excess)}
    with excess = sum(den) - sum(num); direct summation is completed with an
    analytic tail estimate and iterated until the total is stable to a
    relative PFQ_REL_TOL. Raises ValueError for a denominator pole (zero or a
    negative integer) or p != q + 1, and ConvergenceError when the series
    diverges (excess <= 0) or the term budget is exhausted.
    """
    num = tuple(float(c) for c in num)
    den = tuple(float(c) for c in den)
    for c in den:
        if c <= 0 and c == int(c):
            raise ValueError(f"denominator parameter {c} is a pole of the series")
    if len(num) != len(den) + 1:
        raise ValueError(
            f"only (q+1)Fq is summed at unit argument, got {len(num)}F{len(den)}"
        )
    excess = sum(den) - sum(num)
    if excess <= 0:
        raise ConvergenceError(
            f"parameter excess {excess:.6g} <= 0: series diverges at z=1"
        )

    def ratio(n):
        r = np.full(n.size, 1.0)
        for c in num:
            r *= c + n
        for c in den:
            r /= c + n
        return r / (n + 1.0)

    return _sum_ratio_series(ratio, 1.0 + excess, PFQ_REL_TOL)


def _sum_ratio_series(ratio, exponent, rel_tol):
    """sum_{n >= 0} t_n with t_0 = 1 and t_{n+1} = t_n * ratio(n), for terms
    decaying like n^{-exponent}: the partial sum plus `algebraic_tail_estimate`,
    with the term array doubled from 4097 until that total is stable to a
    relative `rel_tol`, or ConvergenceError past MAX_SERIES_TERMS terms."""
    terms = np.ones(1)
    prev = None
    while terms.size <= MAX_SERIES_TERMS:
        n = np.arange(terms.size - 1, terms.size - 1 + max(terms.size, 4096), dtype=float)
        terms = np.concatenate([terms, terms[-1] * np.cumprod(ratio(n))])
        total = float(terms.sum()) + algebraic_tail_estimate(terms, exponent, terms.size - 1)
        if prev is not None and abs(total - prev) <= rel_tol * abs(total):
            return total
        prev = total
    raise ConvergenceError(f"series ~ n^-{exponent:.6g} not stable to {rel_tol:g} after {MAX_SERIES_TERMS} terms")


