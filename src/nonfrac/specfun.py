"""Special-function kernel: Beta-function ratios, algebraic series tails and
generalized hypergeometric series.

Everything here is pure and thread-safe. The Beta ratios are computed by
telescoping products rather than Gamma calls so they stay finite for very
large shifts; Gamma, Beta and Hurwitz zeta values come from scipy.special.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import zeta

__all__ = [
    "ConvergenceError",
    "PfqSpec",
    "beta_ratio_sequence",
    "hypergeometric_pfq",
    "algebraic_tail_estimate",
]

MAX_PFQ_TERMS = 10**7


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


def algebraic_tail_estimate(terms, exponent, n_last):
    """Estimate sum_{n > n_last} t_n for terms decaying like n^{-exponent}.

    Fits t_n = n^{-exponent} (c0 + c1/n + c2/n^2 + c3/n^3) at four dyadic
    nodes up to n_last and sums the fitted tail exactly with scipy's Hurwitz
    zeta.
    Requires exponent > 1 and n_last >= 8.
    """
    if exponent <= 1:
        raise ConvergenceError(
            f"algebraic tail diverges for exponent {exponent} <= 1"
        )
    if n_last < 8:
        raise ValueError("need at least 8 terms for the tail fit")
    nodes = np.array([n_last, n_last // 2, n_last // 4, n_last // 8], dtype=float)
    tvals = np.array([terms[int(n)] for n in nodes])
    design = nodes[:, None] ** (-exponent - np.arange(4)[None, :])
    coeffs = np.linalg.solve(design, tvals)
    return float(np.dot(coeffs, zeta(exponent + np.arange(4), n_last + 1.0)))


@dataclass(frozen=True)
class PfqSpec:
    """Parameters of a generalized hypergeometric series pFq.

    Denominator parameters must avoid the poles (zero or negative integers);
    at unit argument with p = q + 1 the series only converges when the
    parameter excess sum(den) - sum(num) is positive.
    """

    numerator_params: tuple = field(default=())
    denominator_params: tuple = field(default=())
    argument: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "numerator_params", tuple(float(v) for v in self.numerator_params))
        object.__setattr__(self, "denominator_params", tuple(float(v) for v in self.denominator_params))
        for c in self.denominator_params:
            if c <= 0 and c == int(c):
                raise ValueError(
                    f"denominator parameter {c} is a pole of the series"
                )


def _pfq_ratio(num, den, n, z):
    """Term ratio t_{n+1}/t_n of the hypergeometric series."""
    r = z / (n + 1.0)
    for c in num:
        r *= c + n
    for c in den:
        r /= c + n
    return r


def _pfq_finite(num, den, z, n_terms):
    """Exact finite summation (polynomial case, or brute force)."""
    total = 1.0
    term = 1.0
    for n in range(n_terms):
        term *= _pfq_ratio(num, den, n, z)
        total += term
    return total


def hypergeometric_pfq(spec, rel_tol=1e-12):
    """Evaluate pFq(num; den; z) = sum_n prod(num)_n / prod(den)_n * z^n / n!.

    A numerator parameter at a nonpositive integer -m truncates the series
    exactly at n = m. At unit argument with p = q + 1 the terms decay only
    algebraically, ~ n^{-(1+excess)}; direct summation is then completed with
    an analytic tail estimate and iterated until the total is stable to
    `rel_tol`. Raises ConvergenceError when the series diverges or the term
    budget is exhausted.
    """
    num = spec.numerator_params
    den = spec.denominator_params
    z = spec.argument

    neg_int = [int(-c) for c in num if c <= 0 and c == int(c)]
    if neg_int:
        return _pfq_finite(num, den, z, min(neg_int))
    if z == 0.0:
        return 1.0

    p, q = len(num), len(den)
    if p > q + 1:
        raise ConvergenceError(
            f"{p}F{q} diverges for nonzero argument without polynomial truncation"
        )
    if p == q + 1 and abs(z) >= 1.0:
        if z != 1.0:
            raise ConvergenceError(
                f"{p}F{q} outside the unit disk is not supported (z={z})"
            )
        excess = sum(den) - sum(num)
        if excess <= 0:
            raise ConvergenceError(
                f"parameter excess {excess:.6g} <= 0: series diverges at z=1"
            )
        return _pfq_unit_balanced(num, den, excess, rel_tol)

    # |z| < 1 or p <= q: term ratio eventually < 1, geometric tail bound.
    total = 1.0
    term = 1.0
    for n in range(MAX_PFQ_TERMS):
        ratio = _pfq_ratio(num, den, n, z)
        term *= ratio
        total += term
        r = abs(_pfq_ratio(num, den, n + 1, z))
        if r < 1.0:
            tail = abs(term) * r / (1.0 - r)
            if abs(term) <= rel_tol * abs(total) and tail <= rel_tol * abs(total):
                return total
    raise ConvergenceError(f"no convergence after {MAX_PFQ_TERMS} terms")


def _pfq_unit_balanced(num, den, excess, rel_tol):
    """(q+1)Fq at z = 1: block summation plus algebraic tail acceleration."""
    s_exp = 1.0 + excess
    n_block = 4096
    terms = np.empty(1)
    terms[0] = 1.0
    prev = None
    while terms.size <= MAX_PFQ_TERMS:
        # extend the term array by one dyadic block via cumprod of ratios
        n0 = terms.size
        n = np.arange(n0 - 1, n0 - 1 + n_block, dtype=float)
        ratios = np.full(n_block, 1.0)
        for c in num:
            ratios *= c + n
        for c in den:
            ratios /= c + n
        ratios /= n + 1.0
        block = terms[-1] * np.cumprod(ratios)
        terms = np.concatenate([terms, block])
        n_block = terms.size  # double the block each pass

        n_last = terms.size - 1
        total = float(terms.sum()) + algebraic_tail_estimate(terms, s_exp, n_last)
        if prev is not None and abs(total - prev) <= rel_tol * abs(total):
            return total
        prev = total
    raise ConvergenceError(
        f"no convergence after {MAX_PFQ_TERMS} terms (excess {excess:.3g})"
    )
