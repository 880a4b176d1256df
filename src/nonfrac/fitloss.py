"""Misspecified-model analysis for CSA processes.

Population fits of AR(p), pure fractional, and ARFIMA(1,d,0) models, with
the relative one-step forecast error variance zeta of each (>= 1 by
construction), and the best CSA approximation to an I(d) autocorrelation.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_toeplitz
from scipy.special import beta, gammaln, gammasgn

from .model import CsaParams, FracParams, acf_csa_lags, acf_frac_lags
from .specfun import hypergeometric_pfq

__all__ = [
    "EfficiencyReport",
    "fit_ar_population",
    "zeta_ar",
    "gamma_z",
    "zeta_fractional",
    "approximation_loss",
    "best_matching_a",
]

MATCH_A_MAX = 5.0
MATCH_GRID_POINTS = 100
MATCH_TOL = 1e-8


@dataclass(frozen=True)
class EfficiencyReport:
    """A fitted misspecified model and its relative forecast error variance."""

    model: str  # 'ar_p', 'pure_frac' or 'arfima_1d0'
    fitted_params: tuple
    zeta: float
    csa: CsaParams


def fit_ar_population(p, order):
    """Population AR coefficients from the Yule-Walker system built on the
    closed-form CSA autocorrelations (Levinson solve; order=1 reduces to
    the lag-1 autocorrelation exactly)."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    r = acf_csa_lags(p, order)
    if order == 1:
        return np.array([r[1]])
    try:
        return solve_toeplitz(r[:order], r[1 : order + 1])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - valid params never hit this
        raise np.linalg.LinAlgError(
            f"singular Yule-Walker system for a={p.a}, b={p.b}, order={order}"
        ) from exc


def zeta_ar(p, coeffs):
    """Relative one-step forecast error variance of an AR fit:

    (B(a,b-1)/B(a,b)) [ (1 + sum alpha_i^2)
                        + 2 sum_i gamma(i) (-alpha_i + sum_j alpha_j alpha_{j+i}) ]
    """
    alpha = np.asarray(coeffs, dtype=float)
    order = alpha.size
    g = acf_csa_lags(p, order)[1:]
    cross = np.array(
        [
            -alpha[i] + float(np.dot(alpha[: order - i - 1], alpha[i + 1 :]))
            for i in range(order)
        ]
    )
    var_ratio = (p.a + p.b - 1.0) / (p.b - 1.0)  # B(a,b-1)/B(a,b)
    return var_ratio * ((1.0 + float(np.dot(alpha, alpha))) + 2.0 * float(np.dot(g, cross)))


def _gamma_star(p, k, d):
    """sigma^2 Gamma(1+2d)/(Gamma(-d)Gamma(1+d)) * Gamma(-d-k)/Gamma(1+d-k),
    with sign-tracked log-gamma since several arguments are negative."""
    num = np.array([1.0 + 2.0 * d, -d - k])
    den = np.array([-d, 1.0 + d, 1.0 + d - k])
    sign = np.prod(gammasgn(num)) / np.prod(gammasgn(den))
    return float(p.sigma_eps**2 * sign * np.exp(gammaln(num).sum() - gammaln(den).sum()))


def gamma_z(p, k):
    """Autocovariance at lag k of the d = 1 - b/2 fractional difference of a
    CSA(a, b) process, for b in (1, 2).

    gamma_z(k) = gamma*(k)/B(a,b) [ B(a,b-1)(F1(k) - 1) + B(a+1/2,b-1) F2(k) ],
    where F1, F2 are sums of 4F3 values at unit argument.
    """
    if not 1.0 < p.b < 2.0:
        raise ValueError(f"gamma_z requires b in (1, 2), got {p.b}")
    if k < 0:
        raise ValueError(f"lag must be >= 0, got {k}")
    a, b = p.a, p.b
    d = 1.0 - b / 2.0

    def f1_branch(s):
        return hypergeometric_pfq(
            (1.0, a, (1.0 - d + s) / 2.0, (-d + s) / 2.0),
            (a + b - 1.0, (2.0 + d + s) / 2.0, (1.0 + d + s) / 2.0),
        )

    def f2_branch(s):
        return (
            (-d + s)
            / (1.0 + d + s)
            * hypergeometric_pfq(
                (1.0, a + 0.5, (1.0 - d + s) / 2.0, (2.0 - d + s) / 2.0),
                (a + b - 0.5, (2.0 + d + s) / 2.0, (3.0 + d + s) / 2.0),
            )
        )

    f1, f2 = f1_branch(float(k)), f2_branch(float(k))
    if k == 0:  # the s = k and s = -k branches coincide: sum each once
        f1, f2 = f1 + f1, f2 + f2
    else:
        f1, f2 = f1 + f1_branch(float(-k)), f2 + f2_branch(float(-k))
    return float(
        _gamma_star(p, float(k), d)
        * (beta(a, b - 1.0) * (f1 - 1.0) + beta(a + 0.5, b - 1.0) * f2)
        / beta(a, b)
    )


def zeta_fractional(p):
    """Efficiency reports of the two fractional competitors fitted to a
    CSA(a, b) process with b in (1, 2).

    Pure I(d): zeta = gamma_z(0). ARFIMA(1,d,0): alpha_I = gamma_z(1)/gamma_z(0)
    and zeta = gamma_z(0) (1 - alpha_I^2) -- the dimensionally consistent
    form. The paper displays (gamma_z(0)^2 - gamma_z(1)^2) / gamma_z(0)^2
    = 1 - alpha_I^2 instead; that expression is capped at 1, so it cannot
    be a relative error variance, and it is not computed here.
    """
    g0 = gamma_z(p, 0)
    g1 = gamma_z(p, 1)
    alpha_i = g1 / g0
    pure = EfficiencyReport(model="pure_frac", fitted_params=(), zeta=g0, csa=p)
    arfima = EfficiencyReport(
        model="arfima_1d0",
        fitted_params=(alpha_i,),
        zeta=g0 * (1.0 - alpha_i**2),
        csa=p,
    )
    return pure, arfima


def approximation_loss(k, a, d):
    """Sum over lags 0..k of the squared gap between the I(d) and the
    CSA(a, 2(1-d)) autocorrelations (the lag-0 term is identically zero)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    csa = CsaParams(a=a, b=2.0 * (1.0 - d))
    frac = acf_frac_lags(FracParams(d=d), k)
    return float(np.sum((frac - acf_csa_lags(csa, k)) ** 2))


def best_matching_a(k, d):
    """Minimise approximation_loss over a in (0, MATCH_A_MAX]: a bracket from
    a grid of MATCH_GRID_POINTS values, then golden-section refinement to a
    width of MATCH_TOL. Deterministic; raises if the coarse grid finds no
    interior minimum."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    grid = np.linspace(MATCH_A_MAX / MATCH_GRID_POINTS, MATCH_A_MAX, MATCH_GRID_POINTS)
    losses = np.array([approximation_loss(k, a, d) for a in grid])
    i = int(np.argmin(losses))
    if i == 0 or i == grid.size - 1:
        raise RuntimeError(
            f"no interior minimum on the coarse grid (best at a={grid[i]:.4g})"
        )
    lo, hi = grid[i - 1], grid[i + 1]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1 = approximation_loss(k, x1, d)
    f2 = approximation_loss(k, x2, d)
    while hi - lo > MATCH_TOL:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = approximation_loss(k, x1, d)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = approximation_loss(k, x2, d)
    a_star = float(lo + hi) / 2.0
    return a_star, approximation_loss(k, a_star, d)
