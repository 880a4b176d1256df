"""Misspecified-model analysis for CSA processes.

Population fits of AR(p), pure fractional, and ARFIMA(1,d,0) models, with
the relative one-step forecast error variance zeta of each (>= 1 by
construction), and the best CSA approximation to an I(d) autocorrelation.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_toeplitz

from .model import CsaParams, FracParams, acf_csa_lags, acf_frac_lags, csa_variance
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
    return solve_toeplitz(r[:order], r[1 : order + 1])


def zeta_ar(p, coeffs):
    """Relative one-step forecast error variance of an AR fit, the quadratic
    form of c = (1, -alpha_1, ..., -alpha_p) in the autocorrelations:

    zeta = (B(a,b-1)/B(a,b)) sum_{i,j} c_i c_j rho_|i-j| = (B(a,b-1)/B(a,b)) sum_k w_k rho_k,

    w_k = (2 - [k = 0]) sum_i c_i c_{i+k}. The terms cancel near a unit root
    (large a): a zeta that their rounding could move by more than 1e-6
    relative, or one below 1, the bound for any coefficients, is a RuntimeError.
    """
    c = np.concatenate(([1.0], -np.asarray(coeffs, dtype=float)))
    w = np.correlate(c, c, "full")[c.size - 1 :]
    w[1:] *= 2.0
    rho = acf_csa_lags(p, c.size - 1)  # positive, so the terms' absolute sum is |w| . rho
    var_ratio = (p.a + p.b - 1.0) / (p.b - 1.0)  # B(a,b-1)/B(a,b)
    zeta = var_ratio * float(w @ rho)
    rounding = var_ratio * math.ulp(1.0) * float(abs(w) @ rho)
    if not (zeta >= 1.0 and rounding <= 1e-6 * zeta):
        raise RuntimeError(f"zeta of the AR({c.size - 1}) fit to {p} is lost to cancellation: {zeta!r} +/- {rounding:.2g}")
    return zeta


def gamma_z(p, k):
    """Autocovariance at lag k of the d = 1 - b/2 fractional difference of a
    CSA(a, b) process, for b in (1, 2):

    gamma_z(k) = gamma*(k)/B(a,b) [ B(a,b-1)(F1(k) - 1) + B(a+1/2,b-1) F2(k) ]
               = gamma*(k) (B(a,b-1)/B(a,b)) [ (F1(k) - 1) + rho_1 F2(k) ],

    with F1, F2 sums of 4F3 values at unit argument. By the reflection formula
    gamma*(k) = sigma^2 Gamma(1+2d)/(Gamma(-d)Gamma(1+d)) Gamma(-d-k)/Gamma(1+d-k)
    is sigma^2 Gamma(1+2d)/Gamma(1+d)^2 times the lag-k autocorrelation of
    I(-d), that process's autocovariance. A value that overflows a float is
    a ValueError.
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
        return (-d + s) / (1.0 + d + s) * hypergeometric_pfq(
            (1.0, a + 0.5, (1.0 - d + s) / 2.0, (2.0 - d + s) / 2.0),
            (a + b - 0.5, (2.0 + d + s) / 2.0, (3.0 + d + s) / 2.0),
        )

    f1, f2 = f1_branch(float(k)), f2_branch(float(k))
    if k == 0:  # the s = k and s = -k branches coincide: sum each once
        f1, f2 = f1 + f1, f2 + f2
    else:
        f1, f2 = f1 + f1_branch(float(-k)), f2 + f2_branch(float(-k))
    # in Python floats, which overflow to inf without a numpy RuntimeWarning
    star = math.gamma(1.0 + 2.0 * d) / math.gamma(1.0 + d) ** 2 * float(acf_frac_lags(FracParams(-d), k)[k])
    bracket = (f1 - 1.0) + float(acf_csa_lags(p, 1)[1]) * f2
    value = csa_variance(p) * star * bracket
    if not math.isfinite(value):
        raise ValueError(f"the lag-{k} autocovariance of the fractional difference of {p} overflows a float")
    return value


def zeta_fractional(p):
    """Efficiency reports of the two fractional competitors fitted to a
    CSA(a, b) process with b in (1, 2).

    Pure I(d): zeta = gamma_z(0). ARFIMA(1,d,0): alpha_I = gamma_z(1)/gamma_z(0)
    and zeta = gamma_z(0) (1 - alpha_I^2) -- the dimensionally consistent
    form. The paper displays (gamma_z(0)^2 - gamma_z(1)^2) / gamma_z(0)^2
    = 1 - alpha_I^2 instead; that expression is capped at 1, so it cannot
    be a relative error variance, and it is not computed here. zeta is
    relative to sigma_eps^2, so gamma_z is taken at sigma_eps = 1; the
    reports carry the caller's p.
    """
    unit = CsaParams(p.a, p.b)
    g0 = gamma_z(unit, 0)
    g1 = gamma_z(unit, 1)
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
