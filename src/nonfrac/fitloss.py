"""Misspecified-model analysis for CSA processes.

Population fits of AR(p), pure fractional, and ARFIMA(1,d,0) models, with
the relative one-step forecast error variance zeta of each (>= 1 by
construction), and the best CSA approximation to an I(d) autocorrelation.

The fractional fits rest on gamma_z, the autocovariance of z = (1 - L)^d x,
one lag sum over the autocorrelations of x and of I(-d):
gamma_z(k) = sum_{j in Z} gamma_x(j) gamma*(k - j). Its terms split by the
parity of j into two classes, each decaying like j^-2 and each completed by
an algebraic tail.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_toeplitz

from .model import CsaParams, FracParams, acf_csa_lags, acf_frac_lags, csa_variance
from .specfun import MAX_SERIES_TERMS, PFQ_REL_TOL, ConvergenceError, _fitted_tail, beta_ratio_sequence

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
_BLOCK = 2**17  # class terms per block of the lag sum: bounds its memory


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
    the lag-1 autocorrelation exactly). A system that is singular in floating
    point, as near a unit root (huge a), is a RuntimeError."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    r = acf_csa_lags(p, order)
    if order == 1:
        return np.array([r[1]])
    try:
        return solve_toeplitz(r[:order], r[1 : order + 1])
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"the AR({order}) Yule-Walker system of {p} is singular in floating point: {exc}") from None


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
    """Autocovariance at lag k of z = (1 - L)^d x, the d = 1 - b/2 fractional
    difference of a CSA(a, b) process x, for b in (1, 2):

    gamma_z(k) = sum_{j in Z} gamma_x(j) gamma*(k - j) = gamma_x(0) gamma*(0) S_k,
    S_k = sum_{j >= 0} rho_j [c_|k-j| + c_{k+j}] - c_k,

    with rho the autocorrelations of x (`acf_csa_lags`), c those of I(-d)
    (`acf_frac_lags`), gamma* = gamma*(0) c the autocovariance of (1 - L)^d
    applied to unit white noise and gamma*(0) = Gamma(1+2d)/Gamma(1+d)^2.
    Within each parity class of j the terms decay like j^-2: the even class
    regroups the 4F3 sums F1(k) + F1(-k) of the series form, the odd class
    rho_1 (F2(k) + F2(-k)). Each class sum to n terms is completed by the
    fit of `algebraic_tail_estimate`, for n = 1024, 2048, 4096, ..., and
    taken once it is stable to a relative PFQ_REL_TOL between n/2 and n;
    past MAX_SERIES_TERMS terms a class it is a ConvergenceError. The terms
    are made in blocks, so memory does not grow with the terms summed. A
    value that overflows a float is a ValueError.
    """
    if not 1.0 < p.b < 2.0:
        raise ValueError(f"gamma_z requires b in (1, 2), got {p.b}")
    if k < 0:
        raise ValueError(f"lag must be >= 0, got {k}")
    return _gamma_z_lags(p, (k,))[0]


def _gamma_z_lags(p, lags):
    """gamma_z(p, k) for each k in `lags`, from one lag sum over rho and c."""
    d = 1.0 - p.b / 2.0
    s = _class_sums(p, lags, d).reshape(-1, 2).sum(axis=1) - acf_frac_lags(FracParams(-d), max(lags))[list(lags)]
    # in Python floats, which overflow to inf without a numpy RuntimeWarning
    scale = csa_variance(p) * (math.gamma(1.0 + 2.0 * d) / math.gamma(1.0 + d) ** 2)
    values = [scale * float(v) for v in s]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"the autocovariance of the fractional difference of {p} overflows a float")
    return values


def _class_sums(p, lags, d):
    """The sums over j >= 0 of rho_j [c_|k-j| + c_{k+j}] in rows (k, even j),
    (k, odd j) for each k in `lags` (see gamma_z).

    Block [m0, m1) makes class terms m0..m1-1, that is j = 2 m0 .. 2 m1 - 1,
    continuing the product recursions of rho and c from the block before."""
    a, b = p.a, p.b
    kmax = max(lags)
    rho = np.array([1.0, float(acf_csa_lags(p, 1)[1])])  # rho at the block's first even and odd j
    lo, c_lo = 0, 1.0  # the smallest lag of c the block makes, and its value
    sums = np.zeros(2 * len(lags))
    nodes, prev, m0 = {}, None, 0
    while True:
        m1 = m0 + min(max(m0, 2048), _BLOCK)  # 2048 terms a class first, then doubling
        j0, j1 = 2 * m0, 2 * m1
        i = np.arange(lo, j1 + kmax + 1, dtype=float)
        c = (i - 1.0 - d) / (i + d)
        c[0] = c_lo
        np.cumprod(c, out=c)  # c at lags lo .. j1 + kmax
        window = c if j0 >= kmax else np.concatenate((c[kmax - j0 : 0 : -1], c))  # c at lags j0 - kmax ..
        terms = np.empty((len(lags), 2, m1 - m0))
        r = [rho[q] * beta_ratio_sequence(a + 0.5 * q + m0, b - 1.0, m1 - m0) for q in (0, 1)]
        for row, k in zip(terms, lags):
            s = window[kmax + k : kmax + k + j1 - j0] + window[kmax - k : kmax - k + j1 - j0]  # c_{j+k} + c_|j-k|
            np.multiply(r[0][:-1], s[0::2], out=row[0])
            np.multiply(r[1][:-1], s[1::2], out=row[1])
        rho[:] = r[0][-1], r[1][-1]
        terms = terms.reshape(-1, m1 - m0)
        for t in range(max(7, m0.bit_length()), m1.bit_length()):  # n = 2^t in (m0, m1]
            n = 1 << t
            nodes[t] = terms[:, n - 1 - m0].copy()  # the tail fit's nodes are the class terms 2^t - 1
            if t >= 10:  # a checkpoint: each class summed to n terms and completed
                tail = _fitted_tail(np.stack([nodes[t], nodes[t - 1], nodes[t - 2], nodes[t - 3]], axis=1), 2.0, n - 1)
                total = sums + terms[:, : n - m0].sum(axis=1) + tail
                if prev is not None and np.all(np.abs(total - prev) <= PFQ_REL_TOL * np.abs(total)):
                    return total
                if n > MAX_SERIES_TERMS:
                    raise ConvergenceError(
                        f"the lag sum of gamma_z for {p} is not stable to {PFQ_REL_TOL:g} after {n} terms per class"
                    )
                prev = total
        sums += terms.sum(axis=1)
        next_lo = max(j1 - kmax, 0)
        lo, c_lo, m0 = next_lo, c[next_lo - lo], m1


def zeta_fractional(p):
    """Efficiency reports of the two fractional competitors fitted to a
    CSA(a, b) process with b in (1, 2).

    Pure I(d): zeta = gamma_z(0). ARFIMA(1,d,0): alpha_I = gamma_z(1)/gamma_z(0)
    and zeta = gamma_z(0) (1 - alpha_I^2) -- the dimensionally consistent
    form. The paper displays (gamma_z(0)^2 - gamma_z(1)^2) / gamma_z(0)^2
    = 1 - alpha_I^2 instead; that expression is capped at 1, so it cannot
    be a relative error variance, and it is not computed here. zeta is
    relative to sigma_eps^2, so gamma_z is taken at sigma_eps = 1, both lags
    from one lag sum; the reports carry the caller's p.
    """
    g0, g1 = _gamma_z_lags(CsaParams(p.a, p.b), (0, 1))
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
