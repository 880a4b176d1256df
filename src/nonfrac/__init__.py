"""Long memory without fractional differencing.

Two generating mechanisms for long-memory time series -- the fractional
difference operator I(d) and cross-sectional aggregation CSA(a, b) of AR(1)
units -- with fast FFT-based simulation, minimum-MSE forecasting,
population efficiency-loss analysis of misspecified models, and
log-periodogram memory estimation.
"""

__version__ = "0.1.0"

from .model import (
    CsaParams,
    FracParams,
    acf_csa_lags,
    acf_frac_lags,
    csa_aggregate_spectrum_at_zero,
    csa_ma_coeffs,
    csa_spectrum_at_zero,
    csa_variance,
    frac_ma_coeffs,
)
from .simulate import (
    SeriesSample,
    benchmark_generation,
    generate_csa_fast,
    generate_csa_naive,
    generate_frac_fast,
)
from .forecast import ForecastResult, forecast_csa, recover_innovations
from .fitloss import (
    EfficiencyReport,
    approximation_loss,
    best_matching_a,
    fit_ar_population,
    gamma_z,
    zeta_ar,
    zeta_fractional,
)
from .estimate import GphEstimate, PeriodogramResult, gph_estimate, periodogram
from .harness import ExperimentConfig, ExperimentResult, run_experiment
from .specfun import ConvergenceError, hypergeometric_pfq

__all__ = [
    "__version__",
    "CsaParams",
    "FracParams",
    "SeriesSample",
    "ForecastResult",
    "EfficiencyReport",
    "GphEstimate",
    "PeriodogramResult",
    "ExperimentConfig",
    "ExperimentResult",
    "ConvergenceError",
    "acf_csa_lags",
    "acf_frac_lags",
    "approximation_loss",
    "benchmark_generation",
    "best_matching_a",
    "csa_aggregate_spectrum_at_zero",
    "csa_ma_coeffs",
    "csa_spectrum_at_zero",
    "csa_variance",
    "fit_ar_population",
    "forecast_csa",
    "frac_ma_coeffs",
    "gamma_z",
    "generate_csa_fast",
    "generate_csa_naive",
    "generate_frac_fast",
    "gph_estimate",
    "hypergeometric_pfq",
    "periodogram",
    "recover_innovations",
    "run_experiment",
    "zeta_ar",
    "zeta_fractional",
]
