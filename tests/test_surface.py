"""The names other code looks up by module attribute: the package exports and
the functions the perfbench workloads and tracer call or wrap."""

import importlib

import pytest

import nonfrac

LOOKED_UP = {
    "simulate": ("generate_csa_fast", "generate_frac_fast", "circular_convolve"),
    "model": ("csa_ma_coeffs", "frac_ma_coeffs", "CsaParams"),
    "spectral": ("circular_convolve",),
    "estimate": ("periodogram", "gph_estimate"),
    "forecast": ("recover_innovations", "forecast_csa"),
    "specfun": ("hypergeometric_pfq",),
    "harness": ("run_experiment", "ExperimentConfig", "ExperimentResult", "gph_estimate"),
}


@pytest.mark.parametrize("module", sorted(LOOKED_UP))
def test_looked_up_names_exist(module):
    mod = importlib.import_module(f"nonfrac.{module}")
    for name in LOOKED_UP[module]:
        assert callable(getattr(mod, name)), f"nonfrac.{module}.{name}"
    # the tracer wraps what a layer lists in __all__ and defines itself
    own = {n for n in LOOKED_UP[module] if getattr(mod, n).__module__ == mod.__name__}
    assert own <= set(mod.__all__)


def test_result_writer_exists():
    assert callable(nonfrac.harness.ExperimentResult.write_csv)


def test_package_exports_resolve():
    for name in nonfrac.__all__:
        assert hasattr(nonfrac, name), name
