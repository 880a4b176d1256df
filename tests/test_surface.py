"""The names other code looks up by module attribute (the package exports and
the functions the perfbench workloads and tracer call or wrap), and what
importing the package loads."""

import importlib
import os
import subprocess
import sys

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


def test_import_loads_only_fft_linalg_special_from_scipy():
    # each further scipy subpackage adds start-up time to every process:
    # scipy.signal about 1 s and 40 MB, scipy.optimize 0.12-0.16 s
    code = (
        "import sys, scipy; before = set(sys.modules)\n"
        "import nonfrac, nonfrac.cli\n"
        "loaded = {m.split('.')[1] for m in set(sys.modules) - before if m.startswith('scipy.')}\n"
        "print(nonfrac.__file__, *sorted(n for n in loaded if not n.startswith('_')))"
    )
    src = os.path.dirname(os.path.dirname(nonfrac.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    path, *subpackages = out.stdout.split()
    assert path == nonfrac.__file__
    assert set(subpackages) <= {"fft", "linalg", "special"}
