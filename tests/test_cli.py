import json
import os
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from nonfrac.cli import main
from nonfrac.model import CsaParams, csa_aggregate_spectrum_at_zero, csa_spectrum_at_zero


@pytest.fixture()
def runner():
    return CliRunner()


def read_column(path):
    values = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or line == "value" or line == "forecast" or line == "acf":
            continue
        values.append(float(line))
    return np.array(values)


def read_meta(path):
    first = path.read_text().splitlines()[0]
    assert first.startswith("# ")
    return json.loads(first[2:])


class TestSimulate:
    def test_csa_fast_writes_file(self, runner, tmp_path):
        out = tmp_path / "x.csv"
        res = runner.invoke(
            main,
            ["simulate", "--process", "csa", "--a", "0.2", "--b", "1.6",
             "--length", "64", "--seed", "3", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        values = read_column(out)
        assert values.size == 64
        meta = read_meta(out)
        assert meta["process"] == "csa" and meta["seed"] == 3

    def test_deterministic_across_invocations(self, runner, tmp_path):
        args = ["simulate", "--process", "frac", "--d", "0.3", "--length", "32",
                "--seed", "9"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
        assert out1.read_text().splitlines()[1:] == out2.read_text().splitlines()[1:]

    def test_naive_method(self, runner, tmp_path):
        out = tmp_path / "x.csv"
        res = runner.invoke(
            main,
            ["simulate", "--process", "csa", "--a", "0.5", "--b", "1.6",
             "--length", "16", "--method", "naive", "--units", "10",
             "--burnin", "20", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        assert read_meta(out)["n_units"] == 10

    def test_missing_csa_params_is_usage_error(self, runner, tmp_path):
        res = runner.invoke(
            main, ["simulate", "--process", "csa", "--length", "8",
                   "--out", str(tmp_path / "x.csv")],
        )
        assert res.exit_code == 2
        assert "--a and --b are required" in res.output

    def test_invalid_domain_is_usage_error(self, runner, tmp_path):
        res = runner.invoke(
            main, ["simulate", "--process", "csa", "--a", "0.2", "--b", "0.9",
                   "--length", "8", "--out", str(tmp_path / "x.csv")],
        )
        assert res.exit_code == 2

    def test_naive_frac_rejected(self, runner, tmp_path):
        res = runner.invoke(
            main, ["simulate", "--process", "frac", "--d", "0.2", "--length", "8",
                   "--method", "naive", "--out", str(tmp_path / "x.csv")],
        )
        assert res.exit_code == 2


class TestForecast:
    def test_round_trip(self, runner, tmp_path):
        series = tmp_path / "x.csv"
        fc = tmp_path / "f.csv"
        assert runner.invoke(
            main, ["simulate", "--process", "csa", "--a", "0.3", "--b", "1.5",
                   "--length", "100", "--seed", "1", "--out", str(series)],
        ).exit_code == 0
        res = runner.invoke(
            main, ["forecast", "--in", str(series), "--a", "0.3", "--b", "1.5",
                   "--horizon", "5", "--out", str(fc)],
        )
        assert res.exit_code == 0, res.output
        assert read_column(fc).size == 5
        meta = read_meta(fc)
        assert meta["horizon"] == 5
        assert meta["reconstruction_error"] < 1e-8

    def test_horizon_too_large(self, runner, tmp_path):
        series = tmp_path / "x.csv"
        series.write_text("value\n1.0\n2.0\n")
        res = runner.invoke(
            main, ["forecast", "--in", str(series), "--a", "0.3", "--b", "1.5",
                   "--horizon", "5", "--out", str(tmp_path / "f.csv")],
        )
        assert res.exit_code == 2

    def test_garbage_input_file(self, runner, tmp_path):
        series = tmp_path / "x.csv"
        series.write_text("value\n1.0\nnot-a-number\n")
        res = runner.invoke(
            main, ["forecast", "--in", str(series), "--a", "0.3", "--b", "1.5",
                   "--horizon", "1", "--out", str(tmp_path / "f.csv")],
        )
        assert res.exit_code == 2
        assert "cannot parse" in res.output


class TestAcfSpectrumGph:
    def test_acf_values(self, runner, tmp_path):
        out = tmp_path / "acf.csv"
        res = runner.invoke(
            main, ["acf", "--process", "frac", "--d", "0.2", "--max-lag", "3",
                   "--out", str(out)],
        )
        assert res.exit_code == 0
        values = read_column(out)
        assert values[0] == 1.0
        assert values[1] == pytest.approx(0.25)

    def test_spectrum_requires_b_above_two(self, runner):
        res = runner.invoke(main, ["spectrum", "--a", "0.5", "--b", "1.6"])
        assert res.exit_code == 1  # numerical failure: divergent sum

    def test_spectrum_value(self, runner):
        # the aggregate's value, not the paper filter's
        res = runner.invoke(main, ["spectrum", "--a", "1.0", "--b", "2.8"])
        assert res.exit_code == 0
        value = float(res.output.strip())
        assert value == csa_aggregate_spectrum_at_zero(CsaParams(1.0, 2.8))
        assert value < csa_spectrum_at_zero(CsaParams(1.0, 2.8))

    def test_spectrum_fast_decay(self, runner):
        # b = 100: the autocorrelations fall like k^-99 and the closed form is
        # printed unchanged
        res = runner.invoke(main, ["spectrum", "--a", "0.2", "--b", "100"])
        assert res.exit_code == 0, res.output
        assert float(res.output.strip()) == csa_aggregate_spectrum_at_zero(CsaParams(0.2, 100.0))

    def test_spectrum_large_a(self, runner):
        # the autocorrelations decay slowly here: the closed form needs no series
        res = runner.invoke(main, ["spectrum", "--a", "1e6", "--b", "2.5"])
        assert res.exit_code == 0, res.output
        assert float(res.output.strip()) == pytest.approx(848827848603.189, rel=1e-11)

    def test_spectrum_overflow(self, runner):
        res = runner.invoke(main, ["spectrum", "--a", "1e300", "--b", "2.5"])
        assert res.exit_code == 2, res.output
        error = [line for line in res.output.splitlines() if line.startswith("Error:")]
        assert len(error) == 1 and "overflows" in error[0]
        assert "inf" not in res.output

    def test_gph_on_simulated_series(self, runner, tmp_path):
        series = tmp_path / "x.csv"
        assert runner.invoke(
            main, ["simulate", "--process", "frac", "--d", "0.3",
                   "--length", "2048", "--seed", "4", "--out", str(series)],
        ).exit_code == 0
        res = runner.invoke(main, ["gph", "--in", str(series)])
        assert res.exit_code == 0
        d_hat = float(res.output.split("d_hat=")[1].split()[0])
        assert abs(d_hat - 0.3) < 0.4

    def test_gph_bandwidth_validation(self, runner, tmp_path):
        series = tmp_path / "x.csv"
        series.write_text("value\n" + "\n".join(["0.5"] * 16))
        res = runner.invoke(main, ["gph", "--in", str(series), "--bandwidth", "2"])
        assert res.exit_code == 2


class TestFitMatch:
    def test_fit_ar(self, runner):
        res = runner.invoke(main, ["fit", "--a", "0.5", "--b", "1.6"])
        assert res.exit_code == 0
        assert "zeta=1.17" in res.output

    def test_fit_ar_singular_system(self, runner):
        # valid input whose Yule-Walker solve fails numerically: exit 1, one line
        res = runner.invoke(main, ["fit", "--a", "3.1622776601683794e13", "--b", "1.1", "--order", "20"])
        assert res.exit_code == 1, res.output
        lines = res.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: the AR(20) Yule-Walker system")
        assert "Usage:" not in res.output and "Traceback" not in res.output

    def test_fit_fractional(self, runner):
        res = runner.invoke(main, ["fit", "--a", "0.5", "--b", "1.6", "--model", "fractional"])
        assert res.exit_code == 0
        assert "model=i(d)" in res.output and "arfima" in res.output

    def test_fit_fractional_without_convergence(self, runner):
        # near a unit root the lag sum of gamma_z does not settle in 2^24 terms a
        # class: exit 1, one line; the terms are made in blocks, so the memory
        # held stays flat however many are summed
        tracemalloc.start()
        try:
            res = runner.invoke(main, ["fit", "--a", "1e8", "--b", "1.5", "--model", "fractional"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.exit_code == 1, res.output
        lines = res.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: the lag sum of gamma_z")
        assert "Traceback" not in res.output
        assert peak < 64 * 2**20

    def test_fit_fractional_bad_b(self, runner):
        res = runner.invoke(main, ["fit", "--a", "0.5", "--b", "2.5", "--model", "fractional"])
        assert res.exit_code == 2

    def test_match(self, runner):
        res = runner.invoke(main, ["match", "--k", "10", "--d", "0.2"])
        assert res.exit_code == 0
        a_star = float(res.output.split("a_star=")[1].split()[0])
        assert 0.10 < a_star < 0.15

    def test_match_without_interior_minimum(self, runner):
        # a RuntimeError from the library is a numerical failure: exit 1
        res = runner.invoke(main, ["match", "--k", "10", "--d", "0.001"])
        assert res.exit_code == 1, res.output
        assert "no interior minimum" in res.output
        assert "Traceback" not in res.output

    def test_match_bad_d(self, runner):
        res = runner.invoke(main, ["match", "--k", "10", "--d", "0.7"])
        assert res.exit_code == 2


class TestBenchmark:
    def test_small_run(self, runner, tmp_path):
        out = tmp_path / "bench.csv"
        res = runner.invoke(
            main, ["benchmark", "--sizes", "16", "--runs", "2", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        assert "speedup=" in res.output
        assert out.exists()

    def test_bad_sizes(self, runner):
        res = runner.invoke(main, ["benchmark", "--sizes", "ten"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_no_runs(self, runner, runs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = runner.invoke(main, ["benchmark", "--sizes", "16", "--runs", runs])
        assert res.exit_code == 2
        assert "--runs must be >= 1" in res.output
        assert "nan" not in res.output


class TestTableAndExperiment:
    def test_table2(self, runner, tmp_path):
        out = tmp_path / "t2.csv"
        res = runner.invoke(main, ["table", "--table", "2", "--out", str(out)])
        assert res.exit_code == 0, res.output
        lines = out.read_text().splitlines()
        assert len(lines) == 2 + 50

    def test_experiment_config_round_trip(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "table1", "sample_size": 128, "replications": 2,
            "master_seed": 6,
            "parameter_grid": [{"process": "frac", "d": 0.2}],
        }))
        prefix = tmp_path / "run"
        res = runner.invoke(
            main, ["experiment", "--config", str(cfg), "--out", str(prefix),
                   "--workers", "1"],
        )
        assert res.exit_code == 0, res.output
        assert (tmp_path / "run.csv").exists() and (tmp_path / "run.json").exists()
        payload = json.loads((tmp_path / "run.json").read_text())
        assert payload["metadata"]["config"]["replications"] == 2

    def test_experiment_bad_config(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "nope"}))
        res = runner.invoke(
            main, ["experiment", "--config", str(cfg), "--out", str(tmp_path / "r")],
        )
        assert res.exit_code == 2

    def test_experiment_bitwise_reproducible(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "table1", "sample_size": 64, "replications": 2,
            "master_seed": 12,
            "parameter_grid": [{"process": "csa", "a": 0.2, "b": 1.6}],
        }))
        outs = []
        for name in ("r1", "r2"):
            res = runner.invoke(
                main, ["experiment", "--config", str(cfg), "--out", str(tmp_path / name),
                       "--workers", "1"],
            )
            assert res.exit_code == 0
            rows = json.loads((tmp_path / f"{name}.json").read_text())["rows"]
            outs.append(rows)
        assert outs[0] == outs[1]


class TestBadInput:
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["gph", "forecast"])
    def test_non_finite_row_rejected(self, runner, tmp_path, command, token):
        series = tmp_path / "x.csv"
        rows = [str(np.sin(i)) for i in range(64)]
        rows[10] = token
        series.write_text("value\n" + "\n".join(rows) + "\n")
        args = {
            "gph": ["gph", "--in", str(series)],
            "forecast": ["forecast", "--in", str(series), "--a", "0.3", "--b", "1.5",
                         "--horizon", "2", "--out", str(tmp_path / "f.csv")],
        }[command]
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert f"x.csv:12: non-finite value '{token}'" in res.output
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize(
        "command, target, message",
        [
            ("gph", "bad", "bad.csv: not utf-8 text"),
            ("forecast", "bad", "bad.csv: not utf-8 text"),
            ("gph", "dir", "cannot read: Is a directory"),
            ("forecast", "dir", "cannot read: Is a directory"),
        ],
    )
    def test_unreadable_input_file(self, runner, tmp_path, command, target, message):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xfe1\n2\n3\n")
        path = str(bad if target == "bad" else tmp_path)
        args = {
            "gph": ["gph", "--in", path],
            "forecast": ["forecast", "--in", path, "--a", "0.3", "--b", "1.5",
                         "--horizon", "2", "--out", str(tmp_path / "f.csv")],
        }[command]
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        error = [line for line in res.output.splitlines() if line.startswith("Error:")]
        assert len(error) == 1 and message in error[0]
        assert "Traceback" not in res.output
        assert not (tmp_path / "f.csv").exists()

    def test_constant_series_gph(self, runner, tmp_path):
        series = tmp_path / "x.csv"
        series.write_text("value\n" + "1.5\n" * 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = runner.invoke(main, ["gph", "--in", str(series)])
        assert res.exit_code == 2
        assert "constant series" in res.output
        assert "nan" not in res.output

    def test_constant_series_forecast(self, runner, tmp_path):
        # forecasting needs no variance: a constant path is a valid input
        series, fc = tmp_path / "x.csv", tmp_path / "f.csv"
        series.write_text("value\n" + "1.5\n" * 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = runner.invoke(
                main, ["forecast", "--in", str(series), "--a", "0.3", "--b", "1.5",
                       "--horizon", "3", "--out", str(fc)],
            )
        assert res.exit_code == 0, res.output
        assert np.all(np.isfinite(read_column(fc)))

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"experiment": "table1", "replications": 2.5}, "replications must be an integer"),
            ({"experiment": "table2", "parameter_grid": [{"process": "frac", "d": 0.2}]},
             "table2 takes only csa"),
        ],
    )
    def test_bad_experiment_config(self, runner, tmp_path, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        res = runner.invoke(main, ["experiment", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert res.exit_code == 2
        assert message in res.output
        assert "Traceback" not in res.output

    def test_config_directory_rejected(self, runner, tmp_path):
        res = runner.invoke(main, ["experiment", "--config", str(tmp_path), "--out", str(tmp_path / "r")])
        assert res.exit_code == 2
        error = [line for line in res.output.splitlines() if line.startswith("Error:")]
        assert len(error) == 1 and "is a directory" in error[0]
        assert "Traceback" not in res.output
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "fit", "experiment"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_csa_parameter(self, runner, tmp_path, command, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "fig_acf_shortmem",
            "parameter_grid": [{"process": "csa", "a": float(value), "b": 1.6}],
        }))
        out = tmp_path / "s.csv"
        args = {
            "simulate": ["simulate", "--process", "csa", "--a", value, "--b", "1.5",
                         "-T", "8", "--out", str(out)],
            "fit": ["fit", "--a", "0.5", "--b", value],
            "experiment": ["experiment", "--config", str(cfg), "--out", str(tmp_path / "s")],
        }[command]
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert "must be finite" in res.output
        assert "zeta" not in res.output and "Traceback" not in res.output
        assert not out.exists()


    @pytest.mark.parametrize(
        "args, named",
        [
            (["simulate", "--process", "frac", "--d", "0.3", "--sigma", "5", "-T", "4"], "sigma_eps"),
            (["simulate", "--process", "frac", "--d", "0.3", "--a", "3", "-T", "4"], "takes no a"),
            (["simulate", "--process", "csa", "--a", "0.2", "--b", "1.6", "--d", "0.2", "-T", "4"], "takes no d"),
            (["simulate", "--process", "csa", "--a", "0.2", "--b", "1.6", "--units", "3", "-T", "4"], "--units"),
            (["simulate", "--process", "csa", "--a", "0.2", "--b", "1.6", "--burnin", "3", "-T", "4"], "--burnin"),
            (["acf", "--process", "frac", "--d", "0.3", "--a", "3"], "takes no a"),
            (["acf", "--process", "csa", "--a", "0.2", "--b", "1.6", "--d", "0.3"], "takes no d"),
        ],
    )
    def test_option_of_another_process_or_method(self, runner, tmp_path, args, named):
        out = tmp_path / "s.csv"
        res = runner.invoke(main, [*args, "--out", str(out)])
        assert res.exit_code == 2
        error = [line for line in res.output.splitlines() if line.startswith("Error:")]
        assert len(error) == 1 and named in error[0]
        assert "Traceback" not in res.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid, message",
        [
            ([{"process": "csa", "a": True, "b": 1.6}], "a must be a real number, got True"),
            ([{"process": "frac", "d": False}], "d must be a real number, got False"),
            ([{"process": "csa", "a": 10**400, "b": 1.6}], "a must be finite"),
            (["ab"], "parameter entry 'ab' is not an object"),
            ({"process": "frac", "d": 0.1}, "parameter_grid must be a list"),
            ([{"process": "frac", "d": 0.1, "sigma_eps": 2.0}], "the frac process takes no sigma_eps"),
            ([{"process": "frac"}], "the frac process needs d"),
            ([{"process": "csa", "sigma_eps": 2.0}], "the csa process needs a and b"),
        ],
    )
    def test_bad_parameter_grid(self, runner, tmp_path, grid, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "fig_antipersistence_acf", "parameter_grid": grid}))
        res = runner.invoke(main, ["experiment", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert res.exit_code == 2
        error = [line for line in res.output.splitlines() if line.startswith("Error:")]
        assert len(error) == 1 and message in error[0]
        assert "Traceback" not in res.output
        assert not (tmp_path / "r.csv").exists()

    def test_int_parameter_written_as_given(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "fig_antipersistence_acf",
            "parameter_grid": [{"process": "csa", "a": 1, "b": 3}],
        }))
        res = runner.invoke(main, ["experiment", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert res.exit_code == 0, res.output
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[1] == "cell,process,a,b,sigma_eps,lag,statistic,value"
        assert lines[2] == "0,csa,1,3,1.0,0,acf,1.0"

    @pytest.mark.parametrize("command", ["simulate", "simulate-naive", "experiment", "experiment-periodogram"])
    def test_overflowing_sigma(self, runner, tmp_path, command):
        # a path of 1e308 overflows; one of 1e200 is finite, but its periodogram is not
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "table1", "sample_size": 64, "replications": 2,
            "parameter_grid": [{"process": "csa", "a": 0.2, "b": 1.6, "sigma_eps": 1e308}],
        }))
        pgram_cfg = tmp_path / "pgram.json"
        pgram_cfg.write_text(json.dumps({
            "experiment": "fig_mean_periodogram", "sample_size": 64, "replications": 2,
            "parameter_grid": [{"process": "csa", "a": 0.5, "b": 1.6, "sigma_eps": 1e200}],
        }))
        out = tmp_path / "s.csv"
        args = {
            "simulate": ["simulate", "--process", "csa", "--a", "0.2", "--b", "1.6",
                         "-T", "8", "--sigma", "1e308", "--out", str(out)],
            "simulate-naive": ["simulate", "--process", "csa", "--a", "0.2", "--b", "1.6",
                               "-T", "8", "--sigma", "1e308", "--method", "naive",
                               "--units", "4", "--burnin", "3", "--out", str(out)],
            "experiment": ["experiment", "--config", str(cfg), "--out", str(tmp_path / "s"),
                           "--workers", "1"],
            "experiment-periodogram": ["experiment", "--config", str(pgram_cfg), "--out", str(tmp_path / "s")],
        }[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert "overflows" in res.output
        assert "Warning" not in res.output and "Traceback" not in res.output
        assert not out.exists()

    def test_overflowing_sigma_on_threads(self, runner, tmp_path, monkeypatch):
        # T = 8192 runs on two threads; the overflowing cell is the helper thread's share
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "table1", "sample_size": 8192, "replications": 1,
            "parameter_grid": [{"process": "csa", "a": 0.2, "b": 1.6},
                               {"process": "csa", "a": 0.2, "b": 1.6, "sigma_eps": 1e308}],
        }))
        res = runner.invoke(main, ["experiment", "--config", str(cfg), "--out", str(tmp_path / "s"),
                                   "--workers", "2"])
        assert res.exit_code == 2
        error = [line for line in res.output.splitlines() if line.startswith("Error:")]
        assert len(error) == 1 and "overflows" in error[0]
        assert "Traceback" not in res.output
        assert not (tmp_path / "s.csv").exists()

    def test_table3_zeta_is_free_of_sigma(self, runner, tmp_path):
        # zeta is a ratio to sigma_eps^2, so a sigma whose square overflows is fine
        values = []
        for sigma in (1.0, 1e200):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({
                "experiment": "table3",
                "parameter_grid": [{"process": "csa", "a": 0.5, "b": 1.6, "sigma_eps": sigma}],
            }))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = runner.invoke(main, ["experiment", "--config", str(cfg), "--out", str(tmp_path / "r")])
            assert res.exit_code == 0, res.output
            values.append([row["value"] for row in json.loads((tmp_path / "r.json").read_text())["rows"]])
        assert values[0] == values[1]
        assert values[0][0] == pytest.approx(1.2534, abs=1e-4)


def test_no_numpy_repr_in_any_output(runner, tmp_path):
    series = tmp_path / "x.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "table1", "sample_size": 64, "replications": 2,
        "parameter_grid": [{"process": "csa", "a": 0.2, "b": 1.6}],
    }))
    commands = [
        ["simulate", "--process", "csa", "--a", "0.2", "--b", "1.6", "--length", "256",
         "--out", str(series)],
        ["forecast", "--in", str(series), "--a", "0.2", "--b", "1.6", "--horizon", "3",
         "--out", str(tmp_path / "fc.csv")],
        ["acf", "--process", "csa", "--a", "0.2", "--b", "1.6", "--max-lag", "5",
         "--out", str(tmp_path / "acf.csv")],
        ["spectrum", "--a", "1.0", "--b", "2.8"],
        ["gph", "--in", str(series)],
        ["fit", "--a", "0.5", "--b", "1.6", "--order", "2"],
        ["fit", "--a", "0.5", "--b", "1.6", "--model", "fractional"],
        ["match", "--k", "10", "--d", "0.2"],
        ["benchmark", "--sizes", "16", "--runs", "1", "--out", str(tmp_path / "bench.csv")],
        ["table", "--table", "3", "--out", str(tmp_path / "t3.csv"), "--workers", "1"],
        ["experiment", "--config", str(cfg), "--out", str(tmp_path / "run"), "--workers", "1"],
    ]
    for args in commands:
        res = runner.invoke(main, args)
        assert res.exit_code == 0, (args, res.output)
        assert "np." not in res.output, (args, res.output)
    written = sorted(p.name for p in tmp_path.iterdir() if p.name != "cfg.json")
    assert written == ["acf.csv", "bench.csv", "fc.csv", "run.csv", "run.json", "t3.csv", "x.csv"]
    for name in written:
        assert "np." not in (tmp_path / name).read_text(), name


# Mostly numeric lines, with arbitrary bytes mixed in: every outcome of
# `_read_column` (data, header, parse error, non-finite, undecodable) shows up.
_LINE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(lambda v: repr(v).encode()),
    st.integers(-10**30, 10**30).map(lambda v: str(v).encode()),
    st.binary(max_size=12),
)
_FILE = st.binary(max_size=200) | st.lists(_LINE, max_size=40).map(b"\n".join)


@settings(max_examples=300, deadline=None)
@example(b"\xff\xfe1\n2\n")
@example(b"value\n" + b"1e308\n-1e308\n" * 8)
@given(_FILE)
def test_read_column_fuzz(data):
    """Any file content makes `gph --in` exit 0 or 2, never with a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        res = CliRunner().invoke(main, ["gph", "--in", path])
    assert res.exit_code in (0, 2), (res.output, res.exc_info)
    assert "Traceback" not in res.output
    assert "=nan" not in res.output
