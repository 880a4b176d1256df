import json
import os

import numpy as np
import pytest

from nonfrac import harness
from nonfrac.harness import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentResult,
    replication_seed,
    run_experiment,
)
from nonfrac.model import CsaParams, FracParams


class TestExperimentConfig:
    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="table99")

    def test_bad_replications(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="table1", replications=0)

    def test_bad_sample_size(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="table1", sample_size=4)

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        payload = {
            "experiment": "table1",
            "sample_size": 256,
            "replications": 4,
            "master_seed": 7,
            "parameter_grid": [
                {"process": "csa", "a": 0.2, "b": 1.6},
                {"process": "frac", "d": 0.3},
            ],
        }
        path.write_text(json.dumps(payload))
        cfg = ExperimentConfig.from_file(path)
        assert cfg.sample_size == 256
        assert cfg.parameter_grid == (CsaParams(0.2, 1.6), FracParams(0.3))

    def test_from_file_bad_process(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "table1", "parameter_grid": [{"process": "arma"}]}))
        with pytest.raises(ValueError):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize(
        "field, value",
        [("replications", 2.5), ("sample_size", "64"), ("master_seed", True), ("master_seed", -1)],
    )
    def test_bad_integer_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(experiment="table1", **{field: value})

    @pytest.mark.parametrize("experiment", ["table2", "table3", "fig_acf_shortmem"])
    def test_csa_only_grids(self, experiment):
        with pytest.raises(ValueError, match="csa"):
            ExperimentConfig(experiment=experiment, parameter_grid=(FracParams(0.2),))

    def test_table3_needs_b_below_two(self):
        with pytest.raises(ValueError, match="table3"):
            ExperimentConfig(experiment="table3", parameter_grid=(CsaParams(0.5, 2.5),))

    def test_from_file_not_an_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            ExperimentConfig.from_file(path)

    def test_from_file_missing_process(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "table1", "parameter_grid": [{"d": 0.2}]}))
        with pytest.raises(ValueError, match="process"):
            ExperimentConfig.from_file(path)

    def test_describe_is_json_serializable(self):
        cfg = ExperimentConfig(experiment="table2")
        json.dumps(cfg.describe())


class TestSeeding:
    def test_deterministic_and_order_free(self):
        s1 = replication_seed(1, 2, 3)
        s2 = replication_seed(1, 2, 3)
        assert np.random.default_rng(s1).standard_normal(4).tolist() == \
            np.random.default_rng(s2).standard_normal(4).tolist()

    def test_distinct_cells_and_reps(self):
        draws = {
            tuple(np.random.default_rng(replication_seed(9, c, r)).standard_normal(2))
            for c in range(3)
            for r in range(3)
        }
        assert len(draws) == 9


class TestRunExperiment:
    def test_table2_matches_direct_calls(self):
        cfg = ExperimentConfig(experiment="table2")
        res = run_experiment(cfg, workers=1)
        assert len(res.rows) == 50
        from nonfrac.fitloss import fit_ar_population, zeta_ar

        row = next(
            r for r in res.rows if r["a"] == 0.5 and r["b"] == 1.6 and r["statistic"] == "zeta_ar1"
        )
        p = CsaParams(0.5, 1.6)
        assert row["value"] == pytest.approx(zeta_ar(p, fit_ar_population(p, 1)), rel=1e-14)

    def test_table3_row_count(self):
        res = run_experiment(ExperimentConfig(experiment="table3"), workers=1)
        assert len(res.rows) == 75
        stats = {r["statistic"] for r in res.rows}
        assert stats == {"zeta_id", "zeta_arfima", "alpha_i"}

    def test_table1_small_serial_parallel_identical(self):
        cfg = ExperimentConfig(
            experiment="table1",
            sample_size=256,
            replications=6,
            master_seed=11,
            parameter_grid=(CsaParams(0.2, 1.6), FracParams(0.2)),
        )
        serial = run_experiment(cfg, workers=1)
        parallel = run_experiment(cfg, workers=4)
        strip = lambda res: [
            {k: v for k, v in row.items()} for row in res.rows
        ]
        assert strip(serial) == strip(parallel)

    def test_mean_periodogram_serial_parallel_identical(self):
        cfg = ExperimentConfig(
            experiment="fig_mean_periodogram", sample_size=128, replications=3, master_seed=11
        )
        assert run_experiment(cfg, workers=1).rows == run_experiment(cfg, workers=2).rows

    @pytest.mark.parametrize("workers", [1, 2])
    def test_metadata_workers(self, workers):
        cfg = ExperimentConfig(experiment="table1", sample_size=64, replications=2, master_seed=3)
        used = run_experiment(cfg, workers=workers).metadata["workers"]
        assert type(used) is int and used == min(workers, os.cpu_count())

    def test_analytic_metadata_workers_is_one(self):
        res = run_experiment(ExperimentConfig(experiment="fig_ar1_loss"), workers=2)
        assert res.metadata["workers"] == 1

    def test_table1_rerun_bitwise_identical(self):
        cfg = ExperimentConfig(
            experiment="table1",
            sample_size=128,
            replications=3,
            master_seed=5,
            parameter_grid=(FracParams(0.1),),
        )
        one = run_experiment(cfg, workers=1)
        two = run_experiment(cfg, workers=1)
        assert one.rows == two.rows

    def test_metadata_fields(self):
        res = run_experiment(ExperimentConfig(experiment="fig_ar1_loss"), workers=1)
        assert res.metadata["config"]["experiment"] == "fig_ar1_loss"
        assert res.metadata["wall_seconds"] >= 0
        assert "version" in res.metadata

    @pytest.mark.parametrize("experiment", [e for e in EXPERIMENTS if e != "table1"])
    def test_every_experiment_smoke(self, experiment):
        cfg = ExperimentConfig(
            experiment=experiment, sample_size=64, replications=2, master_seed=1
        )
        res = run_experiment(cfg, workers=1)
        assert len(res.rows) > 0
        for row in res.rows:
            assert np.isfinite(row["value"])


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records each pool's size and maps
    in this process, so no worker is ever started."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


class TestPool:
    @pytest.fixture()
    def pool_sizes(self, monkeypatch):
        sizes = []
        monkeypatch.setattr(
            harness, "ProcessPoolExecutor", lambda max_workers: _InProcessPool(sizes, max_workers)
        )
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
        return sizes

    def table1(self, replications, workers):
        cfg = ExperimentConfig(
            experiment="table1", sample_size=32, replications=replications, master_seed=2
        )
        return run_experiment(cfg, workers=workers)

    def test_one_pool_per_experiment(self, pool_sizes):
        res = self.table1(replications=2, workers=2)
        assert pool_sizes == [2] and res.metadata["workers"] == 2
        assert len({row["cell"] for row in res.rows}) == 8

    def test_serial_builds_no_pool(self, pool_sizes):
        assert self.table1(replications=2, workers=1).metadata["workers"] == 1
        assert pool_sizes == []

    @pytest.mark.parametrize("replications, expected", [(3, 24), (10, 64)])
    def test_pool_size_bounded(self, pool_sizes, replications, expected):
        # 8 cells: the task count bounds the pool at 3 reps, the CPU count at 10
        res = self.table1(replications=replications, workers=10**9)
        assert pool_sizes == [expected] and res.metadata["workers"] == expected


class TestResultWriters:
    @pytest.fixture()
    def result(self):
        return run_experiment(ExperimentConfig(experiment="table2"), workers=1)

    def test_csv_round_readable(self, result, tmp_path):
        path = tmp_path / "out.csv"
        result.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# {")
        meta = json.loads(lines[0][2:])
        assert meta["config"]["experiment"] == "table2"
        header = lines[1].split(",")
        assert "value" in header
        assert len(lines) == 2 + len(result.rows)

    def test_json_round_trip(self, result, tmp_path):
        path = tmp_path / "out.json"
        result.write_json(path)
        payload = json.loads(path.read_text())
        assert payload["metadata"]["config"]["experiment"] == "table2"
        assert len(payload["rows"]) == len(result.rows)
        assert payload["rows"][0]["value"] == result.rows[0]["value"]

    def test_numpy_floats_written_as_plain_digits(self, tmp_path):
        path = tmp_path / "out.csv"
        ExperimentResult(rows=({"value": np.float64(0.25), "n": 3},), metadata={}).write_csv(path)
        assert path.read_text().splitlines()[1:] == ["value,n", "0.25,3"]

    def test_no_leftover_temp_files(self, result, tmp_path):
        result.write_csv(tmp_path / "a.csv")
        result.write_json(tmp_path / "a.json")
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"a.csv", "a.json"}
