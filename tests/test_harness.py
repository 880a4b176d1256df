import json
import os
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nonfrac import harness, model, spectral
from nonfrac.harness import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentResult,
    replication_seed,
    run_experiment,
)
from nonfrac.model import CsaParams, FracParams, params_from_dict


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

    @pytest.mark.parametrize(
        "grid, message",
        [
            (["ab"], "parameter entry 'ab' is not an object"),
            ([{"process": "frac", "d": 0.1}, 3], "parameter entry 3 is not an object"),
            ({"process": "frac", "d": 0.1}, "parameter_grid must be a list"),
            ("ab", "parameter_grid must be a list, got 'ab'"),
            (None, "parameter_grid must be a list, got None"),
        ],
    )
    def test_from_file_malformed_grid(self, tmp_path, grid, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "table1", "parameter_grid": grid}))
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize(
        "entry, field",
        [
            ({"process": "csa", "a": True, "b": 1.6}, "a"),
            ({"process": "frac", "d": False}, "d"),
            ({"process": "csa", "a": 10**400, "b": 1.6}, "a"),
            ({"process": "csa", "a": 0.2, "b": 1.6, "sigma_eps": True}, "sigma_eps"),
        ],
    )
    def test_from_file_bad_parameter_value(self, tmp_path, entry, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "table1", "parameter_grid": [entry]}))
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ExperimentConfig.from_file(path)

    def test_describe_is_json_serializable(self):
        cfg = ExperimentConfig(experiment="table2")
        json.dumps(cfg.describe())

    def test_describe_mixed_grid(self):
        # the key order is the CSV column order of every row built from it
        cfg = ExperimentConfig(
            experiment="table1",
            sample_size=64,
            replications=3,
            master_seed=9,
            parameter_grid=(CsaParams(0.2, 1.6), FracParams(-0.1), CsaParams(1, 3, 2.5)),
        )
        assert json.dumps(cfg.describe()) == (
            '{"experiment": "table1", "sample_size": 64, "replications": 3, "master_seed": 9, '
            '"parameter_grid": [{"process": "csa", "a": 0.2, "b": 1.6, "sigma_eps": 1.0}, '
            '{"process": "frac", "d": -0.1}, {"process": "csa", "a": 1, "b": 3, "sigma_eps": 2.5}]}'
        )


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_NUMBER = _JSON | st.integers(min_value=10**300, max_value=10**400)
_ENTRY = _JSON | st.fixed_dictionaries(
    {"process": st.sampled_from(["csa", "frac", "arma"])},
    optional={name: _NUMBER for name in ("a", "b", "d", "sigma_eps")},
)
_CONFIG = _JSON | st.fixed_dictionaries(
    {"experiment": st.sampled_from(EXPERIMENTS) | _JSON},
    optional={
        **{name: _NUMBER for name in ("sample_size", "replications", "master_seed")},
        "parameter_grid": st.lists(_ENTRY, max_size=3) | _JSON,
        "extra": _JSON,
    },
)


@settings(max_examples=300, deadline=None)
@example({"experiment": "table1", "parameter_grid": [{"process": "csa", "a": 10**400, "b": 1.6}]})
@given(_CONFIG)
def test_from_file_fuzz(document):
    """Any JSON document loads as a config or fails with ValueError or
    TypeError, the two errors `nonfrac experiment` reports as a usage error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(document, fh)
        try:
            cfg = ExperimentConfig.from_file(path)
        except (ValueError, TypeError):
            return
    assert isinstance(cfg, ExperimentConfig)


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


@pytest.fixture()
def any_work_forks(monkeypatch):
    """Lets a run of any size fork its pool, so that a small test run still
    exercises the pooled path."""
    monkeypatch.setattr(harness, "_SAMPLES_PER_PROCESS", 1)
    monkeypatch.setattr(harness, "_SAMPLES_PER_PROCESS_OVER_THREADS", 1)


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

    def test_table1_small_serial_parallel_identical(self, any_work_forks):
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
        assert parallel.metadata["workers"] == min(4, os.cpu_count())

    def test_mean_periodogram_serial_parallel_identical(self, any_work_forks):
        cfg = ExperimentConfig(
            experiment="fig_mean_periodogram", sample_size=128, replications=3, master_seed=11
        )
        parallel = run_experiment(cfg, workers=2)
        assert run_experiment(cfg, workers=1).rows == parallel.rows
        assert parallel.metadata["workers"] == min(2, os.cpu_count())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_metadata_workers(self, workers, any_work_forks):
        # `workers` counts processes; a process pool's run reports one thread
        cfg = ExperimentConfig(experiment="table1", sample_size=64, replications=2, master_seed=3)
        metadata = run_experiment(cfg, workers=workers).metadata
        used = metadata["workers"]
        assert type(used) is int and used == min(workers, os.cpu_count())
        assert metadata["threads"] == 1

    def test_analytic_metadata_workers_is_one(self):
        res = run_experiment(ExperimentConfig(experiment="fig_ar1_loss"), workers=2)
        assert res.metadata["workers"] == 1 and res.metadata["threads"] == 1

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


class TestAntipersistenceAcf:
    """The figure behind the antipersistence claim: I(d) with d < 0 is
    negatively correlated at every lag, CSA at the same memory is not."""

    @pytest.fixture(scope="class")
    def cells(self):
        res = run_experiment(ExperimentConfig(experiment="fig_antipersistence_acf"), workers=1)
        cells = {}
        for row in res.rows:
            cells.setdefault(row["cell"], []).append(row)
        return cells

    def test_default_grid(self, cells):
        assert sorted(cells) == [0, 1]
        assert list(cells[0][0]) == ["cell", "process", "d", "lag", "statistic", "value"]
        assert list(cells[1][0]) == ["cell", "process", "a", "b", "sigma_eps", "lag", "statistic", "value"]
        assert params_from_row(cells[0][0]) == FracParams(-0.2)
        assert params_from_row(cells[1][0]) == CsaParams(0.09, 2.4)

    def test_frac_negative_at_every_lag(self, cells):
        values = np.array([row["value"] for row in cells[0]])
        assert values[0] == 1.0 and (values[1:] < 0).all()

    def test_csa_positive_at_every_lag(self, cells):
        values = np.array([row["value"] for row in cells[1]])
        assert (values > 0).all()

    @pytest.mark.parametrize("cell", [0, 1])
    def test_rows_are_the_closed_form(self, cells, cell):
        rows = cells[cell]
        assert [row["lag"] for row in rows] == list(range(111))
        assert [row["value"] for row in rows] == params_from_row(rows[0]).acf(110).tolist()


def params_from_row(row):
    keep = ("process", "a", "b", "sigma_eps", "d")
    return params_from_dict({k: v for k, v in row.items() if k in keep})


class _InProcessPool:
    """Stands in for ProcessPoolExecutor or ThreadPoolExecutor: records each
    pool's size and maps in this thread, so no worker is ever started."""

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

    @pytest.fixture()
    def thread_pool_sizes(self, monkeypatch, pool_sizes):
        """Thread pools stand in like process pools; no thread is started."""
        sizes = []
        monkeypatch.setattr(
            harness, "ThreadPoolExecutor", lambda max_workers: _InProcessPool(sizes, max_workers)
        )
        return sizes

    def table1(self, replications, workers, sample_size=32):
        cfg = ExperimentConfig(
            experiment="table1", sample_size=sample_size, replications=replications, master_seed=2
        )
        return run_experiment(cfg, workers=workers)

    def test_one_pool_per_experiment(self, pool_sizes, any_work_forks):
        res = self.table1(replications=2, workers=2)
        assert pool_sizes == [2] and res.metadata["workers"] == 2
        assert len({row["cell"] for row in res.rows}) == 8

    def test_serial_builds_no_pool(self, pool_sizes, any_work_forks):
        assert self.table1(replications=2, workers=1).metadata["workers"] == 1
        assert pool_sizes == []

    @pytest.mark.parametrize("replications, expected", [(3, 24), (10, 64)])
    def test_pool_size_bounded(self, pool_sizes, any_work_forks, replications, expected):
        # 8 cells: the task count bounds the pool at 3 reps, the CPU count at 10
        res = self.table1(replications=replications, workers=10**9)
        assert pool_sizes == [expected] and res.metadata["workers"] == expected

    def test_small_run_builds_no_pool(self, pool_sizes):
        res = self.table1(replications=10, workers=10**9)
        assert pool_sizes == [] and res.metadata["workers"] == 1

    def test_work_bounds_the_pool(self, pool_sizes, monkeypatch):
        # 80 tasks of 32 samples, one process per 320 samples
        monkeypatch.setattr(harness, "_SAMPLES_PER_PROCESS", 320)
        res = self.table1(replications=10, workers=10**9)
        assert pool_sizes == [8] and res.metadata["workers"] == 8

    def test_thread_pool_size_bounded(self, pool_sizes, thread_pool_sizes):
        # 8 cells x 10 reps x 8192 samples is under two processes' work; the
        # CPU count bounds the threads, and the calling thread is one of them
        before = threading.active_count()
        res = self.table1(replications=10, workers=10**9, sample_size=2**13)
        assert threading.active_count() == before
        assert pool_sizes == [] and thread_pool_sizes == [63]
        assert res.metadata["workers"] == 1 and res.metadata["threads"] == 64

    @pytest.mark.parametrize(
        "workers, sample_size",
        [(1, 2**13), (10**9, 2**13 - 1)],
        ids=["one_worker", "short_paths"],
    )
    def test_no_thread_pool(self, pool_sizes, thread_pool_sizes, workers, sample_size):
        res = self.table1(replications=2, workers=workers, sample_size=sample_size)
        assert pool_sizes == [] and thread_pool_sizes == []
        assert res.metadata["workers"] == 1 and res.metadata["threads"] == 1

    def test_process_pool_builds_no_thread_pool(self, pool_sizes, thread_pool_sizes, any_work_forks):
        res = self.table1(replications=2, workers=2, sample_size=2**13)
        assert pool_sizes == [2] and thread_pool_sizes == []
        assert res.metadata["workers"] == 2 and res.metadata["threads"] == 1

    @pytest.mark.parametrize("replications, forks", [(16, False), (79, False), (80, True)])
    def test_threads_until_their_break_even(self, pool_sizes, thread_pool_sizes, monkeypatch, replications, forks):
        # 8 cells of 8192-sample paths: 16 reps (1.05e6 samples) would fork
        # against one process; against threads 79 reps (5.18e6) do not and
        # 80 reps (5.24e6) do
        monkeypatch.setattr(harness, "_replicate", lambda task: 0.0)
        res = self.table1(replications=replications, workers=2, sample_size=2**13)
        assert (pool_sizes, thread_pool_sizes) == (([2], []) if forks else ([], [1]))
        assert (res.metadata["workers"], res.metadata["threads"]) == ((2, 1) if forks else (1, 2))

    @pytest.mark.parametrize(
        "workers, tasks, sample_size, cpus, expected",
        [
            (2, 8 * 4, 10_000, 2, 1),  # the table1 benchmark request: one process, two threads
            (2, 4 * 16, 4096, 2, 1),  # the mean-periodogram benchmark request: serial (T < 2**13)
            (2, 8 * 1000, 4096, 2, 2),  # desk-scale table1
            (10**9, 8 * 1000, 4096, 64, 62),  # work-bound
            (10**9, 10**6, 10**4, 64, 64),  # CPU-bound
            (10**9, 3, 10**9, 64, 3),  # task-bound
            (1, 10**6, 10**4, 64, 1),  # worker-bound
            (0, 10**6, 10**4, 64, 1),
            (10**9, 10**6, 10**4, None, 1),  # CPU count unknown
            (64, 2 * harness._SAMPLES_PER_PROCESS - 1, 1, 64, 1),  # just below two processes' work
            (64, 2 * harness._SAMPLES_PER_PROCESS, 1, 64, 2),
            (64, 3 * harness._SAMPLES_PER_PROCESS, 1, 64, 3),
            (64, 2 * harness._SAMPLES_PER_PROCESS_OVER_THREADS // 2**13 - 1, 2**13, 64, 1),  # paths that run on threads
            (64, 2 * harness._SAMPLES_PER_PROCESS_OVER_THREADS // 2**13, 2**13, 64, 2),
        ],
    )
    def test_pool_size(self, monkeypatch, workers, tasks, sample_size, cpus, expected):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        assert harness._pool_size(workers, tasks, sample_size) == expected


class TestThreads:
    """Replications on threads of one process, below the fork break-even."""

    @pytest.fixture()
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)

    @pytest.mark.parametrize("sample_size", [2**13, 10_000])
    @pytest.mark.parametrize("experiment", ["table1", "fig_mean_periodogram"])
    def test_rows_equal_across_schedules(self, two_cpus, monkeypatch, experiment, sample_size):
        cfg = ExperimentConfig(
            experiment=experiment, sample_size=sample_size, replications=2, master_seed=23
        )
        serial = run_experiment(cfg, workers=1)
        threaded = run_experiment(cfg, workers=2)
        monkeypatch.setattr(harness, "_SAMPLES_PER_PROCESS_OVER_THREADS", 1)  # force the process pool
        pooled = run_experiment(cfg, workers=2)
        assert threaded.metadata["workers"] == 1 and threaded.metadata["threads"] == 2
        assert pooled.metadata["workers"] == 2 and pooled.metadata["threads"] == 1
        assert serial.rows == threaded.rows == pooled.rows

    def test_no_thread_outlives_a_run(self, two_cpus):
        before = threading.active_count()
        cfg = ExperimentConfig(experiment="table1", sample_size=2**13, replications=2, master_seed=4)
        assert run_experiment(cfg, workers=2).metadata["threads"] == 2
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "grid, replications",
        [
            ((CsaParams(0.2, 1.6, sigma_eps=1e308),), 2),  # every share fails
            ((CsaParams(0.2, 1.6), CsaParams(0.2, 1.6, sigma_eps=1e308)), 1),  # only the helper's
        ],
        ids=["calling_thread", "helper_thread"],
    )
    def test_overflow_is_the_serial_error(self, two_cpus, grid, replications):
        cfg = ExperimentConfig(
            experiment="table1", sample_size=2**13, replications=replications, parameter_grid=grid
        )
        errors = []
        for workers in (1, 2):
            with pytest.raises(ValueError, match="overflows") as info:
                run_experiment(cfg, workers=workers)
            errors.append(str(info.value))
        assert errors[0] == errors[1] and "\n" not in errors[0]

    @pytest.mark.parametrize(
        "failing, first", [({3, 5, 8}, 3), ({4, 7}, 4), ({9}, 9)]
    )
    def test_first_failure_in_task_order_propagates(self, monkeypatch, failing, first):
        # share 0 holds tasks 0, 2, 4, ... and share 1 tasks 1, 3, 5, ...
        def replicate(task):
            if task in failing:
                raise ValueError(f"task {task}")
            return task

        monkeypatch.setattr(harness, "_replicate", replicate)
        with pytest.raises(ValueError, match=f"^task {first}$"):
            harness._replicate_threaded(list(range(10)), 2)

    @pytest.mark.parametrize("threads", [2, 3])
    def test_results_in_task_order(self, monkeypatch, threads):
        monkeypatch.setattr(harness, "_replicate", lambda task: -task)
        assert harness._replicate_threaded(list(range(10)), threads) == [-t for t in range(10)]


class TestWeightMemo:
    """Replications share each law's weights and their spectrum; rows do not
    depend on whether the memo starts empty or warm."""

    @staticmethod
    def _clear():
        model._shared_weights.cache_clear()
        spectral._spectra.clear()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("experiment", ["table1", "fig_mean_periodogram"])
    def test_rows_equal_cleared_and_warm(self, monkeypatch, experiment, workers):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        cfg = ExperimentConfig(experiment=experiment, sample_size=2**13, replications=2, master_seed=31)
        self._clear()
        cleared = run_experiment(cfg, workers=workers)
        made = model._shared_weights.cache_info().misses
        warm = run_experiment(cfg, workers=workers)
        assert cleared.metadata["threads"] == warm.metadata["threads"] == workers
        assert cleared.rows == warm.rows
        # the first run made each law's weights once, threaded or not; the
        # warm run made none
        assert made == len(harness._MONTE_CARLO[experiment][0](cfg))
        assert model._shared_weights.cache_info().misses == made

    def test_memory_bounded_over_a_20_law_grid(self):
        grid = tuple(CsaParams(0.2, 1.1 + 0.1 * k) for k in range(10)) + tuple(
            FracParams(-0.45 + 0.1 * k) for k in range(10)
        )
        cfg = ExperimentConfig(experiment="table1", sample_size=256, replications=3, parameter_grid=grid)
        self._clear()
        run_experiment(cfg, workers=1)
        info = model._shared_weights.cache_info()
        assert info.misses == 20 and info.currsize == model._WEIGHT_MEMO_SIZE
        assert len(spectral._spectra) == spectral._SPECTRUM_CACHE_SIZE
        spectrum_bytes = 8 * (spectral._fft_length(256) + 2)
        assert sum(s.nbytes for _, s in spectral._spectra.values()) == spectral._SPECTRUM_CACHE_SIZE * spectrum_bytes


class _Unprintable:
    def __str__(self):
        raise RuntimeError("no text")


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

    def test_golden_bytes(self, tmp_path, monkeypatch):
        # 5 rows in blocks of 2; each column tests one formatting rule
        monkeypatch.setattr(harness, "_CSV_BLOCK_ROWS", 2)
        rows = [
            {"f": 0.1, "i": 3, "s": "x", "mix": 1, "zero": 0.0, "np": np.float64(0.25)},
            {"f": 1e-300, "i": -7, "s": "y z", "mix": 1.0, "zero": -0.0, "np": np.int64(4), "b": True},
            {"f": None, "i": None, "mix": True, "zero": float("nan"), "np": None, "b": False},
            {"f": 2.5, "i": 10**20, "s": "", "zero": float("inf"), "b": None},
            {"f": 0.1, "i": 3, "s": "x", "mix": 1, "zero": -float("inf"), "np": np.float64(-0.0)},
        ]
        path = tmp_path / "g.csv"
        harness.write_rows(path, {"b": 1, "a": [0.5, None]}, rows)
        assert path.read_bytes() == (
            b'# {"a": [0.5, null], "b": 1}\n'
            b"f,i,s,mix,zero,np,b\n"
            b"0.1,3,x,1,0.0,0.25,\n"
            b"1e-300,-7,y z,1.0,-0.0,4,True\n"
            b",,,True,nan,,False\n"
            b"2.5,100000000000000000000,,,inf,,\n"
            b"0.1,3,x,1,-inf,-0.0,\n"
        )

    def test_rows_across_blocks(self, tmp_path):
        n = 2 * harness._CSV_BLOCK_ROWS + 3
        rows = [{"k": k, "half": k / 2} for k in range(n)]
        path = tmp_path / "b.csv"
        harness.write_rows(path, {}, rows)
        expected = "# {}\nk,half\n" + "".join(f"{k},{k / 2!r}\n" for k in range(n))
        assert path.read_text() == expected

    def test_no_rows_and_no_keys(self, tmp_path):
        harness.write_rows(tmp_path / "a.csv", {}, [])
        harness.write_rows(tmp_path / "b.csv", {}, [{}, {}])
        assert (tmp_path / "a.csv").read_text() == "# {}\n\n"
        assert (tmp_path / "b.csv").read_text() == "# {}\n\n\n\n"

    @pytest.mark.parametrize(
        "metadata, rows",
        [({"x": object()}, [{"v": 1.0}]), ({}, [{"v": 1.0}, {"v": _Unprintable()}])],
    )
    def test_failed_write_leaves_no_temp_file(self, tmp_path, metadata, rows):
        path = tmp_path / "a.csv"
        path.write_text("old\n")
        with pytest.raises((TypeError, RuntimeError)):
            harness.write_rows(path, metadata, rows)
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]
        assert path.read_text() == "old\n"


def _expanded(rows):
    """One dict per CSV line, made without the writer: each list field
    indexed line by line; a row with empty lists has no line."""
    out = []
    for row in rows:
        lengths = {len(v) for v in row.values() if isinstance(v, list)}
        n = lengths.pop() if lengths else 1
        out.extend({k: v[i] if isinstance(v, list) else v for k, v in row.items()} for i in range(n))
    return out


_CELL = st.none() | st.booleans() | st.integers() | st.floats() | st.text(alphabet="xy z", max_size=3)
_SEGMENT = st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.dictionaries(
        st.sampled_from("abcde"), _CELL | st.lists(_CELL, min_size=n, max_size=n), max_size=4
    )
)


class TestSegments:
    """`write_rows` rows whose list fields are columns over several lines."""

    def test_golden_bytes(self, tmp_path, monkeypatch):
        # the rows of TestResultWriters.test_golden_bytes, as two segments
        # that each span a block boundary
        monkeypatch.setattr(harness, "_CSV_BLOCK_ROWS", 2)
        segments = [
            {
                "f": [0.1, 1e-300, None],
                "i": [3, -7, None],
                "s": ["x", "y z", None],
                "mix": [1, 1.0, True],
                "zero": [0.0, -0.0, float("nan")],
                "np": [np.float64(0.25), np.int64(4), None],
                "b": [None, True, False],
            },
            {
                "f": [2.5, 0.1],
                "i": [10**20, 3],
                "s": ["", "x"],
                "mix": [None, 1],
                "zero": [float("inf"), -float("inf")],
                "np": [None, np.float64(-0.0)],
                "b": None,
            },
        ]
        path = tmp_path / "g.csv"
        harness.write_rows(path, {"b": 1, "a": [0.5, None]}, segments)
        assert path.read_bytes() == (
            b'# {"a": [0.5, null], "b": 1}\n'
            b"f,i,s,mix,zero,np,b\n"
            b"0.1,3,x,1,0.0,0.25,\n"
            b"1e-300,-7,y z,1.0,-0.0,4,True\n"
            b",,,True,nan,,False\n"
            b"2.5,100000000000000000000,,,inf,,\n"
            b"0.1,3,x,1,-inf,-0.0,\n"
        )

    def test_constant_cells(self, tmp_path):
        segment = {
            "none": None,
            "neg": -0.0,
            "nan": float("nan"),
            "inf": -float("inf"),
            "npf": np.float64(0.25),
            "npi": np.int64(4),
            "flag": True,
            "mix": [1, 1.0, True, np.float64(-0.0)],
        }
        path = tmp_path / "c.csv"
        harness.write_rows(path, {}, [segment])
        assert path.read_text() == "# {}\nnone,neg,nan,inf,npf,npi,flag,mix\n" + "".join(
            f",-0.0,nan,-inf,0.25,4,True,{cell}\n" for cell in ("1", "1.0", "True", "-0.0")
        )

    def test_unequal_lists_raise_one_line(self, tmp_path):
        with pytest.raises(ValueError, match=r"^the list fields of a row differ in length: a \(2\), b \(1\)$"):
            harness.write_rows(tmp_path / "u.csv", {}, [{"k": 0}, {"a": [1, 2], "c": 3, "b": [1]}])
        assert list(tmp_path.iterdir()) == []

    def test_empty_segment_adds_no_key(self, tmp_path):
        path = tmp_path / "e.csv"
        harness.write_rows(path, {}, [{"a": 1}, {"b": [], "c": 2}, {"d": [5]}])
        assert path.read_text() == "# {}\na,d\n1,\n,5\n"

    def test_segment_spans_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_CSV_BLOCK_ROWS", 2)
        chunks = []
        write = harness._atomic_write

        def recording(path, blocks):
            chunks.extend(blocks)
            write(path, chunks)

        monkeypatch.setattr(harness, "_atomic_write", recording)
        path = tmp_path / "s.csv"
        harness.write_rows(path, {}, [{"k": [0, 1, 2, 3, 4], "c": "x"}, {"k": 5, "c": "y"}])
        assert chunks == ["# {}\nk,c\n", "0,x\n1,x\n", "2,x\n3,x\n", "4,x\n5,y\n"]
        assert path.read_text() == "".join(chunks)

    def test_rows_and_segments_mixed(self, tmp_path):
        freqs = [0.5, 0.25, 0.125]  # one list shared by two segments
        rows = [
            {"cell": 0, "x": 1.5},
            {"cell": 1, "f": freqs, "v": [1, 2.0, None], "tag": "a"},
            {"cell": 2, "f": freqs, "v": [np.float64(3), -0.0, True]},
            {"tag": "b"},
            {"cell": 3, "f": [], "z": 1},
        ]
        harness.write_rows(tmp_path / "seg.csv", {"m": 1}, rows)
        harness.write_rows(tmp_path / "rows.csv", {"m": 1}, _expanded(rows))
        text = (tmp_path / "seg.csv").read_text()
        assert text == (tmp_path / "rows.csv").read_text()
        assert text.splitlines()[1:4] == ["cell,x,f,v,tag", "0,1.5,,,", "1,,0.5,1,a"]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_SEGMENT, max_size=5))
    def test_segments_write_their_rows(self, segments):
        with tempfile.TemporaryDirectory() as tmp:
            seg, rows = os.path.join(tmp, "seg.csv"), os.path.join(tmp, "rows.csv")
            harness.write_rows(seg, {}, segments)
            harness.write_rows(rows, {}, _expanded(segments))
            with open(seg, "rb") as a, open(rows, "rb") as b:
                assert a.read() == b.read()


# Experiments whose tables are written as multi-line segments
_SEGMENTED = {"table1", "fig_mean_periodogram", "fig_filter_match", "fig_acf_shortmem", "fig_antipersistence_acf"}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_csv_of_segments_is_csv_of_rows(tmp_path, experiment):
    """The table written from an experiment's segments is, byte for byte,
    the table of its `rows` written one dict per line."""
    cfg = ExperimentConfig(experiment=experiment, sample_size=64, replications=2, master_seed=3)
    res = run_experiment(cfg, workers=1)
    res.write_csv(tmp_path / "seg.csv")
    harness.write_rows(tmp_path / "rows.csv", res.metadata, res.rows)
    text = (tmp_path / "seg.csv").read_text()
    assert text == (tmp_path / "rows.csv").read_text()
    assert len(text.splitlines()) == 2 + len(res.rows)
    assert list(res.rows) == _expanded(res._segments)
    has_lists = any(isinstance(v, list) for segment in res._segments for v in segment.values())
    assert has_lists == (experiment in _SEGMENTED)
