"""Monte Carlo experiment runner.

Reproduces the GPH misspecification table (table1), the analytic AR and
fractional efficiency-loss tables (table2, table3) and the data behind the
figures, with deterministic index-derived seeding: the per-replication seed
is a pure function of (master_seed, cell index, replication index), so the
result is identical no matter how replications are scheduled across
worker processes or threads. A run whose replications raise raises what
the first failing replication, in task order, raised.
"""

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import __version__
from .estimate import gph_estimate, periodogram
from .fitloss import fit_ar_population, zeta_ar, zeta_fractional
from .model import CsaParams, FracParams, params_from_dict, params_to_dict
from .simulate import generate_csa_fast, generate_frac_fast

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "replication_seed",
]

EXPERIMENTS = (
    "table1",
    "table2",
    "table3",
    "fig_acf_shortmem",
    "fig_filter_match",
    "fig_antipersistence_acf",
    "fig_mean_periodogram",
    "fig_ar1_loss",
)

TABLE_A_GRID = (0.1, 0.5, 0.9, 1.3, 1.7)
TABLE_B_GRID = (1.8, 1.6, 1.4, 1.2, 1.1)
TABLE1_D_GRID = (0.4, 0.2, -0.2, -0.4)
CSA_ONLY = ("table2", "table3", "fig_acf_shortmem")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    sample_size: int = 4096
    replications: int = 1000
    master_seed: int = 20240817
    parameter_grid: tuple = ()  # empty: use the experiment's default grid

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        for name in ("sample_size", "replications", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.sample_size < 8:
            raise ValueError("sample_size must be >= 8")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if self.experiment in CSA_ONLY and not all(
            isinstance(p, CsaParams) for p in self.parameter_grid
        ):
            raise ValueError(f"{self.experiment} takes only csa parameter grid entries")
        if self.experiment == "table3" and not all(1.0 < p.b < 2.0 for p in self.parameter_grid):
            raise ValueError("table3 needs b in (1, 2) for every grid entry")

    @classmethod
    def from_file(cls, path):
        """Load from a JSON file.

        Schema: {"experiment": str, "sample_size": int, "replications": int,
        "master_seed": int, "parameter_grid": [{"process": "csa", "a": .., "b": ..,
        "sigma_eps": ..} | {"process": "frac", "d": ..}, ...]}; all keys but
        "experiment" are optional.
        """
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        grid = raw.pop("parameter_grid", [])
        if not isinstance(grid, list):
            raise ValueError(f"parameter_grid must be a list, got {grid!r}")
        return cls(parameter_grid=tuple(params_from_dict(entry) for entry in grid), **raw)

    def describe(self):
        out = {
            "experiment": self.experiment,
            "sample_size": self.sample_size,
            "replications": self.replications,
            "master_seed": self.master_seed,
            "parameter_grid": [params_to_dict(p) for p in self.parameter_grid],
        }
        return out


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple  # one dict per (cell, statistic)
    metadata: dict

    def write_csv(self, path):
        write_rows(path, self.metadata, self.rows)

    def write_json(self, path):
        payload = {"metadata": self.metadata, "rows": list(self.rows)}
        _atomic_write(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


# Rows formatted and written per block, so a large table never holds all of
# its CSV text at once.
_CSV_BLOCK_ROWS = 4096


def write_rows(path, metadata, rows):
    """Write dict rows as CSV: a `#`-prefixed JSON metadata line, a header
    with every key in first-seen order, then one line per row (a missing key
    is an empty cell). The file appears atomically."""
    keys = list(dict.fromkeys(chain.from_iterable(rows)))

    def blocks():
        yield "# " + json.dumps(metadata, sort_keys=True) + "\n" + ",".join(keys) + "\n"
        for start in range(0, len(rows), _CSV_BLOCK_ROWS):
            block = rows[start : start + _CSV_BLOCK_ROWS]
            if keys:
                columns = [_column_text([row.get(k) for row in block]) for k in keys]
                lines = map(",".join, zip(*columns))
            else:
                lines = [""] * len(block)
            yield "\n".join(lines) + "\n"

    _atomic_write(path, blocks())


# Exact types whose cells print as `_csv_cell` prints them, without its
# per-cell type checks.
_COLUMN_FORMAT = {float: float.__repr__, int: int.__repr__, str: str}


def _column_text(values):
    """The CSV cells of one column. A column of one exact type among float,
    int and str (with None gaps) formats each distinct value once with that
    type's own method; any other column, for instance one mixing 1, 1.0 and
    True or holding numpy scalars, goes cell by cell."""
    kinds = set(map(type, values))
    kinds.discard(type(None))
    fmt = _COLUMN_FORMAT.get(kinds.pop()) if len(kinds) == 1 else None
    if fmt is None:
        return list(map(_csv_cell, values))
    distinct = dict.fromkeys(values)
    if fmt is float.__repr__ and 0.0 in distinct:  # -0.0 == 0.0 but prints apart
        return ["" if v is None else fmt(v) for v in values]
    text = {v: "" if v is None else fmt(v) for v in distinct}
    return list(map(text.__getitem__, values))


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))  # plain digits, also for numpy float scalars
    return str(v)


def _atomic_write(path, chunks):
    """Write the text chunks to a temporary file, then rename it to `path`;
    on any failure the temporary file is removed."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def replication_seed(master_seed, cell_index, rep_index):
    """Seed sequence for one replication, independent of scheduling order."""
    return np.random.SeedSequence((master_seed, cell_index, rep_index))


def run_experiment(cfg, workers=None):
    """Run one configured experiment and return its full result.

    The replications of every Monte Carlo cell share one pool of at most
    `workers` processes, by default the CPU count. A run too small to pay
    for the fork (`_pool_size`) runs them in this process: on up to
    `workers` threads when each path has at least `_THREAD_MIN_SAMPLE_SIZE`
    samples, serially otherwise or with `workers` of one or fewer.
    Deterministic given the config; rows are emitted only once every cell
    finished, never partially. `metadata["workers"]` is the number of
    processes the run used and `metadata["threads"]` the number of threads
    that ran replications.
    """
    t0 = time.perf_counter()
    if workers is None:
        workers = os.cpu_count() or 1
    if cfg.experiment in _MONTE_CARLO:
        grid_of, statistic, rows_of = _MONTE_CARLO[cfg.experiment]
        grid = grid_of(cfg)
        per_cell, processes, threads = _replicate_cells(cfg, grid, statistic, workers)
        rows = rows_of(cfg, grid, per_cell)
    else:
        rows, processes, threads = _ANALYTIC[cfg.experiment](cfg), 1, 1
    metadata = {
        "config": cfg.describe(),
        "wall_seconds": round(time.perf_counter() - t0, 3),
        "version": __version__,
        "workers": processes,
        "threads": threads,
    }
    return ExperimentResult(rows=tuple(rows), metadata=metadata)


# ---------------------------------------------------------------------------
# table 1: GPH estimates on simulated CSA and I(d) paths


def _table1_grid(cfg):
    return cfg.parameter_grid or tuple(
        p for d in TABLE1_D_GRID for p in (CsaParams(a=0.2, b=2.0 * (1.0 - d)), FracParams(d=d))
    )


def _d_hat(x):
    return gph_estimate(x).d_hat


def _ordinates(x):
    # a finite path can overflow its periodogram; `_mean_periodogram_rows` says so
    with np.errstate(over="ignore", invalid="ignore"):
        return periodogram(x).ordinates


def _replicate(task):
    """One replication: draw the cell's path from its own seed, apply the
    statistic (a module-level function, so the task pickles)."""
    statistic, master_seed, cell_index, rep_index, params, sample_size = task
    seed = replication_seed(master_seed, cell_index, rep_index)
    generate = generate_csa_fast if isinstance(params, CsaParams) else generate_frac_fast
    return statistic(generate(params, sample_size, seed).values)


# Samples (replications x T) of work per worker process. Measured on 2
# CPUs: a replication costs ~95-120 ns per sample, a 2-process pool adds
# ~25-40 ms to a run, and two processes overtake one near 5.5e5 samples.
# The bound sits at that break-even, so two processes start at twice it,
# 1.05e6 samples, where they ran 10-30% faster; smaller runs stay serial.
_SAMPLES_PER_PROCESS = 2**19


def _pool_size(workers, tasks, sample_size):
    """Processes for `tasks` replications of `sample_size` samples each:
    at most `workers`, the task count, the CPU count and one per
    `_SAMPLES_PER_PROCESS` samples of work, and at least one."""
    by_work = tasks * sample_size // _SAMPLES_PER_PROCESS
    return max(1, min(workers, tasks, os.cpu_count() or 1, by_work))


# Samples per path from which a run below the fork break-even spreads its
# replications over threads. numpy's FFTs release the GIL and are about 70%
# of a T = 10 000 replication (four real FFTs, ~850 of ~1260 us). Measured on
# 2 CPUs, 15 alternating rounds, threads over serial for table1 and
# fig_mean_periodogram: x0.94 and x0.62 at T = 1024, x1.05 and x1.08 at 2048,
# x1.28 and x1.37 at 4096, x1.33 and x1.42 at 8192, x1.73 and x1.68 at
# 10 000. At T = 4096 the gain did not reach a whole fig_mean_periodogram
# request with its CSV write (ops/s x0.91-1.03), so the bound is 2**13.
# Each extra thread adds a malloc arena (~1 MB of peak RSS at T = 10 000),
# so the calling thread runs a share itself.
_THREAD_MIN_SAMPLE_SIZE = 2**13


def _replicate_cells(cfg, grid, statistic, workers):
    """The statistic of every replication of every cell, as one list per
    cell in replication order, and the numbers of processes and of threads
    that ran them.

    With more than one process (`_pool_size`), all (cell, replication)
    tasks go through one pool: the fork start method launches every worker
    up front, so an unused one is pure start-up cost. Below that, paths of
    at least `_THREAD_MIN_SAMPLE_SIZE` samples run on min(workers, tasks,
    CPUs) threads of this process.
    """
    tasks = [
        (statistic, cfg.master_seed, cell_index, r, params, cfg.sample_size)
        for cell_index, params in enumerate(grid)
        for r in range(cfg.replications)
    ]
    processes = _pool_size(workers, len(tasks), cfg.sample_size)
    threads = 1
    if processes == 1 and cfg.sample_size >= _THREAD_MIN_SAMPLE_SIZE:
        threads = max(1, min(workers, len(tasks), os.cpu_count() or 1))
    if processes > 1:
        chunk = max(1, len(tasks) // (processes * 8))
        with ProcessPoolExecutor(max_workers=processes) as pool:
            results = list(pool.map(_replicate, tasks, chunksize=chunk))
    elif threads > 1:
        results = _replicate_threaded(tasks, threads)
    else:
        results = [_replicate(t) for t in tasks]
    reps = cfg.replications
    return [results[i : i + reps] for i in range(0, len(results), reps)], processes, threads


def _replicate_share(tasks):
    """`_replicate` over `tasks` in order up to the first that raises: the
    results before it and its exception (None when every task ran)."""
    results = []
    try:
        for task in tasks:
            results.append(_replicate(task))
    except Exception as exc:  # re-raised by `_replicate_threaded` if it came first
        return results, exc
    return results, None


def _replicate_threaded(tasks, threads):
    """`_replicate` of every task, in task order, on `threads` threads.

    Share k holds tasks k, k + threads, k + 2 threads, ...; the calling
    thread runs share 0 and a pool of threads - 1 the others, and the pool
    is joined before this returns. If tasks raise, the exception of the
    first of them in task order propagates, as in a serial run.
    """
    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        others = pool.map(_replicate_share, [tasks[k::threads] for k in range(1, threads)])
        shares = [_replicate_share(tasks[::threads]), *others]
    failures = [
        (k + threads * len(done), exc) for k, (done, exc) in enumerate(shares) if exc is not None
    ]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(tasks)
    for k, (done, _) in enumerate(shares):
        results[k::threads] = done
    return results


def _table1_rows(cfg, grid, per_cell):
    rows = []
    for cell_index, (params, d_hats) in enumerate(zip(grid, per_cell)):
        d_hats = np.array(d_hats)
        stats = {
            "mean_d_hat": float(d_hats.mean()),
            "sd_d_hat": float(d_hats.std(ddof=1)) if d_hats.size > 1 else 0.0,
            "count": d_hats.size,
        }
        base = params_to_dict(params)
        for stat, value in stats.items():
            rows.append({"cell": cell_index, **base, "nominal_d": params.memory_d, "statistic": stat, "value": value})
    return rows


# ---------------------------------------------------------------------------
# tables 2 and 3: analytic efficiency-loss grids


def _csa_grid(cfg):
    return cfg.parameter_grid or tuple(
        CsaParams(a=a, b=b) for a in TABLE_A_GRID for b in TABLE_B_GRID
    )


def _run_table2(cfg):
    rows = []
    for cell_index, p in enumerate(_csa_grid(cfg)):
        for order in (1, 20):
            coeffs = fit_ar_population(p, order)
            rows.append(
                {
                    "cell": cell_index,
                    "a": p.a,
                    "b": p.b,
                    "statistic": f"zeta_ar{order}",
                    "value": zeta_ar(p, coeffs),
                }
            )
    return rows


def _run_table3(cfg):
    rows = []
    for cell_index, p in enumerate(_csa_grid(cfg)):
        pure, arfima = zeta_fractional(p)
        for stat, value in (
            ("zeta_id", pure.zeta),
            ("zeta_arfima", arfima.zeta),
            ("alpha_i", arfima.fitted_params[0]),
        ):
            rows.append(
                {"cell": cell_index, "a": p.a, "b": p.b, "statistic": stat, "value": value}
            )
    return rows


# ---------------------------------------------------------------------------
# figure data


def _run_fig_acf_shortmem(cfg):
    grid = cfg.parameter_grid or tuple(
        CsaParams(a=a, b=1.6) for a in (0.1, 0.5, 1.0, 2.0)
    )
    lags = 50
    rows = []
    for cell_index, p in enumerate(grid):
        for lag, value in enumerate(p.acf(lags)):
            rows.append(
                {
                    "cell": cell_index,
                    "a": p.a,
                    "b": p.b,
                    "lag": lag,
                    "statistic": "acf",
                    "value": float(value),
                }
            )
    return rows


def _sample_acf(x, max_lag):
    x = x - x.mean()
    denom = float(np.dot(x, x))
    return np.array(
        [float(np.dot(x[k:], x[: x.size - k])) / denom for k in range(max_lag + 1)]
    )


def _run_fig_filter_match(cfg):
    # one shared innovation stream filtered by both mechanisms
    frac = FracParams(d=0.2)
    csa = CsaParams(a=0.12, b=1.6)
    T = cfg.sample_size
    seed = replication_seed(cfg.master_seed, 0, 0)
    eps = np.random.default_rng(seed).standard_normal(T)
    series = {
        "frac": generate_frac_fast(frac, T, seed, innovations=eps).values,
        "csa": generate_csa_fast(csa, T, seed, innovations=eps).values,
    }
    rows = []
    for name, values in series.items():
        for t, v in enumerate(values):
            rows.append({"series": name, "index": t, "statistic": "value", "value": float(v)})
        for lag, v in enumerate(_sample_acf(values, 50)):
            rows.append({"series": name, "index": lag, "statistic": "sample_acf", "value": float(v)})
    return rows


def _run_fig_antipersistence_acf(cfg):
    grid = cfg.parameter_grid or (FracParams(d=-0.2), CsaParams(a=0.09, b=2.4))
    lags = 110
    rows = []
    for cell_index, p in enumerate(grid):
        base = params_to_dict(p)
        for lag, value in enumerate(p.acf(lags)):
            rows.append(
                {"cell": cell_index, **base, "lag": lag, "statistic": "acf", "value": float(value)}
            )
    return rows


def _mean_periodogram_grid(cfg):
    return cfg.parameter_grid or tuple(
        p
        for d in (0.4, -0.4)
        for p in (FracParams(d=d), CsaParams(a=0.2, b=2.0 * (1.0 - d)))
    )


def _mean_periodogram_rows(cfg, grid, per_cell):
    m = (cfg.sample_size - 1) // 2
    freqs = (2.0 * np.pi * np.arange(1, m + 1) / cfg.sample_size).tolist()
    rows = []
    for cell_index, (params, ordinates) in enumerate(zip(grid, per_cell)):
        with np.errstate(over="ignore", invalid="ignore"):
            mean_pgram = np.mean(np.stack(ordinates), axis=0)
        if not np.isfinite(mean_pgram).all():
            raise ValueError(f"the mean periodogram of {params} overflows a float; use a smaller sigma")
        base = params_to_dict(params)
        rows.extend(
            {"cell": cell_index, **base, "frequency": freq, "statistic": "mean_periodogram", "value": value}
            for freq, value in zip(freqs, mean_pgram.tolist())
        )
    return rows


def _run_fig_ar1_loss(cfg):
    b_values = (1.8, 1.6, 1.4, 1.2)
    a_values = np.round(np.arange(0.05, 3.0001, 0.05), 2)
    rows = []
    for b in b_values:
        for a in a_values:
            p = CsaParams(a=float(a), b=b)
            alpha1 = float(fit_ar_population(p, 1)[0])
            rows.append({"a": float(a), "b": b, "statistic": "alpha_1", "value": alpha1})
            rows.append(
                {
                    "a": float(a),
                    "b": b,
                    "statistic": "zeta_ar1",
                    "value": zeta_ar(p, [alpha1]),
                }
            )
    return rows


# Monte Carlo experiments: (grid, statistic of one path, rows from the
# per-cell statistics); the replications of all cells run together.
_MONTE_CARLO = {
    "table1": (_table1_grid, _d_hat, _table1_rows),
    "fig_mean_periodogram": (_mean_periodogram_grid, _ordinates, _mean_periodogram_rows),
}

_ANALYTIC = {
    "table2": _run_table2,
    "table3": _run_table3,
    "fig_acf_shortmem": _run_fig_acf_shortmem,
    "fig_filter_match": _run_fig_filter_match,
    "fig_antipersistence_acf": _run_fig_antipersistence_acf,
    "fig_ar1_loss": _run_fig_ar1_loss,
}
