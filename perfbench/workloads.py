"""The four benchmark workloads.

Each workload turns ``--seed`` into the inputs of its requests, sends one
request through nonfrac's public functions and checks the output. Calls go
through module attributes (``harness.run_experiment``) so that a tracer
installed on those modules sees them.
"""

import math
import os

import numpy as np

from nonfrac import forecast, harness, model, simulate

import reference


def _request_seed(seed, i):
    """Master seed of request ``i``: a pure function of the workload seed."""
    return int(np.random.SeedSequence((seed, i)).generate_state(1)[0])


def _finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


class Workload:
    """A closed loop of requests made from one seed.

    ``inputs(i)`` makes the inputs of request ``i``, ``request`` sends them to
    the program, ``check`` lists what is wrong with one output and ``finish``
    runs the checks that need every output of the run; it returns the
    operations it fails and a problem for each failing group.
    """

    name = ""
    workers = 1  # pool workers of the untraced run

    def __init__(self, seed, outdir):
        self.seed = seed
        self.outdir = outdir

    def ops(self, inp):
        return 1

    def finish(self):
        return 0, []

    def digest(self, output):
        """A string that changes with any bit of the output."""
        return repr(output)


class _Experiment(Workload):
    """One ``run_experiment`` call plus ``write_csv`` of its result."""

    experiment = ""
    sample_size = 0
    replications = 0
    cells = 0

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self.workers = min(2, os.cpu_count() or 1)
        self.csv_path = os.path.join(outdir, f"{self.name}.csv")

    def inputs(self, i):
        return harness.ExperimentConfig(
            experiment=self.experiment,
            sample_size=self.sample_size,
            replications=self.replications,
            master_seed=_request_seed(self.seed, i),
        )

    def ops(self, inp):
        return self.cells * inp.replications

    def request(self, inp, workers):
        result = harness.run_experiment(inp, workers=workers)
        result.write_csv(self.csv_path)
        return result.rows


class McGph(_Experiment):
    name = "mc_gph_T10000"
    experiment = "table1"
    sample_size = 10_000
    replications = 4
    cells = 8

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self.pooled = {}  # (process, nominal d) -> [count, sum, sum of squares]

    def check(self, inp, rows):
        problems = []
        stats = {}
        for row in rows:
            stats.setdefault((row["process"], row["nominal_d"]), {})[row["statistic"]] = row["value"]
        if len(stats) != self.cells:
            problems.append(f"{len(stats)} cells, expected {self.cells}")
        for key, s in stats.items():
            mean, sd, n = s.get("mean_d_hat"), s.get("sd_d_hat"), s.get("count")
            if not (_finite(mean) and _finite(sd)) or n != inp.replications:
                problems.append(f"cell {key}: mean {mean}, sd {sd}, count {n}")
        if not problems:  # only passing requests feed the run-level check
            for key, s in stats.items():
                n, mean, sd = s["count"], s["mean_d_hat"], s["sd_d_hat"]
                acc = self.pooled.setdefault(key, [0, 0.0, 0.0])
                acc[0] += n
                acc[1] += n * mean
                acc[2] += (n - 1) * sd * sd + n * mean * mean
        return problems

    def finish(self):
        """Each I(d) cell's pooled mean lies near its nominal d."""
        failed, problems = 0, []
        for (process, d), (n, total, squares) in self.pooled.items():
            if process != "frac" or n < 2:
                continue
            mean = total / n
            se = math.sqrt(max(squares - n * mean * mean, 0.0) / (n - 1) / n)
            tol = reference.GPH_SE_MULTIPLE * se + reference.GPH_BIAS_ALLOWANCE
            if not abs(mean - d) <= tol:
                failed += n
                problems.append(f"I(d={d}) pooled mean {mean:.4f} over {n} reps, tolerance {tol:.4f}")
        return failed, problems


class McPgram(_Experiment):
    name = "mc_pgram_T4096"
    experiment = "fig_mean_periodogram"
    sample_size = 4096
    replications = 16
    cells = 4

    def check(self, inp, rows):
        values = np.array([row["value"] for row in rows])
        expected = self.cells * ((self.sample_size - 1) // 2)
        problems = []
        if values.size != expected:
            problems.append(f"{values.size} ordinates, expected {expected}")
        if not (np.all(np.isfinite(values)) and np.all(values > 0)):
            problems.append("non-finite or non-positive mean periodogram ordinate")
        return problems


class Forecast(Workload):
    name = "forecast_T10000"
    sample_size = 10_000
    horizon = 20
    paths = 4

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self.params = model.CsaParams(0.2, 1.6)
        self.series = [
            simulate.generate_csa_fast(self.params, self.sample_size, np.random.SeedSequence((seed, k))).values
            for k in range(self.paths)
        ]

    def inputs(self, i):
        return self.series[i % self.paths]

    def request(self, inp, workers):
        return forecast.forecast_csa(inp, self.params, self.horizon)

    def check(self, inp, out):
        problems = []
        if not out.reconstruction_error <= 1e-8:
            problems.append(f"reconstruction error {out.reconstruction_error:.3g} > 1e-8")
        fc = out.point_forecasts
        if fc.shape != (self.horizon,) or not np.all(np.isfinite(fc)):
            problems.append("forecasts are not finite or have the wrong length")
        return problems

    def digest(self, out):
        return repr((out.point_forecasts.tobytes(), out.innovations.tobytes(), out.reconstruction_error))


class AnalyticTables(Workload):
    """table2 + table3 + fig_ar1_loss; the seed orders the (a, b) grid."""

    name = "analytic_tables"

    def inputs(self, i):
        grid = [model.CsaParams(a, b) for a in reference.A_GRID for b in reference.B_GRID]
        order = np.random.default_rng((self.seed, i)).permutation(len(grid))
        return tuple(grid[k] for k in order)

    def request(self, grid, workers):
        return tuple(
            harness.run_experiment(harness.ExperimentConfig(experiment=e, parameter_grid=grid), workers=1).rows
            for e in ("table2", "table3", "fig_ar1_loss")
        )

    def check(self, grid, out):
        table2, table3, fig = out
        problems = []
        for rows, printed in ((table2, reference.TABLE2), (table3, reference.TABLE3)):
            seen = 0
            for row in rows:
                if row["statistic"] not in printed:
                    continue
                values, tol = printed[row["statistic"]]
                want = values[reference.A_GRID.index(row["a"])][reference.B_GRID.index(row["b"])]
                seen += 1
                if not abs(row["value"] - want) <= tol:
                    problems.append(f"{row['statistic']} a={row['a']} b={row['b']}: {row['value']:.4f} vs {want}")
            if seen != len(printed) * len(grid):
                problems.append(f"{seen} printed values matched, expected {len(printed) * len(grid)}")
        zetas = [r["value"] for r in fig if r["statistic"] == "zeta_ar1"]
        alphas = [r["value"] for r in fig if r["statistic"] == "alpha_1"]
        if len(zetas) != 240 or len(alphas) != 240:
            problems.append(f"fig_ar1_loss has {len(zetas)} zeta and {len(alphas)} alpha rows, expected 240")
        if not all(_finite(z) and z >= 1.0 for z in zetas):
            problems.append("fig_ar1_loss zeta below 1 or not finite")
        if not all(_finite(a) and 0.0 < a < 1.0 for a in alphas):
            problems.append("fig_ar1_loss alpha_1 outside (0, 1)")
        return problems


WORKLOADS = {w.name: w for w in (McGph, McPgram, Forecast, AnalyticTables)}
