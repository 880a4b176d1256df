"""Command-line front end.

Data files are CSV with `.` decimals, a leading `#` comment line echoing the
full parameter set, and a single header row. Exit codes: 0 success, 2
usage/validation error, 1 runtime numerical failure. Output files are
written to a temporary name and atomically renamed.
"""

import math
from dataclasses import asdict

import click
import numpy as np

from .estimate import gph_estimate
from .fitloss import (
    best_matching_a,
    fit_ar_population,
    zeta_ar,
    zeta_fractional,
)
from .forecast import forecast_csa
from .harness import ExperimentConfig, run_experiment, write_rows
from .model import csa_aggregate_spectrum_at_zero, params_from_dict, params_to_dict
from .simulate import benchmark_generation, generate_csa_fast, generate_csa_naive, generate_frac_fast


def _read_column(path):
    values = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                token = line.split(",")[0]
                try:
                    value = float(token)
                except ValueError:
                    if lineno == 1 or (lineno == 2 and not values):
                        continue  # header row
                    raise click.UsageError(
                        f"{path}:{lineno}: cannot parse {token!r} as a number"
                    )
                if not math.isfinite(value):
                    raise click.UsageError(f"{path}:{lineno}: non-finite value {token!r}")
                values.append(value)
    except UnicodeDecodeError as exc:
        raise click.UsageError(f"{path}: not {exc.encoding} text") from None
    except OSError as exc:
        raise click.UsageError(f"{path}: cannot read: {exc.strerror or exc}") from None
    if not values:
        raise click.UsageError(f"{path}: no numeric data found")
    return np.asarray(values)


_MISSING = {
    "csa": "--a and --b are required for a CSA process",
    "frac": "--d is required for a fractional process",
}


def _params(process, **options):
    """The `process` params built from the options that were given (not
    None). Every given option goes to the dict constructor, so one that the
    process does not take is a usage error that names it."""
    given = {name: value for name, value in options.items() if value is not None}
    try:
        return params_from_dict({"process": process, **given})
    except TypeError:  # a required field was not given
        raise click.UsageError(_MISSING[process])


class _Command(click.Command):
    """A command whose library errors become exit codes: a ValueError is a
    usage error (exit 2), and a RuntimeError, ConvergenceError included, a
    numerical failure (exit 1). Click's own Exit and Abort pass through."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.exceptions.Exit, click.Abort):
            raise
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx) from None
        except RuntimeError as exc:
            raise click.ClickException(str(exc)) from None


@click.group()
@click.version_option()
def main():
    """Long-memory generation, forecasting and analysis tools."""


main.command_class = _Command


@main.command()
@click.option("--process", type=click.Choice(["csa", "frac"]), required=True)
@click.option("--a", type=float, default=None, help="first Beta parameter (CSA)")
@click.option("--b", type=float, default=None, help="second Beta parameter (CSA)")
@click.option("--d", type=float, default=None, help="memory parameter (frac)")
@click.option("--sigma", type=float, default=None, help="innovation std deviation (CSA; default 1)")
@click.option("--length", "-T", "length", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--method", type=click.Choice(["fast", "naive"]), default="fast", show_default=True)
@click.option("--units", type=int, default=None, help="cross-sectional units (naive; default T)")
@click.option("--burnin", type=int, default=None, help="warm-up steps (naive; default max(2000, T))")
@click.option("--out", type=click.Path(), required=True)
def simulate(process, a, b, d, sigma, length, seed, method, units, burnin, out):
    """Generate one sample path and write it as a one-column CSV."""
    if length < 1:
        raise click.UsageError(f"--length must be >= 1, got {length}")
    params = _params(process, a=a, b=b, d=d, sigma_eps=sigma)
    if method == "fast":
        for name, value in (("--units", units), ("--burnin", burnin)):
            if value is not None:
                raise click.UsageError(f"{name} applies only to --method naive")
    elif process == "frac":
        raise click.UsageError("--method naive applies only to --process csa")
    else:
        n_units = units if units is not None else length
        if n_units < 1:
            raise click.UsageError(f"--units must be >= 1, got {n_units}")
        if burnin is not None and burnin < 0:
            raise click.UsageError(f"--burnin must be >= 0, got {burnin}")
    if method == "naive":
        sample = generate_csa_naive(params, length, n_units, burn_in=burnin, seed=seed)
    elif process == "csa":
        sample = generate_csa_fast(params, length, seed)
    else:
        sample = generate_frac_fast(params, length, seed)
    meta = {
        "generator": sample.generator,
        "seed": seed,
        "length": length,
        **params_to_dict(params),
    }
    if sample.n_units is not None:
        meta["n_units"] = sample.n_units
    write_rows(out, meta, [{"value": v} for v in sample.values])


@main.command()
@click.option("--in", "infile", type=click.Path(exists=True), required=True)
@click.option("--a", type=float, required=True)
@click.option("--b", type=float, required=True)
@click.option("--sigma", type=float, default=None, help="innovation std deviation (default 1)")
@click.option("--horizon", "-h", type=int, required=True)
@click.option("--out", type=click.Path(), required=True)
def forecast(infile, a, b, sigma, horizon, out):
    """Minimum-MSE forecasts of a CSA series read from a one-column CSV."""
    params = _params("csa", a=a, b=b, sigma_eps=sigma)
    x = _read_column(infile)
    if horizon < 1:
        raise click.UsageError(f"--horizon must be >= 1, got {horizon}")
    if horizon > x.size:
        raise click.UsageError(f"--horizon {horizon} exceeds sample size {x.size}")
    result = forecast_csa(x, params, horizon)
    meta = {
        **params_to_dict(params),
        "horizon": horizon,
        "observations": int(x.size),
        "reconstruction_error": result.reconstruction_error,
    }
    write_rows(out, meta, [{"forecast": v} for v in result.point_forecasts])


@main.command()
@click.option("--process", type=click.Choice(["csa", "frac"]), required=True)
@click.option("--a", type=float, default=None)
@click.option("--b", type=float, default=None)
@click.option("--d", type=float, default=None)
@click.option("--max-lag", type=int, default=50, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def acf(process, a, b, d, max_lag, out):
    """Theoretical autocorrelation function up to --max-lag."""
    if max_lag < 0:
        raise click.UsageError(f"--max-lag must be >= 0, got {max_lag}")
    params = _params(process, a=a, b=b, d=d)
    values = params.acf(max_lag)
    meta = {**params_to_dict(params), "max_lag": max_lag}
    write_rows(out, meta, [{"acf": v} for v in values])


@main.command()
@click.option("--a", type=float, required=True)
@click.option("--b", type=float, required=True)
@click.option("--sigma", type=float, default=None, help="innovation std deviation (default 1)")
def spectrum(a, b, sigma):
    """Spectral density at the origin of the CSA(a, b) aggregate (requires b > 2)."""
    params = _params("csa", a=a, b=b, sigma_eps=sigma)
    click.echo(repr(csa_aggregate_spectrum_at_zero(params)))


@main.command()
@click.option("--in", "infile", type=click.Path(exists=True), required=True)
@click.option("--bandwidth", type=int, default=None, help="default floor(sqrt(T))")
def gph(infile, bandwidth):
    """GPH log-periodogram memory estimate of a series file."""
    x = _read_column(infile)
    if bandwidth is not None and bandwidth < 3:
        raise click.UsageError(f"--bandwidth must be >= 3, got {bandwidth}")
    est = gph_estimate(x, bandwidth=bandwidth)
    click.echo(f"d_hat={est.d_hat!r} std_error={est.std_error!r} bandwidth={est.bandwidth}")


@main.command()
@click.option("--a", type=float, required=True)
@click.option("--b", type=float, required=True)
@click.option("--model", type=click.Choice(["ar", "fractional"]), default="ar", show_default=True)
@click.option("--order", type=int, default=1, show_default=True, help="AR order")
def fit(a, b, model, order):
    """Population fit of a misspecified model to CSA(a, b), with its
    relative one-step forecast error variance."""
    params = _params("csa", a=a, b=b)
    if model == "ar":
        if order < 1:
            raise click.UsageError(f"--order must be >= 1, got {order}")
        coeffs = fit_ar_population(params, order)
        click.echo(
            f"model=ar({order}) zeta={zeta_ar(params, coeffs)!r} "
            f"coeffs={','.join(repr(float(c)) for c in coeffs)}"
        )
    else:
        if not 1.0 < b < 2.0:
            raise click.UsageError(
                f"fractional fits require b in (1, 2), got b={b}"
            )
        pure, arfima = zeta_fractional(params)
        click.echo(f"model=i(d) zeta={pure.zeta!r}")
        click.echo(
            f"model=arfima(1,d,0) zeta={arfima.zeta!r} alpha_i={arfima.fitted_params[0]!r}"
        )


@main.command()
@click.option("--k", type=int, required=True, help="number of lags to match")
@click.option("--d", type=float, required=True)
def match(k, d):
    """Best CSA(a, 2(1-d)) approximation to an I(d) autocorrelation."""
    if k < 1:
        raise click.UsageError(f"--k must be >= 1, got {k}")
    if not 0.0 < d < 0.5:
        raise click.UsageError(f"--d must lie in (0, 1/2), got {d}")
    a_star, loss = best_matching_a(k, d)
    click.echo(f"a_star={a_star!r} loss={loss!r} b={2.0 * (1.0 - d)!r}")


@main.command()
@click.option("--a", type=float, default=0.2, show_default=True)
@click.option("--b", type=float, default=1.6, show_default=True)
@click.option("--sizes", default="100,1000", show_default=True, help="comma-separated T values")
@click.option("--runs", type=int, default=5, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def benchmark(a, b, sizes, runs, out):
    """Wall-clock comparison of fast vs naive CSA generation (N = T)."""
    params = _params("csa", a=a, b=b)
    try:
        size_list = [int(s) for s in sizes.split(",") if s]
    except ValueError:
        raise click.UsageError(f"cannot parse --sizes {sizes!r}")
    if not size_list or any(s < 1 for s in size_list):
        raise click.UsageError("--sizes needs positive integers")
    if runs < 1:
        raise click.UsageError(f"--runs must be >= 1, got {runs}")
    rows = benchmark_generation(params, size_list, runs=runs)
    for r in rows:
        click.echo(
            f"T={r.T} N={r.n_units} fast={r.fast_seconds:.6f}s "
            f"naive={r.naive_seconds:.6f}s speedup={r.speedup:.1f}x"
        )
    if out:
        table = [{**asdict(r), "speedup": r.speedup} for r in rows]
        write_rows(out, {"a": a, "b": b, "runs": runs}, table)


@main.command()
@click.option("--table", "which", type=click.Choice(["1", "2", "3"]), required=True)
@click.option("--scale", type=click.Choice(["desk", "paper"]), default="desk", show_default=True)
@click.option("--seed", type=int, default=20240817, show_default=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--workers", type=int, default=None, help="default CPU count")
def table(which, scale, seed, out, workers):
    """Reproduce one of the efficiency-loss / misspecification tables."""
    kwargs = {"master_seed": seed}
    if which == "1":
        if scale == "paper":
            kwargs.update(sample_size=10_000, replications=10_000)
        else:
            kwargs.update(sample_size=4096, replications=1000)
    cfg = ExperimentConfig(experiment=f"table{which}", **kwargs)
    run_experiment(cfg, workers=workers).write_csv(out)


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out_prefix", type=click.Path(), required=True, help="output prefix for .csv and .json")
@click.option("--workers", type=int, default=None)
def experiment(config_path, out_prefix, workers):
    """Run an experiment described by a JSON config file."""
    try:
        cfg = ExperimentConfig.from_file(config_path)
    except (ValueError, TypeError) as exc:  # a JSONDecodeError is a ValueError
        raise click.UsageError(f"{config_path}: {exc}")
    result = run_experiment(cfg, workers=workers)
    result.write_csv(f"{out_prefix}.csv")
    result.write_json(f"{out_prefix}.json")


if __name__ == "__main__":
    main()
