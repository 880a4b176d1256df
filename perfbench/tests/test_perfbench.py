"""Tests of the benchmark's own arithmetic, failure counting and outputs.

    python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("harness.run_experiment", "harness", 0.0, 10.0, -1),
        Span("simulate.generate_csa_fast", "simulate", 1.0, 4.0, 0),
        Span("estimate.gph_estimate", "estimate", 3.0, 6.0, 0),  # overlaps its sibling
        Span("spectral.circular_convolve", "spectral", 2.0, 3.0, 1),
        Span("estimate.periodogram", "estimate", 5.5, 7.0, 2),  # runs past its parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 2.5, 1.0, 1.5])
    m = tracing.batch_metrics(spans)
    assert m["harness.self_s"] == pytest.approx(5.0)
    assert m["estimate.self_s"] == pytest.approx(4.0)
    assert m["estimate.calls"] == 2
    assert m["forecast.calls"] == 0 and m["forecast.self_s"] == 0


def test_self_p50_uses_self_time_and_duration_p50_does_not():
    spans = [
        Span("simulate.generate_frac_fast", "simulate", 0.0, 0.004, -1),
        Span("spectral.circular_convolve", "spectral", 0.001, 0.004, 0),
    ]
    samples = tracing.span_samples_ms([spans])
    assert samples["simulate.draw.p50_ms"] == pytest.approx([1.0])
    assert samples["spectral.convolve.p50_ms"] == pytest.approx([3.0])
    assert samples["forecast.recover_innovations.p50_ms"] == []


@pytest.mark.parametrize(
    "n, value, percentile",
    [(100, 90, 90.0), (20, 10, 50.0), (11, 1, 100 / 11), (10, 10, 100.0), (1, 1, 100.0)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, value, percentile):
    samples = list(range(n, 0, -1))  # order must not matter
    got, pct = run.tail_latency(samples)
    assert got == value
    assert pct == pytest.approx(percentile)
    if n > run.TAIL_BEYOND:
        assert sum(1 for s in samples if s > got) == run.TAIL_BEYOND


class FakeWorkload(workloads.Workload):
    name = "fake"

    def __init__(self, raise_on=(), fail_check_on=(), finish_fails=0):
        super().__init__(seed=0, outdir=".")
        self.raise_on, self.fail_check_on, self.finish_fails = raise_on, fail_check_on, finish_fails

    def inputs(self, i):
        return i

    def ops(self, inp):
        return 3

    def request(self, i, workers):
        if i in self.raise_on:
            raise FloatingPointError("forced")
        return i

    def check(self, i, out):
        return ["forced check failure"] if i in self.fail_check_on else []

    def finish(self):
        return self.finish_fails, ["forced run-level failure"] if self.finish_fails else []


def test_exceptions_and_failed_checks_are_counted_and_do_not_stop_the_run():
    w = FakeWorkload(raise_on={1}, fail_check_on={2})
    tally = run.Tally()
    outs = [run.call_checked(w, i, 1, tally, f"request {i}")[2] for i in range(4)]
    assert outs == [0, None, None, 3]
    assert (tally.attempted, tally.failed) == (12, 6)
    assert any("FloatingPointError: forced" in p for p in tally.problems)
    assert any("forced check failure" in p for p in tally.problems)


def test_closed_loop_leaves_failed_requests_out_of_latency():
    tally = run.Tally()
    latencies, failed_ms, done_ops, busy = run.closed_loop(FakeWorkload(raise_on={5}), 5, 0.0, tally)
    assert (latencies, len(failed_ms), done_ops, tally.attempted, tally.failed) == ([], 1, 0, 3, 3)
    assert busy >= 0


def test_closed_loop_adds_run_level_failures():
    tally = run.Tally()
    latencies, _, done_ops, _ = run.closed_loop(FakeWorkload(finish_fails=2), 0, 0.0, tally)
    assert (len(latencies), done_ops, tally.attempted, tally.failed) == (1, 3, 3, 2)
    assert tally.problems == ["forced run-level failure"]


def test_seed_changes_the_inputs(tmp_path):
    out = str(tmp_path)
    assert workloads.McGph(1, out).inputs(1) != workloads.McGph(2, out).inputs(1)
    assert workloads.McGph(1, out).inputs(1) != workloads.McGph(1, out).inputs(2)
    assert workloads.AnalyticTables(1, out).inputs(1) != workloads.AnalyticTables(2, out).inputs(1)
    a, b = workloads.Forecast(1, out), workloads.Forecast(2, out)
    assert not (a.inputs(0) == b.inputs(0)).all()


def test_tracing_keeps_outputs_and_puts_the_program_back():
    import nonfrac.harness as harness
    import nonfrac.simulate as simulate

    cfg = harness.ExperimentConfig("table1", sample_size=300, replications=2, master_seed=5)
    originals = (harness.gph_estimate, simulate.circular_convolve, harness.ExperimentResult.write_csv)
    plain = harness.run_experiment(cfg, workers=1).rows
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = harness.run_experiment(cfg, workers=1).rows
    assert repr(traced) == repr(plain)
    assert (harness.gph_estimate, simulate.circular_convolve, harness.ExperimentResult.write_csv) == originals
    m = tracing.batch_metrics(tracer.spans)
    assert m["model.ma_coeffs.calls"] == 16  # one per replication, 8 cells x 2
    assert m["estimate.calls"] == 32  # gph_estimate and its periodogram
    assert all(s.parent < i for i, s in enumerate(tracer.spans))


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[section]}


def test_seed_does_not_change_the_metric_names():
    names = []
    for seed in (1, 2):
        proc = _bench("--workload", "analytic_tables", "--seed", str(seed), "--seconds", "0.5", "--trace", "0")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        names.append(set(result["metrics"]))
    assert names[0] == names[1] == _declared("end_to_end")


def test_traced_run_reports_every_per_layer_metric():
    proc = _bench("--workload", "forecast_T10000", "--seed", "3", "--seconds", "0.5", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == _declared("per_layer")
    assert result["metrics"]["forecast.calls"]["value"] == 2  # forecast_csa and recover_innovations
    assert result["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "mc_gph_T10000", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
