"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run is split into SEGMENTS fresh interpreters, run one after another,
each measuring for S/SEGMENTS seconds: the speed of a process depends on
where its memory lands, so one process would carry that luck through the
whole run. Each segment pays its own set-up (imports, inputs, warm-up call),
which gives the set-up samples.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's context (machine, versions, sample counts, problems). With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones. See perfbench/README.md.
"""

import argparse
import os
import sys
import time

# Pinned before numpy loads, so that pool workers never oversubscribe the cores.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import json
import resource
import statistics
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("mc_gph_T10000", "mc_pgram_T4096", "forecast_T10000", "analytic_tables")
SEGMENTS = 4
SEGMENT_TIMEOUT_S = 150
SEGMENT_STRIDE = 10**6  # segment k sends requests k*SEGMENT_STRIDE + 0, 1, ...
TAIL_BEYOND = 10


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def tail_latency(samples):
    """The highest percentile that still has TAIL_BEYOND samples above it.

    Returns (value, percentile). The value is the (TAIL_BEYOND+1)-th largest
    sample; with too few samples it is the maximum, at percentile 100.
    """
    xs = sorted(samples)
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0
    k = len(xs) - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


# ---------------------------------------------------------------------------
# inside one segment


def import_program():
    """Import nonfrac from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "nonfrac", "__init__.py")):
        raise BenchmarkError(f"no nonfrac package under {SRC}")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    import nonfrac

    if os.path.dirname(os.path.dirname(os.path.abspath(nonfrac.__file__))) != SRC:
        raise BenchmarkError(f"nonfrac was imported from {nonfrac.__file__}, not {SRC}")


class Tally:
    """Attempted and failed operations, with one line per problem."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, ops, problems, label):
        self.attempted += ops
        if problems:
            self.failed += ops
            self.problems.extend(f"{label}: {p}" for p in problems[:3])


def call_checked(workload, i, workers, tally, label):
    """Send request ``i``; returns (seconds, operations, output), output None if it failed.

    An exception or a failed check counts the request's operations as
    failed and does not stop the run.
    """
    inp = workload.inputs(i)
    ops = workload.ops(inp)
    t0 = time.perf_counter()
    try:
        out = workload.request(inp, workers)
    except Exception as exc:  # the run goes on; the failure is counted
        seconds = time.perf_counter() - t0
        tally.add(ops, [f"{type(exc).__name__}: {exc}"], label)
        return seconds, ops, None
    seconds = time.perf_counter() - t0
    problems = workload.check(inp, out)
    tally.add(ops, problems, label)
    return seconds, ops, (None if problems else out)


def closed_loop(workload, first, seconds, tally):
    """One client sends requests ``first``, ``first+1``, ... back to back until ``seconds`` have passed.

    Returns per-operation latencies in ms of the requests that passed and of
    those that failed, the passing operation count and the seconds spent
    inside requests.
    """
    latencies_ms, failed_ms, busy, done_ops = [], [], 0.0, 0
    deadline = time.perf_counter() + seconds
    i = first
    while True:
        took, ops, out = call_checked(workload, i, workload.workers, tally, f"request {i}")
        busy += took
        if out is not None:
            done_ops += ops
            latencies_ms.append(1e3 * took / ops)
        else:
            failed_ms.append(1e3 * took / ops)
        i += 1
        if time.perf_counter() >= deadline:
            break
    failed, problems = workload.finish()
    tally.failed += failed
    tally.problems.extend(problems)
    return latencies_ms, failed_ms, done_ops, busy


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    """Peak resident set of this process plus that of its largest reaped child (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def environment(workload):
    import multiprocessing
    import platform

    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workers": workload.workers,
        "start_method": multiprocessing.get_start_method(),
        "thread_vars": {v: os.environ[v] for v in THREAD_VARS},
    }


def measure_untraced(workload, first, seconds, tally):
    latencies_ms, failed_ms, done_ops, busy = closed_loop(workload, first, seconds, tally)
    return {
        "latencies_ms": latencies_ms,
        "failed_ms": failed_ms,
        "done_ops": done_ops,
        "busy_s": busy,
        "peak_rss_mb": peak_rss_mb(),
    }


def measure_traced(workload, first, seconds, tally):
    """Untraced and traced copies of one batch (request ``first``), alternated until time is up.

    The untraced copy at the workload's worker count gives the CPU time; the
    untraced and traced copies at one worker give the tracing overhead, and
    all three outputs must agree bit for bit.
    """
    import tracing

    cpu, plain_s, traced_s, batches, per_batch = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        c0 = cpu_seconds()
        _, ops, reference_out = call_checked(workload, first, workload.workers, tally, "untraced")
        cpu.append(cpu_seconds() - c0)
        tracer = tracing.Tracer()
        for traced in (False, True) if len(batches) % 2 else (True, False):  # alternate which goes first
            if traced:
                with tracer.installed():
                    took, _, traced_out = call_checked(workload, first, 1, tally, "traced")
                traced_s.append(took)
            else:
                took, _, plain_out = call_checked(workload, first, 1, tally, "untraced, 1 worker")
                plain_s.append(took)
        batches.append(tracer.spans)
        per_batch.append(tracing.batch_metrics(tracer.spans))
        digests = {workload.digest(o) for o in (reference_out, plain_out, traced_out) if o is not None}
        if len(digests) > 1:
            tally.failed += ops
            tally.problems.append("traced and untraced outputs differ")
        if time.perf_counter() >= deadline:
            break
    with open(os.path.join(OUTDIR, f"spans-{workload.name}.jsonl"), "w") as fh:
        for span in batches[-1]:
            fh.write(json.dumps(span._asdict()) + "\n")
    return {
        "per_batch": per_batch,
        "samples_ms": tracing.span_samples_ms(batches),
        "cpu_s": cpu,
        "plain_s": plain_s,
        "traced_s": traced_s,
    }


def run_segment(args, started):
    """Set up, measure for --seconds, and print the raw samples as JSON."""
    import_program()
    import workloads

    os.makedirs(OUTDIR, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUTDIR)
    first = args.segment * SEGMENT_STRIDE
    tally = Tally()
    call_checked(workload, first, workload.workers, tally, "warm-up")
    if tally.failed:
        raise BenchmarkError("warm-up request failed: " + "; ".join(tally.problems))
    setup_s = time.perf_counter() - started
    tally = Tally()
    measure = measure_traced if args.trace else measure_untraced
    payload = measure(workload, first + 1, args.seconds, tally)
    payload.update(
        setup_s=setup_s,
        attempted=tally.attempted,
        failed=tally.failed,
        problems=tally.problems[:20],
        environment=environment(workload),
    )
    print(json.dumps(payload))


# ---------------------------------------------------------------------------
# the coordinating process


def run_segments(args):
    """Run the segments one after another; returns their payloads."""
    payloads = []
    for k in range(SEGMENTS):
        cmd = [
            sys.executable, os.path.abspath(__file__),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds / SEGMENTS), "--trace", str(args.trace),
            "--segment", str(k),
        ]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SEGMENT_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"segment {k} did not finish in {SEGMENT_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise BenchmarkError(f"segment {k} exited with {proc.returncode}: {proc.stderr.strip()[-800:]}")
        payloads.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return payloads


def end_to_end(payloads, attempted, failed):
    # latency of passing requests; only when none passed, that of the failed ones
    latencies = [x for p in payloads for x in p["latencies_ms"]] or [x for p in payloads for x in p["failed_ms"]]
    throughputs = [p["done_ops"] / p["busy_s"] if p["busy_s"] > 0 else 0.0 for p in payloads]
    tail, tail_pct = tail_latency(latencies)
    metrics = {
        "ops_per_s": (statistics.median(throughputs), "1/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_tail_ms": (tail, "ms"),
        "setup_s": (statistics.median(p["setup_s"] for p in payloads), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in payloads), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    context = {
        "latency_samples": len(latencies),
        "op_tail_percentile": round(tail_pct, 2),
        "fail_ratio": failed / attempted,
    }
    return metrics, context


def per_layer(payloads):
    per_batch = [b for p in payloads for b in p["per_batch"]]
    metrics = {}
    for key in per_batch[0]:
        if key.endswith(".calls"):
            metrics[key] = (statistics.median_low(b[key] for b in per_batch), "count")
        else:
            metrics[key] = (statistics.median(b[key] for b in per_batch), "s")
    samples = {}
    for p in payloads:
        for metric, values in p["samples_ms"].items():
            samples.setdefault(metric, []).extend(values)
    metrics.update({m: (statistics.median(v) if v else 0.0, "ms") for m, v in samples.items()})
    cpu = [c for p in payloads for c in p["cpu_s"]]
    plain = [t for p in payloads for t in p["plain_s"]]
    traced = [t for p in payloads for t in p["traced_s"]]
    metrics["run.cpu_s"] = (statistics.median(cpu), "s")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    context = {"traced_batches": len(per_batch), "spans_file": os.path.relpath(OUTDIR, ROOT) + "/"}
    return metrics, context


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--segment", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    started = time.perf_counter()
    args = parse_args(argv)
    try:
        if args.segment is not None:
            run_segment(args, started)
            return 0
        payloads = run_segments(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(p["attempted"] for p in payloads)
    failed = sum(p["failed"] for p in payloads)
    metrics, context = (per_layer(payloads) if args.trace else end_to_end(payloads, attempted, failed))
    context.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace, segments=SEGMENTS,
        setup_samples_s=[p["setup_s"] for p in payloads],
        environment=dict(payloads[0]["environment"], git_commit=git_commit()),
        problems=[q for p in payloads for q in p["problems"]][:20],
    )
    print(json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
