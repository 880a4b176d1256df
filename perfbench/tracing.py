"""Spans around the public functions of each nonfrac module.

The tracer replaces every public function of a layer module in each
``nonfrac`` namespace that holds it, so calls made through the program's
own from-imports are recorded too. Nothing under ``src/`` is edited, and
the originals are put back when the ``installed`` block ends.
"""

import contextlib
import functools
import inspect
import sys
import time
from typing import NamedTuple

LAYERS = ("harness", "simulate", "model", "spectral", "estimate", "forecast", "fitloss", "specfun")
PACKAGE = "nonfrac"


class Span(NamedTuple):
    name: str  # "<layer>.<qualified function name>"
    layer: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 at top level


class Tracer:
    """Keeps spans in memory; ``spans`` is a list of :class:`Span`."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, layer, fn):
        name = f"{layer}.{fn.__qualname__}"
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # keeps the slot so children can name their parent
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, layer, start, end, parent)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the public functions of every layer while the block runs."""
        wrappers = {}  # id(original) -> (original, wrapper)
        methods = []  # (class, attribute, original)
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(layer, obj))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in vars(obj).items():
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            methods.append((obj, meth, fn))
        patched = []  # (namespace, attribute, original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patched.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        for cls, meth, fn in methods:
            patched.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(cls.__module__.rsplit(".", 1)[1], fn))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted((spans[c].start, spans[c].end) for c in children[i]):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.end - span.start - covered)
    return out


# Function-level metrics: metric -> (span names, what is measured)
CALL_COUNTS = {
    "model.ma_coeffs.calls": ("model.csa_ma_coeffs", "model.frac_ma_coeffs"),
    "specfun.hypergeometric_pfq.calls": ("specfun.hypergeometric_pfq",),
}
DURATION_P50 = {  # median inclusive duration, in ms
    "spectral.convolve.p50_ms": ("spectral.circular_convolve",),
    "estimate.periodogram.p50_ms": ("estimate.periodogram",),
    "forecast.recover_innovations.p50_ms": ("forecast.recover_innovations",),
}
SELF_P50 = {  # median self time, in ms
    "estimate.gph_regression.p50_ms": ("estimate.gph_estimate",),
    "simulate.draw.p50_ms": ("simulate.generate_csa_fast", "simulate.generate_frac_fast"),
}
SELF_TOTAL = {  # self time summed over one batch, in s
    "harness.write_csv.self_s": ("harness.ExperimentResult.write_csv",),
}


def batch_metrics(spans):
    """Counts and self seconds of one traced batch, per layer and per function."""
    selfs = self_times(spans)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = sum(1 for s in spans if s.layer == layer)
        out[f"{layer}.self_s"] = sum(t for s, t in zip(spans, selfs) if s.layer == layer)
    for metric, names in CALL_COUNTS.items():
        out[metric] = sum(1 for s in spans if s.name in names)
    for metric, names in SELF_TOTAL.items():
        out[metric] = sum(t for s, t in zip(spans, selfs) if s.name in names)
    return out


def span_samples_ms(batches):
    """Span times in ms behind each p50 metric, over all traced batches."""
    out = {}
    for table, use_self in ((DURATION_P50, False), (SELF_P50, True)):
        for metric, names in table.items():
            values = out.setdefault(metric, [])
            for spans in batches:
                times = self_times(spans) if use_self else [s.end - s.start for s in spans]
                values.extend(1e3 * t for s, t in zip(spans, times) if s.name in names)
    return out
