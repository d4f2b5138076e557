"""Span recorder for the traced benchmark run.

Wrappers are installed from outside the library: every name a traced
function is bound to inside the ``nufft1d`` package (``from .x import``
copies included) is rebound to a wrapper, the two per-instant methods of
``GriddingKernel`` are wrapped on the class, ``numpy.fft.fft`` is wrapped
where numpy defines it, and ``FlopCounter`` is rebound to a subclass that
keeps every report it hands out. Spans are kept in memory and written
once, when the run ends.

Spans are recorded only while an op id is set, so input generation and
the correctness gate, which run between ops, leave no spans.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import nufft1d
from nufft1d.gridding import GriddingKernel

# (span name, defining module, function). Two functions may share a span
# name when they are the same stage seen from the two transform sides.
FUNCTIONS = (
    ("grid.validate", "grid", "validate_grid"),
    ("gridding.phase", "gridding", "cis_cycles"),
    ("gridding.kernel", "gridding", "kernel_for_size"),
    ("forward.type1", "forward", "nfft_type1"),
    ("forward.type2", "forward", "nfft_type2"),
    ("forward.conv", "forward", "nonuniform_conv"),
    ("forward.direct", "forward", "nfft_type1_direct"),
    ("forward.direct", "forward", "nfft_type2_direct"),
    ("lagrange.v_samples", "lagrange", "compute_v_samples"),
    ("lagrange.kernel_samples", "lagrange", "kernel_samples_from_v"),
    ("lagrange.coefficients", "lagrange", "kernel_coefficients"),
    ("lagrange.derivative", "lagrange", "derivative_samples"),
    ("inverse.plan", "inverse", "build_plan"),
    ("inverse.solve", "inverse", "type4"),
    ("inverse.solve", "inverse", "type5"),
    ("inverse.refine", "inverse", "refine_type4"),
    ("inverse.refine", "inverse", "refine_type5"),
    ("baselines.system", "baselines", "type4_system"),
    ("baselines.system", "baselines", "type5_system"),
    ("baselines.ge", "baselines", "ge_solve"),
    ("baselines.cg", "baselines", "cg_solve"),
    ("bench.trial_gen", "bench", "generate_trial"),
    ("bench.sweep", "bench", "run_sweep"),
)


def _geometry_bytes(args):
    kernel, instants = args[0], args[1]
    return np.size(instants) * kernel.taps * 16   # int64 indices + float64 distances


def _weights_bytes(args):
    return np.size(args[1]) * 8


def _fft_size(args):
    return np.size(args[0])


# (span name, class, method, computed-size function)
METHODS = (
    ("gridding.geometry", GriddingKernel, "spread_geometry", _geometry_bytes),
    ("gridding.weights", GriddingKernel, "weights", _weights_bytes),
)

NAME, START, END, PARENT, OP, META = range(6)


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id, meta]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self.flop_reports: list[tuple[object, object]] = []   # (op id, FlopReport)
        self.kernel_calls = 0
        self.kernel_misses = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, meta=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.op, meta(args) if meta else None]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                tracer._stack.pop()

        return traced

    def _count_misses(self, lru):
        tracer = self

        @functools.wraps(lru)
        def kernel_for_size(*args, **kwargs):
            before = lru.cache_info().misses
            kernel = lru(*args, **kwargs)
            if tracer.op is not None:
                tracer.kernel_calls += 1
                tracer.kernel_misses += lru.cache_info().misses - before
            return kernel

        kernel_for_size.cache_info = lru.cache_info
        kernel_for_size.cache_clear = lru.cache_clear
        return kernel_for_size

    def _recording_counter(self, base):
        tracer = self

        class FlopCounter(base):
            def report(self):
                report = super().report()
                if tracer.op is not None:
                    tracer.flop_reports.append((tracer.op, report))
                return report

        return FlopCounter

    def write(self, path):
        """One JSON span per line, written once at the end of the run."""
        with open(path, "w") as fh:
            for name, start, end, parent, op, meta in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "meta": meta,
                }) + "\n")


def _package_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "nufft1d" or key.startswith("nufft1d."))]


@contextmanager
def installed(tracer: Tracer):
    """Rebind the traced names for the duration of the block, then restore them."""
    replacements = {}
    for name, module, attr in FUNCTIONS:
        original = getattr(sys.modules[f"nufft1d.{module}"], attr)
        wrapped = original
        if attr == "kernel_for_size":
            wrapped = tracer._count_misses(original)
        replacements[id(original)] = (original, tracer.wrap(name, wrapped))
    counter = nufft1d.flops.FlopCounter
    replacements[id(counter)] = (counter, tracer._recording_counter(counter))

    restore = []
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                restore.append((module, attr, value))
                setattr(module, attr, hit[1])
    for name, cls, attr, meta in METHODS:
        original = cls.__dict__[attr]
        restore.append((cls, attr, original))
        setattr(cls, attr, tracer.wrap(name, original, meta))
    restore.append((np.fft, "fft", np.fft.fft))
    np.fft.fft = tracer.wrap("fft", np.fft.fft, _fft_size)
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)
