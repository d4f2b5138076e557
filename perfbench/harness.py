"""Run loop and metrics of the benchmark.

``measure`` runs one workload in this process: set-up repeated
``SETUP_REPS`` times, then a closed loop of ops for a fixed wall-clock
window. Each op's inputs are drawn and its outputs gated outside the op
timer, inside the window. With ``trace``, one more set-up runs traced and
then every other op runs with the span wrappers installed; interleaving
traced and untraced ops keeps drift in machine speed out of the tracing
overhead, the difference of their median op times.
"""

from __future__ import annotations

import math
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import nufft1d as nf
import tracing
from tracing import END, META, NAME, OP, PARENT, START
from workloads import Check

SETUP_REPS = 5
MIN_OPS = 3

# Per-layer metrics printed in the final JSON line of a traced run. Each is
# measured on every workload; the layer metrics that exist on only some
# workloads are in LAYER_TABLE_ONLY and go to the printed table.
LAYER_METRICS = {
    "gridding.phase_ms": "ms",
    "gridding.geometry_ms": "ms",
    "gridding.weights_ms": "ms",
    "gridding.kernel_misses": "ratio",
    "gridding.tap_mb_computed": "MB",
    "forward.type1_self_ms": "ms",
    "forward.type2_self_ms": "ms",
    "forward.fft_ms": "ms",
    "forward.calls_per_op": "count",
    "forward.fft_flop_share": "ratio",
    "forward.fft_time_share": "ratio",
    "grid.validate_ms": "ms",
    "flops.per_op": "count",
    "tracing.overhead_ms": "ms",
}
LAYER_TABLE_ONLY = {
    "forward.conv_self_ms": "ms",
    "forward.direct_ms": "ms",
    "lagrange.v_samples_ms": "ms",
    "lagrange.kernel_samples_ms": "ms",
    "lagrange.coefficients_ms": "ms",
    "lagrange.derivative_ms": "ms",
    "inverse.plan_self_ms": "ms",
    "inverse.solve_self_ms": "ms",
    "inverse.refine_self_ms": "ms",
    "inverse.residual_rel": "ratio",
    "baselines.system_ms": "ms",
    "baselines.ge_ms": "ms",
    "baselines.cg_ms": "ms",
    "baselines.cg_iterations": "count",
    "bench.trial_gen_ms": "ms",
    "bench.rows_per_cell": "ratio",
    "bench.skipped_cells": "count",
}

# End-to-end metrics in the final JSON line of an untraced run, and the
# ones that apply to one workload only, which go to the printed table.
END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p75": "ms",
    "mpts_per_s": "Mpts/s",
    "digits_min": "digits",
    "peak_rss_mb": "MB",
}
LAP_METRICS = {  # lap name -> metric, where the workload's op makes that call
    "type1": "type1_ms_p50",
    "type2": "type2_ms_p50",
    "type4": "type4_ms_p50",
    "type5": "type5_ms_p50",
    "plan": "plan_ms_p50",
}


@dataclass
class Op:
    index: int
    seconds: float
    laps: dict
    check: Check | None        # None when the op raised a library error
    traced: bool = False
    residual: float | None = None


def run_op(workload, state, index, tracer=None):
    """Draw, time, gate. A library error counts as a failed op.

    With a tracer the op runs with the wrappers installed and passes a
    flop counter through the public ``flops=`` arguments.
    """
    inputs = workload.draw(state, index)
    with tracing.installed(tracer) if tracer else nullcontext():
        counter = nf.FlopCounter() if tracer else None
        if tracer:
            tracer.op = index
        t0 = perf_counter()
        try:
            outputs, laps = workload.run(state, inputs, counter)
        except nf.NufftError:
            outputs, laps = None, {}
        seconds = perf_counter() - t0
        if tracer:
            counter.report()
            tracer.op = None
    if outputs is None:
        return Op(index, seconds, laps, None, traced=bool(tracer))
    residual = None
    if tracer and hasattr(workload, "residual"):
        residual = workload.residual(state, inputs, outputs)
    return Op(index, seconds, laps, workload.check(state, inputs, outputs),
              traced=bool(tracer), residual=residual)


def timed_setup(workload, seed):
    nf.kernel_for_size.cache_clear()
    t0 = perf_counter()
    state = workload.setup(seed)
    return perf_counter() - t0, state


def loop(workload, state, seconds, tracer=None):
    """Ops 1, 2, ... until the window closes.

    With a tracer, ops 2-3, 6-7, 10-11, ... are traced: pairs, so that on
    ``inv-reuse``, whose ops alternate two solves, both halves see both.
    """
    ops = []
    end = perf_counter() + seconds
    while perf_counter() < end or len(ops) < MIN_OPS:
        index = len(ops) + 1
        ops.append(run_op(workload, state, index, tracer if index // 2 % 2 else None))
    return ops


def measure(workload, seed, seconds, trace=False):
    """Run one workload; returns (final record, table rows, tracer or None)."""
    setups = []
    for _ in range(SETUP_REPS):
        state = None   # free the last set-up's state, so peak RSS holds one state
        elapsed, state = timed_setup(workload, seed)
        setups.append(elapsed)
    if not trace:
        ops = loop(workload, state, seconds)
        metrics, table = end_to_end(workload, ops, setups)
        if hasattr(workload, "iid_error"):   # a known defect, measured outside the ops
            table["iid_rel_err"] = metric(workload.iid_error(state), "ratio")
        return record(ops, metrics), table, None

    tracer = tracing.Tracer()
    state = None
    with tracing.installed(tracer):
        tracer.op = "setup"
        _, state = timed_setup(workload, seed)
        tracer.op = None
    ops = loop(workload, state, seconds, tracer)
    traced = [op for op in ops if op.traced]
    untraced = [op for op in ops if not op.traced]
    metrics, table = per_layer(workload, tracer, traced, untraced)
    return record(ops, metrics), table, tracer


def failures(ops):
    return [op for op in ops if op.check is None or not op.check.ok]


def record(ops, metrics):
    failed = failures(ops)
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }


def ms(values, q=50):
    return float(np.percentile(np.asarray(values) * 1e3, q))


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, ops, setups):
    times = [op.seconds for op in ops]
    passed = [op.check.err for op in ops if op.check is not None and op.check.ok]
    worst = max(passed) if passed else 1.0
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "op_ms_p50": metric(ms(times), "ms"),
        "op_ms_p75": metric(ms(times, 75), "ms"),
        "mpts_per_s": metric(workload.P * len(ops) / sum(times) / 1e6, "Mpts/s"),
        "digits_min": metric(-math.log10(max(worst, 1e-300)), "digits"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    table = dict(metrics)
    for lap, name in LAP_METRICS.items():
        laps = [op.laps[lap] for op in ops if lap in op.laps]
        if laps:
            table[name] = metric(ms(laps), "ms")
    table["fail_frac"] = metric(len(failures(ops)) / len(ops), "ratio")
    table["ops"] = metric(len(ops), "count")
    return metrics, table


def self_times(spans):
    """Span duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def per_layer(workload, tracer, traced, untraced):
    spans = tracer.spans
    own = self_times(spans)
    length = [s[END] - s[START] for s in spans]
    n = len(traced)
    timed = [i for i, s in enumerate(spans) if s[OP] != "setup"]

    def named(name, among=None):
        return [i for i in (range(len(spans)) if among is None else among) if spans[i][NAME] == name]

    def per_op_self(name):
        hits = named(name, timed)
        return sum(own[i] for i in hits) * 1e3 / n if hits else None

    def per_call(name, inclusive=False):
        values = [length[i] if inclusive else own[i] for i in named(name)]
        return statistics.median(values) * 1e3 if values else None

    def layer(i):
        return spans[i][NAME].split(".")[0] if i >= 0 else None

    fft = named("fft", timed)
    reports = [r for op, r in tracer.flop_reports if op != "setup"]
    total_flops = sum(r.total_flops for r in reports)
    fft_flops = sum(nf.flops.fft_flops(size) for r in reports for size in r.fft_invocations)

    values = {
        "gridding.phase_ms": per_op_self("gridding.phase"),
        "gridding.geometry_ms": per_op_self("gridding.geometry"),
        "gridding.weights_ms": per_op_self("gridding.weights"),
        "gridding.kernel_misses": tracer.kernel_misses / max(tracer.kernel_calls, 1),
        "gridding.tap_mb_computed": sum(
            spans[i][META] for i in timed if spans[i][NAME] in ("gridding.geometry", "gridding.weights")
        ) / 1e6 / n,
        "forward.type1_self_ms": per_op_self("forward.type1"),
        "forward.type2_self_ms": per_op_self("forward.type2"),
        "forward.fft_ms": sum(length[i] for i in fft if layer(spans[i][PARENT]) == "forward") * 1e3 / n,
        "forward.calls_per_op": sum(
            1 for i in timed if layer(i) == "forward" and layer(spans[i][PARENT]) != "forward"
        ) / n,
        "forward.fft_flop_share": fft_flops / total_flops if total_flops else 0.0,
        "forward.fft_time_share": sum(length[i] for i in fft) / sum(op.seconds for op in traced),
        "grid.validate_ms": per_call("grid.validate"),
        "flops.per_op": total_flops / n,
        "tracing.overhead_ms": ms([op.seconds for op in traced]) - ms([op.seconds for op in untraced]),
    }
    metrics = {name: metric(values[name], unit) for name, unit in LAYER_METRICS.items()}

    checks = [op.check for op in traced if op.check is not None]
    residuals = [op.residual for op in traced if op.residual is not None]
    cg = [it for c in checks for it in c.extra.get("cg_iterations", ())]
    rows = sum(c.extra.get("rows", 0) for c in checks)
    cells = sum(c.extra.get("cells", 0) for c in checks)
    optional = {
        "forward.conv_self_ms": per_op_self("forward.conv"),
        "forward.direct_ms": per_op_self("forward.direct"),
        "lagrange.v_samples_ms": per_call("lagrange.v_samples", inclusive=True),
        "lagrange.kernel_samples_ms": per_call("lagrange.kernel_samples", inclusive=True),
        "lagrange.coefficients_ms": per_call("lagrange.coefficients", inclusive=True),
        "lagrange.derivative_ms": per_call("lagrange.derivative", inclusive=True),
        "inverse.plan_self_ms": per_call("inverse.plan"),
        "inverse.solve_self_ms": per_op_self("inverse.solve"),
        "inverse.refine_self_ms": per_op_self("inverse.refine"),
        "inverse.residual_rel": statistics.median(residuals) if residuals else None,
        "baselines.system_ms": per_op_self("baselines.system"),
        "baselines.ge_ms": per_op_self("baselines.ge"),
        "baselines.cg_ms": per_op_self("baselines.cg"),
        "baselines.cg_iterations": statistics.median(cg) if cg else None,
        "bench.trial_gen_ms": per_op_self("bench.trial_gen"),
        "bench.rows_per_cell": rows / cells if cells else None,
        "bench.skipped_cells": cells - rows if cells else None,
    }
    table = dict(metrics)
    for name, unit in LAYER_TABLE_ONLY.items():
        if optional[name] is not None:   # None: this workload never reaches the layer
            table[name] = metric(optional[name], unit)
    return metrics, table
