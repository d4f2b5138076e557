"""The benchmark's four workloads.

Each workload is a closed loop: one caller in one process, the next op
sent only when the last returned. A workload has four parts:

* ``setup(seed)`` does everything before the first timed op, one
  untimed-in-the-loop warm-up op included, and returns the state the ops
  share; it is timed as ``setup_s``.
* ``draw(state, op)`` makes the op's inputs from Philox(seed, op) and is
  not timed. Op 0 is the warm-up; timed ops start at 1.
* ``run(state, inputs, flops)`` is the timed op. It returns its outputs
  and the time of each library call it made ("laps").
* ``check(state, inputs, outputs)`` is the correctness gate, run outside
  the timer. It returns the op's error and whether the error met the
  op's target.

The library is called only through the ``nufft1d`` package namespace, so
the traced run sees every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import nufft1d as nf


def rng_for(seed: int, op: int, attempt: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, (op << 8) | attempt]))


def complex_normal(rng, n):
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)


def jittered_trial(seed, op, P, jitter, attempt=0):
    """``generate_trial``'s jittered grid and CN(0, 1) amplitudes, keyed by (seed, op)."""
    trial_seed = int(rng_for(seed, op, attempt).integers(0, 2**63))
    return nf.generate_trial(P, trial_seed, jitter)


@dataclass
class Check:
    err: float                 # relative l2 error of the output, inf when not finite
    ok: bool                   # finite output that met the op's target
    extra: dict = field(default_factory=dict)


def relative_l2(truth, estimate) -> float:
    if not np.all(np.isfinite(estimate)):
        return math.inf
    return nf.relative_error(truth, estimate)


def check_bound(truth, estimate, bound) -> Check:
    err = relative_l2(truth, estimate)
    return Check(err=err, ok=err <= bound)


class Laps(dict):
    """Wall time of each library call inside one op, in seconds."""

    def call(self, name, fn, *args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        self[name] = self.get(name, 0.0) + perf_counter() - t0
        return out


class FwdLarge:
    """One jittered grid, a shared kernel; each op is a type-1 then a type-2
    transform on fresh amplitudes, gated against the direct sums on a
    fixed sample of 8 spectrum bins and 8 instants."""

    name = "fwd-large"
    bound = 1e-12
    jitter = 0.6

    def __init__(self, P: int = 131072):
        self.P = P
        # Bins in three blocks: both band edges, where deconvolution weights
        # peak, and the band centre.
        self.bin_blocks = ((0, 3), (P // 2 - 1, 3), (P - 2, 2))
        self.instant_index = np.unique(np.linspace(0, P - 1, 8).round().astype(int))

    def setup(self, seed):
        grid, _ = jittered_trial(seed, 0, self.P, self.jitter, attempt=1)
        state = {"seed": seed, "grid": grid, "kernel": nf.kernel_for_size(self.P)}
        self.run(state, self.draw(state, 0), None)
        return state

    def draw(self, state, op):
        rng = rng_for(state["seed"], op)
        return {"a": complex_normal(rng, self.P), "S": complex_normal(rng, self.P)}

    def run(self, state, inputs, flops):
        laps = Laps()
        spectrum = laps.call("type1", nf.nfft_type1, state["grid"], inputs["a"], self.P,
                             kernel=state["kernel"], flops=flops)
        samples = laps.call("type2", nf.nfft_type2, inputs["S"], state["grid"],
                            kernel=state["kernel"], flops=flops)
        return (spectrum, samples), laps

    def check(self, state, inputs, outputs):
        spectrum, samples = outputs
        if not (np.all(np.isfinite(spectrum)) and np.all(np.isfinite(samples))):
            return Check(err=math.inf, ok=False)
        grid = state["grid"]
        t = np.asarray(grid.instants, dtype=np.longdouble)
        fast, exact = [], []
        for p0, count in self.bin_blocks:
            shifted = inputs["a"] * nf.gridding.cis_cycles(-p0 * t)
            exact.append(nf.nfft_type1_direct(grid, shifted, count))
            fast.append(spectrum[p0:p0 + count])
        if "subgrid" not in state:
            state["subgrid"] = nf.validate_grid(grid.instants[self.instant_index])
        exact.append(nf.nfft_type2_direct(inputs["S"], state["subgrid"]))
        fast.append(samples[self.instant_index])
        return check_bound(np.concatenate(exact), np.concatenate(fast), self.bound)


class InvReuse:
    """One grid and one plan built in set-up; ops alternate refined type-4
    and type-5 solves on fresh right-hand sides, gated against the ground
    truth the right-hand side was made from."""

    name = "inv-reuse"
    bound = 1e-12
    eta, mu, jitter = 6, 1e-15, 0.6

    def __init__(self, P: int = 16384):
        self.P = P

    def setup(self, seed):
        grid, _ = jittered_trial(seed, 0, self.P, self.jitter, attempt=1)
        params = nf.MethodParams.from_mu(self.mu, self.P, self.eta)
        state = {"seed": seed, "grid": grid, "plan": nf.build_plan(grid, params)}
        self.run(state, self.draw(state, 0), None)
        return state

    def draw(self, state, op):
        truth = complex_normal(rng_for(state["seed"], op), self.P)
        grid, kernel = state["grid"], state["plan"].kernel_base
        if op % 2 == 0:
            rhs = nf.nfft_type1(grid, truth, self.P, kernel=kernel)
        else:
            rhs = nf.nfft_type2(truth, grid, kernel=kernel)
        return {"kind": "type4" if op % 2 == 0 else "type5", "truth": truth, "rhs": rhs}

    def run(self, state, inputs, flops):
        laps = Laps()
        solve = nf.refine_type4 if inputs["kind"] == "type4" else nf.refine_type5
        x = laps.call(inputs["kind"], solve, state["plan"], inputs["rhs"], passes=1, flops=flops)
        return x, laps

    def check(self, state, inputs, x):
        return check_bound(inputs["truth"], x, self.bound)

    def residual(self, state, inputs, x):
        grid, kernel = state["grid"], state["plan"].kernel_base
        if inputs["kind"] == "type4":
            forward = nf.nfft_type1(grid, x, self.P, kernel=kernel)
        else:
            forward = nf.nfft_type2(x, grid, kernel=kernel)
        return relative_l2(inputs["rhs"], forward)


class OneShot:
    """Each op draws a fresh grid, alternating two jittered node families,
    and pays validation, plan build and one plain type-4 solve.

    i.i.d. uniform nodes are not among the families: on them the library
    returns a finite answer with relative error ~1 and no warning, a known
    defect, and every op of a workload must pass its gate. ``iid_error``
    measures that defect once per run, outside the ops.
    """

    name = "oneshot"
    bound = 1e-9
    families = (0.6, 0.99)
    eta, mu = 6, 1e-15

    def __init__(self, P: int = 16384):
        self.P = P

    def setup(self, seed):
        state = {"seed": seed, "params": nf.MethodParams.from_mu(self.mu, self.P, self.eta)}
        self.run(state, self.draw(state, 0), None)
        return state

    def draw(self, state, op):
        grid, truth = jittered_trial(state["seed"], op, self.P, self.families[op % 2])
        spectrum = nf.nfft_type1(grid, truth, self.P)
        return {"instants": grid.instants, "truth": truth, "rhs": spectrum}

    def iid_error(self, state):
        """Relative error of one untimed op on i.i.d. uniform nodes."""
        for attempt in range(2, 18):
            rng = rng_for(state["seed"], 0, attempt)
            try:
                grid = nf.validate_grid(rng.uniform(0.0, 1.0, size=self.P))
                break
            except nf.DuplicateNodeError:
                continue   # two nodes closer than the library's floor: redraw
        else:
            raise RuntimeError("no valid i.i.d. grid in 16 draws")
        truth = complex_normal(rng, self.P)
        inputs = {"instants": grid.instants, "truth": truth,
                  "rhs": nf.nfft_type1(grid, truth, self.P)}
        return self.check(state, inputs, self.run(state, inputs, None)[0]).err

    def run(self, state, inputs, flops):
        laps = Laps()
        grid = nf.validate_grid(inputs["instants"])
        plan = laps.call("plan", nf.build_plan, grid, state["params"], flops=flops)
        x = nf.type4(plan, inputs["rhs"], flops=flops)
        return (grid, x), laps

    def check(self, state, inputs, outputs):
        return check_bound(inputs["truth"], outputs[1], self.bound)

    def residual(self, state, inputs, outputs):
        grid, x = outputs
        return relative_l2(inputs["rhs"], nf.nfft_type1(grid, x, self.P))


class Sweep:
    """Each op is one Monte-Carlo trial through ``run_sweep``: GE, CG and the
    plain and refined fast inverse at two oversampling factors and two
    truncation ratios."""

    name = "sweep"
    bound = 1e-12
    eta, mu = (1, 6), (1e-15, 1e-8)

    def __init__(self, P: int = 256):
        self.P = P
        methods = nf.bench.ALL_METHODS
        self.dense = ("GE", "CG")
        self.cells = len(self.dense) + (len(methods) - len(self.dense)) * len(self.eta) * len(self.mu)

    def setup(self, seed):
        state = {"seed": seed}
        self.run(state, self.draw(state, 0), None)
        return state

    def draw(self, state, op):
        trial_seed = int(rng_for(state["seed"], op).integers(0, 2**31))
        return {"config": nf.TrialConfig(p=(self.P,), eta=self.eta, mu=self.mu,
                                         trials=1, seed=trial_seed)}

    def run(self, state, inputs, flops):
        laps = Laps()
        rows = laps.call("sweep", nf.run_sweep, inputs["config"])
        return rows, laps

    def check(self, state, inputs, rows):
        dense = [r.error_linear for r in rows if r.method in self.dense]
        err = max(dense) if dense else math.inf
        cg = [r.cg_iterations for r in rows if r.method == "CG"]
        return Check(
            err=err,
            ok=len(rows) == self.cells and len(dense) == len(self.dense) and err <= self.bound,
            extra={"rows": len(rows), "cells": self.cells, "cg_iterations": cg},
        )


WORKLOADS = {w.name: w for w in (FwdLarge, InvReuse, OneShot, Sweep)}
