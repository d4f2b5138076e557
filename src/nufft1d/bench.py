"""Monte-Carlo benchmark engine: grids, error measurement, parameter sweeps.

Trials draw a jittered regular grid (``jittered``: node p shifted by up to
JITTER_MAX / P) and unit-variance circular complex Gaussian amplitudes
(``randc`` / sqrt 2) from a counter-based Philox generator, so runs are
reproducible from (seed, trial index) alone; per-trial streams use key =
seed XOR trial. Ground truth is always the generated amplitude vector, and
the spectrum handed to the solvers comes from the exact direct summation,
never the fast transform, so method error stays unconfounded; a trial
that runs GE takes it as GE's dense matrix times the amplitudes.

Errors are relative l2 ratios, reported both linear and in dB as
20 log10.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .baselines import cg_solve, ge_solve, type4_system
from .errors import (
    AmplificationWarning,
    LengthMismatchError,
    NonPositiveDampingError,
    ZeroReferenceError,
)
from .flops import FlopCounter
from .forward import _blocked_matvec, nfft_type1, nfft_type1_direct
from .grid import MethodParams, _check_mu, require_count, validate_grid
from .gridding import kernel_for_size
from .inverse import _plan, _refine

GE_SIZE_CAP = 8192

CG_TOL = 1e-15

JITTER_MAX = 0.6

MU_SWEEP_DEFAULT = tuple(float(m) for m in np.logspace(-18.0, -4.0, 29))

METHOD_GE = "GE"
METHOD_CG = "CG"
METHOD_NFFT = "NFFT"
METHOD_RNFFT = "R-NFFT"
ALL_METHODS = (METHOD_GE, METHOD_CG, METHOD_NFFT, METHOD_RNFFT)


@dataclass(frozen=True)
class TrialConfig:
    """One sweep specification. ``p``, ``eta``, ``mu`` and ``methods`` are each
    a non-empty sequence of the values to sweep; one value is a 1-tuple. Each
    is stored as a tuple, so configs compare and hash by value."""

    p: tuple[int, ...] = (1024,)
    eta: tuple[int, ...] = (1,)
    mu: tuple[float, ...] = MU_SWEEP_DEFAULT
    trials: int = 10
    seed: int = 0
    methods: tuple[str, ...] = ALL_METHODS

    def __post_init__(self):
        for name in ("p", "eta", "mu", "methods"):
            values = getattr(self, name)
            if np.ndim(values) != 1 or len(values) == 0:
                raise ValueError(f"{name} must be a non-empty sequence, got {values!r}")
        # named as generate_trial and MethodParams name them: one wording per rule
        for name, rule, low in (("p", "P", 2), ("eta", "eta", 1)):
            counts = tuple(require_count(v, rule, low) for v in getattr(self, name))
            object.__setattr__(self, name, counts)
        for mu in self.mu:
            _check_mu(mu)   # mu * (eta P - 1) >= 1 is a per-cell skip in run_sweep
        object.__setattr__(self, "mu", tuple(float(mu) for mu in self.mu))
        object.__setattr__(self, "trials", require_count(self.trials, "trials", 1))
        object.__setattr__(self, "seed", _require_seed(self.seed))
        for m in self.methods:
            if m not in ALL_METHODS:
                raise ValueError(f"unknown method {m!r}")
        object.__setattr__(self, "methods", tuple(str(m) for m in self.methods))


@dataclass(frozen=True)
class TrialResult:
    p: int
    eta: int | None
    mu: float | None
    method: str
    trial: int
    error_linear: float
    error_db: float
    total_flops: int
    cg_iterations: int | None
    seed: int


def jittered(P, rng, jitter_max=JITTER_MAX):
    """Node p at p/P + U[0, jitter_max/P); a jitter_max above 1 would let nodes cross."""
    if isinstance(jitter_max, bool) or not (
            isinstance(jitter_max, numbers.Real) and 0.0 <= jitter_max <= 1.0):
        raise ValueError(f"jitter_max must be a real number in [0, 1], got {jitter_max!r}")
    return validate_grid(np.arange(P) / P + rng.uniform(0, jitter_max / P, P))


def randc(n, rng):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _require_seed(seed) -> int:
    """``seed`` as an int; ValueError unless it is an integer in [0, 2**128)."""
    seed = require_count(seed, "seed", 0)
    if seed >= 2**128:   # a Philox key, and each trial's key seed ^ trial, is below 2**128
        raise ValueError(f"seed must be below 2**128, got {seed}")
    return seed


def generate_trial(P: int, seed: int, jitter_max: float = JITTER_MAX):
    """Jittered grid t_p = p/P + U[0, jitter_max/P) and CN(0, 1) amplitudes."""
    P = require_count(P, "P", 2)
    rng = np.random.Generator(np.random.Philox(key=_require_seed(seed)))
    return jittered(P, rng, jitter_max), randc(P, rng) / math.sqrt(2.0)


def relative_error(truth, estimate) -> float:
    """Quadratic-norm error ratio ||truth - estimate|| / ||truth||."""
    t = np.asarray(truth, dtype=np.complex128)
    e = np.asarray(estimate, dtype=np.complex128)
    if t.shape != e.shape:
        raise LengthMismatchError(f"shape mismatch: {t.shape} vs {e.shape}")
    tn = float(np.linalg.norm(t))
    if tn == 0.0:
        raise ZeroReferenceError("relative error undefined: reference vector is zero")
    return float(np.linalg.norm(t - e)) / tn


def to_db(error_linear: float) -> float:
    if error_linear <= 0.0:
        return float("-inf")
    return 20.0 * math.log10(error_linear)


def run_sweep(config: TrialConfig) -> list[TrialResult]:
    """Run every (P, trial, method, eta, mu) combination of the config.

    Every trial draws its grid with jitter JITTER_MAX. Its spectrum is the
    exact direct summation. With GE requested, that is the dense type-4
    system GE solves (built once, charged to GE) times the amplitudes, taken
    over the direct oracle's row blocks, so it has ``nfft_type1_direct``'s
    bytes; the system is freed once GE is done. Without GE it is
    ``nfft_type1_direct`` itself. GE and CG are parameter-free and run once
    per trial; the fast methods run once per (eta, mu) pair and share one
    plan: NFFT is ``refine_type4`` with no refinement pass and R-NFFT with
    one. Infeasible (mu, eta) pairs (truncation too loose to need damping)
    are skipped. Deliberately over-damped corners would also spam
    amplification warnings, so those are suppressed here.

    A trial does its grid-level work once. One stored length-P spreader
    serves every plan's gridded stages and every fast solve (CG builds its
    own, in ``cg_solve``). The v stage's input, the type-1 transform of the
    grid's unit delta train, does not depend on mu, so it is computed once
    per eta, as ``build_plan`` computes it, and every mu's plan runs
    ``build_plan``'s stages on it; an eta with no feasible mu computes none.
    Each feasible (eta, mu) cell charges one counter: it starts from the
    spectrum's charge, which ``build_plan`` also charges first, then the
    plan, then the plain solve (the NFFT row reads it here), then one
    refinement pass from that iterate (the R-NFFT row reads it here). So
    every row has the bytes and the flop total of its method run alone.
    """
    results: list[TrialResult] = []
    if METHOD_GE in config.methods and max(config.p) > GE_SIZE_CAP:
        raise ValueError(f"GE requested above the P = {GE_SIZE_CAP} dense-solver cap")
    fast = [(m, passes) for m, passes in ((METHOD_NFFT, 0), (METHOD_RNFFT, 1))
            if m in config.methods]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AmplificationWarning)
        for P in config.p:
            for trial in range(config.trials):
                tseed = config.seed ^ trial
                grid, a_true = generate_trial(P, tseed)

                def record(method, x, counter, eta=None, mu=None, cg_iterations=None):
                    err = relative_error(a_true, x)
                    results.append(TrialResult(
                        p=P, eta=eta, mu=mu, method=method, trial=trial,
                        error_linear=err, error_db=to_db(err),
                        total_flops=counter.report().total_flops,
                        cg_iterations=cg_iterations, seed=tseed,
                    ))

                if METHOD_GE in config.methods:
                    counter = FlopCounter()
                    system = type4_system(grid, flops=counter)
                    spectrum = _blocked_matvec(system, a_true)
                    x = ge_solve(system, spectrum, flops=counter)
                    del system
                    record(METHOD_GE, x, counter)
                else:
                    spectrum = nfft_type1_direct(grid, a_true, P)
                if METHOD_CG in config.methods:
                    counter = FlopCounter()
                    res = cg_solve(grid, spectrum, "type4", tol=CG_TOL, flops=counter)
                    record(METHOD_CG, res.solution, counter, cg_iterations=res.iterations)
                if not fast:
                    continue
                spread = kernel_for_size(P).spreader(grid)
                for eta in config.eta:
                    unit = None
                    for mu in config.mu:
                        try:
                            params = MethodParams.from_mu(mu, P, eta)
                        except NonPositiveDampingError:
                            continue
                        if unit is None:
                            unit_counter = FlopCounter()
                            unit = nfft_type1(grid, np.ones(P, dtype=np.complex128), eta * P,
                                              kernel=spread if eta == 1 else None,
                                              flops=unit_counter)
                        counter = FlopCounter()
                        counter.merge(unit_counter)
                        plan = _plan(grid, params, unit, spread, counter)
                        x = None    # R-NFFT's pass starts from the NFFT row's iterate
                        for method, passes in fast:
                            x = _refine(plan, spectrum, passes, "type4", counter, spread, x)
                            record(method, x, counter, eta, mu)
    return results


def filter_best_mu(results: list[TrialResult]) -> list[TrialResult]:
    """Keep dense-solver rows plus, per (P, eta, method), the rows at the mu with
    the smallest mean error over trials (sweep protocol); a tie keeps the first
    mu in row order."""
    errors: dict[tuple[int, int, str], dict[float, list[float]]] = {}
    for r in results:
        if r.mu is not None:
            errors.setdefault((r.p, r.eta, r.method), {}).setdefault(r.mu, []).append(
                r.error_linear)
    best = {cell: min(by_mu, key=lambda mu: sum(by_mu[mu]) / len(by_mu[mu]))
            for cell, by_mu in errors.items()}
    return [r for r in results if r.mu is None or best[r.p, r.eta, r.method] == r.mu]


# Figure protocols. fig1: error floor vs mu for several eta at P = 1024;
# fig2: same for the refined method; fig3: refined method vs P at best mu;
# fig6: flop totals of all four methods vs P; fig7: flop totals vs eta.
FIGURE_DEFAULTS: dict[str, TrialConfig] = {
    "fig1": TrialConfig(
        p=(1024,), eta=(1, 2, 3, 4, 6, 15, 20),
        methods=(METHOD_GE, METHOD_CG, METHOD_NFFT),
    ),
    "fig2": TrialConfig(
        p=(1024,), eta=(1, 2),
        methods=(METHOD_GE, METHOD_CG, METHOD_RNFFT),
    ),
    "fig3": TrialConfig(
        p=(64, 128, 256, 512, 1024, 2048, 4096, 8192), eta=(1,),
        methods=(METHOD_GE, METHOD_CG, METHOD_RNFFT),
    ),
    "fig6": TrialConfig(
        p=(64, 128, 256, 512, 1024), eta=(6,), mu=(1e-15,),
        methods=(METHOD_GE, METHOD_CG, METHOD_NFFT),
    ),
    "fig7": TrialConfig(
        p=(1024,), eta=tuple(range(1, 21)), mu=(1e-15,),
        methods=(METHOD_GE, METHOD_CG, METHOD_NFFT),
    ),
}

# Figure protocols drop GE/CG rows above this size unless explicitly
# overridden. At P = 4096 on 2 CPUs (numpy 2.4.6), GE took 2.3-2.6 s plus
# 0.65-0.9 s to build its 256 MiB matrix, and CG took 0.08-0.09 s.
DENSE_DEFAULT_CAP = 1024


def run_figure(name: str, config: TrialConfig | None = None, dense_cap: int | None = None):
    """Run one figure protocol, returning (records, metadata)."""
    if name not in FIGURE_DEFAULTS:
        raise ValueError(f"unknown figure {name!r}; choose from {sorted(FIGURE_DEFAULTS)}")
    cfg = config if config is not None else FIGURE_DEFAULTS[name]
    cap = DENSE_DEFAULT_CAP if dense_cap is None else require_count(dense_cap, "dense cap", 0)
    results: list[TrialResult] = []
    dense_methods = tuple(m for m in cfg.methods if m in (METHOD_GE, METHOD_CG))
    fast_methods = tuple(m for m in cfg.methods if m not in (METHOD_GE, METHOD_CG))
    for P in cfg.p:
        methods = cfg.methods if P <= cap else fast_methods
        if not methods:
            continue
        sub = replace(cfg, p=(P,), methods=methods)
        results.extend(run_sweep(sub))
    if name == "fig6":
        # NFFT at eta = 6 plus the refined method at eta = 1 on the same trials
        results.extend(run_sweep(replace(cfg, eta=(1,), mu=(1e-8,), methods=(METHOD_RNFFT,))))
    if name in ("fig2", "fig3"):
        results = filter_best_mu(results)
    meta = {
        "figure": name,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "jitter_max": JITTER_MAX,
        "db_convention": "20*log10(relative_l2_error)",
        "rng": "philox(key=seed^trial)",
        "dense_cap": cap if dense_methods else None,
    }
    return results, meta
