"""Monte-Carlo benchmark engine: grids, error measurement, parameter sweeps.

Trials draw a jittered regular grid and unit-variance circular complex
Gaussian amplitudes from a counter-based Philox generator, so runs are
reproducible from (seed, trial index) alone; per-trial streams use
key = seed XOR trial. Ground truth is always the generated amplitude
vector, and the spectrum handed to the solvers comes from the exact
direct summation, never the fast transform, so method error stays
unconfounded.

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
    NonConvergenceError,
    NonPositiveDampingError,
    ZeroReferenceError,
)
from .flops import FlopCounter
from .forward import nfft_type1_direct
from .grid import DEFAULT_SPREAD_WIDTH, MethodParams, validate_grid
from .inverse import build_plan, refine_type4, type4

GE_SIZE_CAP = 8192

CG_TOL = 1e-15

MU_SWEEP_DEFAULT = tuple(float(m) for m in np.logspace(-18.0, -4.0, 29))

METHOD_GE = "GE"
METHOD_CG = "CG"
METHOD_NFFT = "NFFT"
METHOD_RNFFT = "R-NFFT"
ALL_METHODS = (METHOD_GE, METHOD_CG, METHOD_NFFT, METHOD_RNFFT)


@dataclass(frozen=True)
class TrialConfig:
    """One sweep specification. Scalar fields accept tuples to sweep."""

    p: tuple[int, ...] = (1024,)
    eta: tuple[int, ...] = (1,)
    mu: tuple[float, ...] = MU_SWEEP_DEFAULT
    trials: int = 10
    seed: int = 0
    methods: tuple[str, ...] = ALL_METHODS
    jitter_max: float = 0.6
    spread_width: int = DEFAULT_SPREAD_WIDTH
    refine_passes: int = 1

    def __post_init__(self):
        for name, low in (("p", 2), ("eta", 1)):
            for value in getattr(self, name):
                if not (isinstance(value, numbers.Real) and value >= low
                        and float(value).is_integer()):
                    raise ValueError(f"{name} values must be integers >= {low}, got {value!r}")
        for mu in self.mu:
            # mu * (eta P - 1) >= 1 is a per-cell skip in run_sweep, not a config error
            if not 0.0 < mu < 1.0:
                raise ValueError(f"mu values must lie in (0, 1), got {mu!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0.0 <= self.jitter_max < 1.0:
            raise ValueError("jitter_max must lie in [0, 1) to keep nodes distinct")
        if self.refine_passes < 0:
            raise ValueError(f"refine_passes must be >= 0, got {self.refine_passes}")
        for m in self.methods:
            if m not in ALL_METHODS:
                raise ValueError(f"unknown method {m!r}")


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


def generate_trial(P: int, seed: int, jitter_max: float = 0.6):
    """Jittered grid t_p = p/P + U[0, jitter_max/P) and CN(0, 1) amplitudes."""
    if P < 2:
        raise ValueError("need P >= 2 for a jittered grid")
    rng = np.random.Generator(np.random.Philox(key=seed))
    jitter = rng.uniform(0.0, jitter_max / P, size=P)
    grid = validate_grid(np.arange(P) / P + jitter)
    amplitudes = (rng.standard_normal(P) + 1j * rng.standard_normal(P)) / math.sqrt(2.0)
    return grid, amplitudes


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

    GE and CG are parameter-free and run once per trial; the fast methods
    run once per (eta, mu) pair, sharing one plan between the plain and
    refined solves. Infeasible (mu, eta) pairs (truncation too loose to
    need damping) are skipped, as are multi-pass refinement cells whose
    residuals grow (method error above one at that corner of the sweep).
    Deliberately over-damped corners would also spam amplification
    warnings, so those are suppressed here.
    """
    results: list[TrialResult] = []
    dense = [m for m in (METHOD_GE,) if m in config.methods]
    if dense and max(config.p) > GE_SIZE_CAP:
        raise ValueError(f"GE requested above the P = {GE_SIZE_CAP} dense-solver cap")
    fast = [m for m in (METHOD_NFFT, METHOD_RNFFT) if m in config.methods]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AmplificationWarning)
        for P in config.p:
            for trial in range(config.trials):
                tseed = config.seed ^ trial
                grid, a_true = generate_trial(P, tseed, config.jitter_max)
                spectrum = nfft_type1_direct(grid, a_true, P)

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
                    x = ge_solve(type4_system(grid, spectrum, flops=counter), flops=counter)
                    record(METHOD_GE, x, counter)
                if METHOD_CG in config.methods:
                    counter = FlopCounter()
                    res = cg_solve(
                        grid, spectrum, "type4",
                        tol=CG_TOL,
                        spread_width=config.spread_width,
                        flops=counter,
                    )
                    record(METHOD_CG, res.solution, counter, cg_iterations=res.iterations)
                if not fast:
                    continue
                for eta in config.eta:
                    for mu in config.mu:
                        try:
                            params = MethodParams.from_mu(
                                mu, P, eta, spread_width=config.spread_width
                            )
                        except NonPositiveDampingError:
                            continue
                        plan_counter = FlopCounter()
                        plan = build_plan(grid, params, flops=plan_counter)
                        if METHOD_NFFT in config.methods:
                            counter = FlopCounter()
                            counter.merge(plan_counter)
                            x = type4(plan, spectrum, flops=counter)
                            record(METHOD_NFFT, x, counter, eta, mu)
                        if METHOD_RNFFT in config.methods:
                            counter = FlopCounter()
                            counter.merge(plan_counter)
                            try:
                                x = refine_type4(
                                    plan, spectrum, passes=config.refine_passes, flops=counter
                                )
                            except NonConvergenceError:
                                continue
                            record(METHOD_RNFFT, x, counter, eta, mu)
    return results


def best_mu(results: list[TrialResult], method: str) -> dict[tuple[int, int], float]:
    """Per-(P, eta) mu minimizing the mean error over trials (sweep protocol)."""
    sums: dict[tuple[int, int, float], list[float]] = {}
    for r in results:
        if r.method != method or r.mu is None:
            continue
        sums.setdefault((r.p, r.eta, r.mu), []).append(r.error_linear)
    winners: dict[tuple[int, int], tuple[float, float]] = {}
    for (p, eta, mu), errs in sums.items():
        mean = sum(errs) / len(errs)
        cur = winners.get((p, eta))
        if cur is None or mean < cur[0]:
            winners[(p, eta)] = (mean, mu)
    return {key: mu for key, (_, mu) in winners.items()}


def filter_best_mu(results: list[TrialResult], method: str) -> list[TrialResult]:
    """Keep dense-solver rows plus the best-mu rows of ``method``."""
    winners = best_mu(results, method)
    kept = []
    for r in results:
        if r.mu is None:
            kept.append(r)
        elif r.method == method and winners.get((r.p, r.eta)) == r.mu:
            kept.append(r)
    return kept


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

# Dense solves above this size take minutes to hours; figure protocols drop
# GE/CG rows there unless explicitly overridden.
DENSE_DEFAULT_CAP = 1024


def run_figure(name: str, config: TrialConfig | None = None, dense_cap: int | None = None):
    """Run one figure protocol, returning (records, metadata)."""
    if name not in FIGURE_DEFAULTS:
        raise ValueError(f"unknown figure {name!r}; choose from {sorted(FIGURE_DEFAULTS)}")
    cfg = config if config is not None else FIGURE_DEFAULTS[name]
    cap = DENSE_DEFAULT_CAP if dense_cap is None else dense_cap
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
        results = filter_best_mu(results, METHOD_RNFFT)
    meta = {
        "figure": name,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "jitter_max": cfg.jitter_max,
        "db_convention": "20*log10(relative_l2_error)",
        "rng": "philox(key=seed^trial)",
        "dense_cap": cap if dense_methods else None,
    }
    return results, meta
