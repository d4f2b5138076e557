"""Self-check suite: every fast path against its independent brute-force oracle.

All checks run at desk scale (P <= 64) in well under a second. Each check
is named so the CLI can report the first failure precisely; a fault hook
lets tests confirm the suite actually catches a corrupted pipeline.
"""

from __future__ import annotations

import inspect
from functools import partial

import numpy as np

from .baselines import ge_solve, type4_system, type5_system
from .flops import FlopCounter
from .forward import (
    nfft_type1,
    nfft_type1_direct,
    nfft_type2,
    nfft_type2_direct,
    nonuniform_conv,
)
from .grid import MethodParams, damping_from_mu, mu_from_damping, validate_grid
from .inverse import build_plan, refine_type5, type4, type5
from .lagrange import (
    compute_v_samples,
    derivative_samples,
    kernel_coefficients,
    kernel_samples_from_v,
)


class CheckFailure(AssertionError):
    pass


def _require(ok: bool, detail: str):
    if not ok:
        raise CheckFailure(detail)


def _rel(truth, est) -> float:
    return float(np.linalg.norm(np.asarray(truth) - np.asarray(est)) / np.linalg.norm(truth))


def _jittered(P, rng):
    return validate_grid(np.arange(P) / P + rng.uniform(0, 0.6 / P, P))


def _randc(P, rng):
    return rng.standard_normal(P) + 1j * rng.standard_normal(P)


def check_damping_round_trip(full: bool):
    for (mu, P, eta) in ((1e-13, 1024, 1), (1e-11, 64, 2), (1e-15, 4096, 6)):
        a = damping_from_mu(mu, P, eta)
        back = mu_from_damping(a, P, eta)
        _require(abs(back - mu) / mu < 1e-12,
                 f"truncation-ratio inversion off by {abs(back - mu) / mu:.2e}")


def check_dft_naive(full: bool):
    rng = np.random.default_rng(11)
    N = 8
    v = _randc(N, rng)
    naive = np.array([
        sum(v[q] * np.exp(-2j * np.pi * p * q / N) for q in range(N)) for p in range(N)
    ])
    err = float(np.abs(np.fft.fft(v) - naive).max())
    _require(err < 1e-13, f"forward transform deviates from naive summation by {err:.2e}")


def check_forward_oracle(full: bool, kind: int, seed: int):
    rng = np.random.default_rng(seed)
    for P in (16, 64) if full else (16,):
        grid = _jittered(P, rng)
        x = _randc(P, rng)
        if kind == 1:
            err = _rel(nfft_type1_direct(grid, x, P), nfft_type1(grid, x, P))
        else:
            err = _rel(nfft_type2_direct(x, grid), nfft_type2(x, grid))
        _require(err < 1e-12, f"type-{kind} fast path off by {err:.2e} at P={P}")


def check_adjoint_pairing(full: bool):
    rng = np.random.default_rng(14)
    P = 32
    grid = _jittered(P, rng)
    x, y = _randc(P, rng), _randc(P, rng)
    lhs = np.vdot(y, nfft_type1(grid, x, P))
    rhs = np.vdot(nfft_type2(y, grid), x)
    err = abs(lhs - rhs) / abs(lhs)
    _require(err < 1e-11, f"type-1/type-2 adjoint pairing broken: {err:.2e}")


def check_conv_oracle(full: bool):
    rng = np.random.default_rng(15)
    Q = P = 8
    eta = 2
    grid = _jittered(Q, rng)
    a = _randc(Q, rng)
    lam = _randc(eta * P, rng)
    got = nonuniform_conv(grid, a, lam, P)
    r = np.arange(eta * P)
    want = np.array([
        sum(
            a[q] * np.sum(lam * np.exp(2j * np.pi * r * (k / P - grid.instants[q])))
            for q in range(Q)
        )
        for k in range(P)
    ])
    err = _rel(want, got)
    _require(err < 1e-11, f"nonuniform convolution off by {err:.2e}")


def _small_plan(P, rng, mu=1e-11, eta=2):
    grid = _jittered(P, rng)
    params = MethodParams.from_mu(mu, P, eta)
    return grid, params


def check_v_samples(full: bool):
    rng = np.random.default_rng(16)
    P = 8
    grid, params = _small_plan(P, rng)
    v = compute_v_samples(grid, params)
    q = np.arange(P) / P
    direct = np.array([
        np.sum(np.log(1 - np.exp(2j * np.pi * (qq - grid.instants + 1j * params.damping_a))))
        for qq in q
    ])
    tol = 10 * params.mu * P + 1e-12
    err = float(np.abs(v - direct).max())
    _require(err < tol, f"log-sum samples off by {err:.2e} (tolerance {tol:.2e})")


def check_kernel_samples(full: bool):
    rng = np.random.default_rng(17)
    P = 8
    grid, params = _small_plan(P, rng)
    ks = kernel_samples_from_v(compute_v_samples(grid, params), grid)
    z = np.exp(2j * np.pi * (np.arange(P) / P + 1j * params.damping_a))
    direct = np.array([np.prod(zz - np.exp(2j * np.pi * grid.instants)) for zz in z])
    err = _rel(direct, ks)
    _require(err < 1e-11, f"kernel samples off by {err:.2e}")


def check_coefficient_recovery(full: bool, corrupt: bool = False):
    rng = np.random.default_rng(18)
    P = 8
    grid, params = _small_plan(P, rng)
    ks = kernel_samples_from_v(compute_v_samples(grid, params), grid)
    coeffs = kernel_coefficients(ks, params)
    if corrupt:
        # fault hook: simulate a corrupted undamping vector
        coeffs = coeffs * np.exp(2.0 * np.pi * params.damping_a * 0.5)
    poly = np.array([1.0 + 0j])
    for tp in grid.instants:
        poly = np.convolve(poly, np.array([-np.exp(2j * np.pi * tp), 1.0]))
    err = _rel(poly[:P], coeffs)
    _require(err < 1e-10, f"coefficient recovery off by {err:.2e}")
    _require(abs(poly[P] - 1.0) < 1e-12, "leading coefficient deviates from one")


def check_derivative_oracle(full: bool):
    rng = np.random.default_rng(19)
    for P in (8, 32) if full else (8,):
        grid, params = _small_plan(P, rng)
        ks = kernel_samples_from_v(compute_v_samples(grid, params), grid)
        dL = derivative_samples(kernel_coefficients(ks, params), grid)
        z = np.exp(2j * np.pi * grid.instants)
        direct = np.array([np.prod(z[j] - np.delete(z, j)) for j in range(P)])
        err = _rel(direct, dL)
        _require(err < 1e-10, f"derivative samples off by {err:.2e} at P={P}")


def check_dense_solve(full: bool, kind: int, seed: int):
    system, solve = (type4_system, type4) if kind == 4 else (type5_system, type5)
    rng = np.random.default_rng(seed)
    for P, tol in ((8, 1e-10), (32, 1e-9)) if full else ((8, 1e-10),):
        grid, params = _small_plan(P, rng)
        plan = build_plan(grid, params)
        rhs = _randc(P, rng)
        err = _rel(ge_solve(system(grid, rhs)), solve(plan, rhs))
        _require(err < tol, f"type-{kind} solve deviates from dense solve by {err:.2e} at P={P}")


def check_uniform_closed_forms(full: bool):
    rng = np.random.default_rng(22)
    P = 16
    grid = validate_grid(np.arange(P) / P)
    params = MethodParams.from_mu(1e-14, P, 6)
    plan = build_plan(grid, params)
    expected = np.zeros(P, dtype=complex)
    expected[0] = -1.0
    err = float(np.abs(plan.coefficients - expected).max())
    _require(err < 1e-12, f"uniform-grid coefficients deviate by {err:.2e}")
    dL_expected = P * np.exp(-2j * np.pi * np.arange(P) / P)
    err = _rel(dL_expected, plan.derivative_samples)
    _require(err < 1e-12, f"uniform-grid derivative samples deviate by {err:.2e}")
    s = _randc(P, rng)
    err = _rel(np.fft.fft(s) / P, type5(plan, s))
    _require(err < 1e-12, f"uniform-grid type-5 deviates from forward transform by {err:.2e}")
    A = _randc(P, rng)
    err = _rel(np.fft.ifft(A), type4(plan, A))
    _require(err < 1e-12, f"uniform-grid type-4 deviates from inverse transform by {err:.2e}")


def check_refinement_contraction(full: bool):
    rng = np.random.default_rng(23)
    P = 64
    grid = _jittered(P, rng)
    params = MethodParams.from_mu(1e-6, P, 1)
    plan = build_plan(grid, params)
    S_true = _randc(P, rng)
    samples = nfft_type2_direct(S_true, grid)
    e0 = _rel(S_true, type5(plan, samples))
    e1 = _rel(S_true, refine_type5(plan, samples, passes=1))
    _require(e1 < e0, f"refinement did not contract: {e0:.2e} -> {e1:.2e}")


def check_flop_duality(full: bool):
    rng = np.random.default_rng(24)
    P = 16
    grid, params = _small_plan(P, rng)
    plan = build_plan(grid, params)
    c5, c4 = FlopCounter(), FlopCounter()
    type5(plan, _randc(P, rng), flops=c5)
    type4(plan, _randc(P, rng), flops=c4)
    _require(
        c5.report() == c4.report(),
        "type-4 and type-5 flop reports differ on one plan",
    )


# (name, callable, part of the quick level)
CHECKS = (
    ("damping-round-trip", check_damping_round_trip, True),
    ("dft-naive-oracle", check_dft_naive, True),
    ("type1-direct-oracle", partial(check_forward_oracle, kind=1, seed=12), True),
    ("type2-direct-oracle", partial(check_forward_oracle, kind=2, seed=13), True),
    ("adjoint-pairing", check_adjoint_pairing, True),
    ("conv-direct-oracle", check_conv_oracle, True),
    ("v-samples-log-oracle", check_v_samples, True),
    ("kernel-sample-product-oracle", check_kernel_samples, True),
    ("kernel-coefficient-recovery", check_coefficient_recovery, True),
    ("derivative-product-oracle", check_derivative_oracle, True),
    ("type5-dense-solve-oracle", partial(check_dense_solve, kind=5, seed=20), True),
    ("type4-dense-solve-oracle", partial(check_dense_solve, kind=4, seed=21), True),
    ("uniform-closed-forms", check_uniform_closed_forms, True),
    ("refinement-contraction", check_refinement_contraction, False),
    ("flop-duality", check_flop_duality, False),
)


def run_checks(level: str = "quick", corrupt: str | None = None):
    """Run the named self-checks; returns [(name, passed, detail)].

    ``corrupt`` injects a fault into the named check (negative control for
    the verification machinery itself); only checks that take a ``corrupt``
    argument have a fault hook, and naming any other raises ValueError.
    """
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    hooks = [name for name, fn, _ in CHECKS if "corrupt" in inspect.signature(fn).parameters]
    if corrupt is not None and corrupt not in hooks:
        raise ValueError(f"no check has a fault hook named {corrupt!r} (hooks: {hooks})")
    full = level == "full"
    outcomes = []
    for name, fn, in_quick in CHECKS:
        if not full and not in_quick:
            continue
        try:
            if name == corrupt:
                fn(full, corrupt=True)
            else:
                fn(full)
        except CheckFailure as exc:
            outcomes.append((name, False, str(exc)))
        except Exception as exc:  # pragma: no cover - unexpected blowup
            outcomes.append((name, False, f"{type(exc).__name__}: {exc}"))
        else:
            outcomes.append((name, True, ""))
    return outcomes
