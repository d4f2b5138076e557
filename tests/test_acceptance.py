"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
measurements as they happen.
"""

import math
import time

import numpy as np

from nufft1d import (
    FlopCounter,
    MethodParams,
    build_plan,
    cg_solve,
    ge_solve,
    generate_trial,
    nfft_type1,
    nfft_type1_direct,
    nfft_type2,
    nfft_type2_direct,
    refine_type4,
    relative_error,
    type4,
    type4_system,
    type5,
    type5_system,
    validate_grid,
)
from nufft1d.bench import MU_SWEEP_DEFAULT, to_db


def _report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def test_criterion_1_forward_oracle_equivalence():
    """Fast type-1/type-2 vs direct summation, 50 jittered instances per size."""
    start = time.time()
    worst = 0.0
    for P in (8, 16, 64, 256):
        for trial in range(50):
            grid, a = generate_trial(P, 1000 + trial)
            e1 = relative_error(nfft_type1_direct(grid, a, P), nfft_type1(grid, a, P))
            e2 = relative_error(nfft_type2_direct(a, grid), nfft_type2(a, grid))
            worst = max(worst, e1, e2)
    elapsed = time.time() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    _report(1, ok, f"worst relative error {worst:.3e} (<= 1e-12), {elapsed:.1f}s (< 10s)")


def test_criterion_2_desk_scale_inverse_vs_dense():
    """type5/type4 against dense elimination at eta=2, mu=1e-15."""
    start = time.time()
    worst = 0.0
    detail = []
    for P in (8, 32, 128):
        params = MethodParams.from_mu(1e-15, P, eta=2)
        worst_p = 0.0
        for trial in range(20):
            grid, _ = generate_trial(P, 2000 + trial)
            rng = np.random.default_rng(3000 + trial)
            plan = build_plan(grid, params)
            s = rng.standard_normal(P) + 1j * rng.standard_normal(P)
            e5 = relative_error(ge_solve(type5_system(grid), s), type5(plan, s))
            A = rng.standard_normal(P) + 1j * rng.standard_normal(P)
            e4 = relative_error(ge_solve(type4_system(grid), A), type4(plan, A))
            worst_p = max(worst_p, e4, e5)
        detail.append(f"P={P}: {worst_p:.3e}")
        worst = max(worst, worst_p)
    elapsed = time.time() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(2, ok, f"worst relative error {worst:.3e} (<= 1e-9); " + "; ".join(detail)
            + f"; {elapsed:.1f}s (< 30s)")


def _floor_db(P, eta, trials=10):
    """Best mean error over the default mu sweep."""
    cases = []
    for trial in range(trials):
        grid, a_true = generate_trial(P, 4000 + trial)
        cases.append((grid, a_true, nfft_type1_direct(grid, a_true, P)))
    best = math.inf
    for mu in MU_SWEEP_DEFAULT:
        if mu * (eta * P - 1) >= 1.0:
            continue
        params = MethodParams.from_mu(mu, P, eta)
        errs = []
        for grid, a_true, spectrum in cases:
            plan = build_plan(grid, params)
            errs.append(relative_error(a_true, type4(plan, spectrum)))
        best = min(best, to_db(sum(errs) / len(errs)))
    return best


def test_criterion_3_error_floor_reproduction():
    """Error floors at P=1024: about -160 dB plain, about -220 dB oversampled 6x."""
    start = time.time()
    floor1 = _floor_db(1024, 1)
    floor6 = _floor_db(1024, 6)
    elapsed = time.time() - start
    ok1 = -175.0 <= floor1 <= -145.0
    ok6 = -240.0 <= floor6 <= -200.0
    ok = ok1 and ok6 and elapsed < 300.0
    _report(3, ok, f"eta=1 floor {floor1:.1f} dB (-160 +/- 15); "
                   f"eta=6 floor {floor6:.1f} dB (-220 +/- 20); {elapsed:.0f}s (< 300s)")


def test_criterion_4_refined_method_reaches_dense_accuracy():
    """One refinement pass at eta=1, best mu, within 10 dB of elimination."""
    start = time.time()
    details = []
    ok = True
    for P in (256, 1024):
        ge_db = []
        cases = []
        for trial in range(10):
            grid, a_true = generate_trial(P, 5000 + trial)
            spectrum = nfft_type1_direct(grid, a_true, P)
            cases.append((grid, a_true, spectrum))
            ge_db.append(to_db(relative_error(a_true, ge_solve(type4_system(grid), spectrum))))
        ge_mean = sum(ge_db) / len(ge_db)
        best = math.inf
        for mu in MU_SWEEP_DEFAULT:
            if mu * (P - 1) >= 1.0:
                continue
            params = MethodParams.from_mu(mu, P, eta=1)
            errs = []
            for grid, a_true, spectrum in cases:
                plan = build_plan(grid, params)
                errs.append(relative_error(a_true, refine_type4(plan, spectrum, passes=1)))
            best = min(best, to_db(sum(errs) / len(errs)))
        gap = best - ge_mean
        details.append(f"P={P}: R-NFFT {best:.1f} dB vs GE {ge_mean:.1f} dB, gap {gap:.1f} dB")
        ok = ok and gap <= 10.0
    elapsed = time.time() - start
    ok = ok and elapsed < 600.0
    _report(4, ok, "; ".join(details) + f"; {elapsed:.0f}s (< 600s)")


def test_criterion_5_flop_advantage_over_cg():
    """Analytic flop total, oversampled-6x inverse vs CG at machine tolerance."""
    P = 1024
    grid, a_true = generate_trial(P, 6000)
    spectrum = nfft_type1_direct(grid, a_true, P)
    nfft_counter = FlopCounter()
    plan = build_plan(grid, MethodParams.from_mu(1e-15, P, eta=6), flops=nfft_counter)
    type4(plan, spectrum, flops=nfft_counter)
    nfft_total = nfft_counter.report().total_flops
    cg_counter = FlopCounter()
    res = cg_solve(grid, spectrum, "type4", tol=1e-15, flops=cg_counter)
    cg_total = cg_counter.report().total_flops
    ok = nfft_total * 10 < cg_total
    _report(5, ok, f"NFFT(eta=6) {nfft_total} flops vs CG {cg_total} flops "
                   f"({res.iterations} iterations): ratio {cg_total / nfft_total:.1f}x (> 10x)")


def test_criterion_6_duality():
    """Identical flop reports for the two inverse types; dual error means within 3 dB."""
    P, eta, mu = 256, 2, 1e-11
    params = MethodParams.from_mu(mu, P, eta)
    err4, err5 = [], []
    report4 = report5 = None
    for trial in range(10):
        grid, coeffs = generate_trial(P, 7000 + trial)
        # type-4 problem: amplitudes -> spectrum (exact); type-5 dual:
        # coefficients -> samples (exact)
        spectrum = nfft_type1_direct(grid, coeffs, P)
        samples = nfft_type2_direct(coeffs, grid)
        plan_counter = FlopCounter()
        plan = build_plan(grid, params, flops=plan_counter)
        c4 = FlopCounter(); c4.merge(plan_counter)
        c5 = FlopCounter(); c5.merge(plan_counter)
        err4.append(to_db(relative_error(coeffs, type4(plan, spectrum, flops=c4))))
        err5.append(to_db(relative_error(coeffs, type5(plan, samples, flops=c5))))
        report4, report5 = c4.report(), c5.report()
        assert report4 == report5
    mean4 = sum(err4) / len(err4)
    mean5 = sum(err5) / len(err5)
    ok = report4 == report5 and abs(mean4 - mean5) <= 3.0
    _report(6, ok, f"flop reports identical ({report4.total_flops} flops); "
                   f"mean errors {mean4:.1f} vs {mean5:.1f} dB (within 3 dB)")


def test_criterion_7_refinement_contraction():
    """One pass shrinks the error exponent by at least half again."""
    P = 256
    params = MethodParams.from_mu(1e-6, P, eta=1)
    wins = 0
    pairs = []
    for trial in range(10):
        grid, a_true = generate_trial(P, 8000 + trial)
        spectrum = nfft_type1_direct(grid, a_true, P)
        plan = build_plan(grid, params)
        e_plain = relative_error(a_true, type4(plan, spectrum))
        e_ref = relative_error(a_true, refine_type4(plan, spectrum, passes=1))
        pairs.append((e_plain, e_ref))
        if math.log10(e_ref) <= 1.5 * math.log10(e_plain):
            wins += 1
    ok = wins >= 9
    sample = pairs[0]
    _report(7, ok, f"{wins}/10 trials contracted (need >= 9); "
                   f"example {sample[0]:.2e} -> {sample[1]:.2e}")


def test_criterion_8_uniform_grid_closed_forms():
    """Closed-form identities on the exactly uniform grid."""
    start = time.time()
    P = 16
    rng = np.random.default_rng(9000)
    grid = validate_grid(np.arange(P) / P)
    plan = build_plan(grid, MethodParams.from_mu(1e-14, P, eta=6))
    expected_coeffs = np.zeros(P, dtype=complex)
    expected_coeffs[0] = -1.0
    e_coef = float(np.abs(plan.coefficients - expected_coeffs).max())
    expected_dl = P * np.exp(-2j * np.pi * np.arange(P) / P)
    e_dl = relative_error(expected_dl, plan.derivative_samples)
    A = rng.standard_normal(P) + 1j * rng.standard_normal(P)
    e_t4 = relative_error(np.fft.ifft(A), type4(plan, A))
    s = rng.standard_normal(P) + 1j * rng.standard_normal(P)
    e_t5 = relative_error(np.fft.fft(s) / P, type5(plan, s))
    elapsed = time.time() - start
    worst = max(e_coef, e_dl, e_t4, e_t5)
    ok = worst <= 1e-12
    _report(8, ok, f"worst closed-form deviation {worst:.2e} (<= 1e-12); "
                   f"coeffs {e_coef:.1e}, derivative {e_dl:.1e}, "
                   f"inverse {e_t4:.1e}/{e_t5:.1e}; {elapsed * 1000:.0f}ms")
