"""Self-check suite: every fast path against its independent brute-force oracle.

All checks run at desk scale (P <= 64) in well under a second. Each check
is named so the CLI can report the first failure precisely. The O(P^2)
oracles are public, and the test suite uses them too. Grids and vectors
are drawn by ``bench.jittered`` and ``bench.randc``, the draws of
``bench.generate_trial``; errors are ``bench.relative_error``.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .baselines import ge_solve, type4_system, type5_system
from .bench import jittered, randc, relative_error
from .flops import FlopCounter
from .forward import (
    nfft_type1,
    nfft_type1_direct,
    nfft_type2,
    nfft_type2_direct,
    nonuniform_conv,
)
from .grid import MethodParams, validate_grid
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


def conv_direct(grid, a, lam, P):
    """sum_q a_q sum_r lam_r e^{2 pi i r (k/P - t_q)} for k < P, by direct sums."""
    r = np.arange(len(lam))
    return np.array([
        sum(aq * np.sum(lam * np.exp(2j * np.pi * r * (k / P - tq)))
            for aq, tq in zip(a, grid.instants))
        for k in range(P)
    ])


def v_direct(grid, a):
    """Log-sum v(q/P) = sum_p log(1 - e^{2 pi i (q/P - t_p + i a)}), by direct sums."""
    q = np.arange(grid.size) / grid.size
    return np.array([
        np.sum(np.log(1 - np.exp(2j * np.pi * (qq - grid.instants + 1j * a)))) for qq in q
    ])


def kernel_samples_direct(grid, a):
    """Damped samples L(e^{2 pi i (q/P + i a)}) as products of root differences."""
    z = np.exp(2j * np.pi * (np.arange(grid.size) / grid.size + 1j * a))
    return np.array([np.prod(zz - np.exp(2j * np.pi * grid.instants)) for zz in z])


def polynomial_coefficients(grid):
    """Monomial coefficients of L, low to high degree, by convolving its P linear factors."""
    c = np.array([1.0 + 0j])
    for t in grid.instants:
        c = np.convolve(c, np.array([-np.exp(2j * np.pi * t), 1.0]))
    return c


def derivative_direct(grid):
    """L'(z_p) = prod_{j != p} (z_p - z_j) at the nodes z_p = e^{2 pi i t_p}."""
    z = np.exp(2j * np.pi * grid.instants)
    return np.array([np.prod(z[j] - np.delete(z, j)) for j in range(grid.size)])


def check_dft_naive():
    rng = np.random.default_rng(11)
    N = 8
    v = randc(N, rng)
    naive = np.array([
        sum(v[q] * np.exp(-2j * np.pi * p * q / N) for q in range(N)) for p in range(N)
    ])
    err = float(np.abs(np.fft.fft(v) - naive).max())
    _require(err < 1e-13, f"forward transform deviates from naive summation by {err:.2e}")


def check_forward_oracle(kind: int, seed: int):
    rng = np.random.default_rng(seed)
    for P in (16, 64):
        grid = jittered(P, rng)
        x = randc(P, rng)
        if kind == 1:
            err = relative_error(nfft_type1_direct(grid, x, P), nfft_type1(grid, x, P))
        else:
            err = relative_error(nfft_type2_direct(x, grid), nfft_type2(x, grid))
        _require(err < 1e-12, f"type-{kind} fast path off by {err:.2e} at P={P}")


def check_adjoint_pairing():
    rng = np.random.default_rng(14)
    P = 32
    grid = jittered(P, rng)
    x, y = randc(P, rng), randc(P, rng)
    lhs = np.vdot(y, nfft_type1(grid, x, P))
    rhs = np.vdot(nfft_type2(y, grid), x)
    err = abs(lhs - rhs) / abs(lhs)
    _require(err < 1e-11, f"type-1/type-2 adjoint pairing broken: {err:.2e}")


def check_conv_oracle():
    rng = np.random.default_rng(15)
    P = 8
    grid = jittered(P, rng)
    lam = rng.standard_normal(2 * P)
    err = relative_error(conv_direct(grid, np.ones(P), lam, P), nonuniform_conv(grid, lam, P))
    _require(err < 1e-11, f"nonuniform convolution off by {err:.2e}")


def _small_plan(P, rng, mu=1e-11):
    grid = jittered(P, rng)
    params = MethodParams.from_mu(mu, P, 2)
    return grid, params


def check_v_samples():
    rng = np.random.default_rng(16)
    P, mu = 8, 1e-11
    grid, params = _small_plan(P, rng, mu)
    v = compute_v_samples(grid, params)
    tol = 10 * mu * P + 1e-12
    err = float(np.abs(v - v_direct(grid, params.damping_a)).max())
    _require(err < tol, f"log-sum samples off by {err:.2e} (tolerance {tol:.2e})")


def check_kernel_samples():
    rng = np.random.default_rng(17)
    P = 8
    grid, params = _small_plan(P, rng)
    ks = kernel_samples_from_v(compute_v_samples(grid, params), grid)
    err = relative_error(kernel_samples_direct(grid, params.damping_a), ks)
    _require(err < 1e-11, f"kernel samples off by {err:.2e}")


def check_coefficient_recovery():
    rng = np.random.default_rng(18)
    P = 8
    grid, params = _small_plan(P, rng)
    ks = kernel_samples_from_v(compute_v_samples(grid, params), grid)
    coeffs = kernel_coefficients(ks, params)
    poly = polynomial_coefficients(grid)
    err = relative_error(poly[:P], coeffs)
    _require(err < 1e-10, f"coefficient recovery off by {err:.2e}")
    _require(abs(poly[P] - 1.0) < 1e-12, "leading coefficient deviates from one")


def check_derivative_oracle():
    rng = np.random.default_rng(19)
    for P in (8, 32):
        grid, params = _small_plan(P, rng)
        ks = kernel_samples_from_v(compute_v_samples(grid, params), grid)
        dL = derivative_samples(kernel_coefficients(ks, params), grid)
        err = relative_error(derivative_direct(grid), dL)
        _require(err < 1e-10, f"derivative samples off by {err:.2e} at P={P}")


def check_dense_solve(kind: int, seed: int):
    system, solve = (type4_system, type4) if kind == 4 else (type5_system, type5)
    rng = np.random.default_rng(seed)
    for P, tol in ((8, 1e-10), (32, 1e-9)):
        grid, params = _small_plan(P, rng)
        plan = build_plan(grid, params)
        rhs = randc(P, rng)
        err = relative_error(ge_solve(system(grid), rhs), solve(plan, rhs))
        _require(err < tol, f"type-{kind} solve deviates from dense solve by {err:.2e} at P={P}")


def check_uniform_closed_forms():
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
    err = relative_error(dL_expected, plan.derivative_samples)
    _require(err < 1e-12, f"uniform-grid derivative samples deviate by {err:.2e}")
    s = randc(P, rng)
    err = relative_error(np.fft.fft(s) / P, type5(plan, s))
    _require(err < 1e-12, f"uniform-grid type-5 deviates from forward transform by {err:.2e}")
    A = randc(P, rng)
    err = relative_error(np.fft.ifft(A), type4(plan, A))
    _require(err < 1e-12, f"uniform-grid type-4 deviates from inverse transform by {err:.2e}")


def check_refinement_contraction():
    rng = np.random.default_rng(23)
    P = 64
    grid = jittered(P, rng)
    params = MethodParams.from_mu(1e-6, P, 1)
    plan = build_plan(grid, params)
    S_true = randc(P, rng)
    samples = nfft_type2_direct(S_true, grid)
    e0 = relative_error(S_true, type5(plan, samples))
    e1 = relative_error(S_true, refine_type5(plan, samples, passes=1))
    _require(e1 < e0, f"refinement did not contract: {e0:.2e} -> {e1:.2e}")


def check_flop_duality():
    rng = np.random.default_rng(24)
    P = 16
    grid, params = _small_plan(P, rng)
    plan = build_plan(grid, params)
    c5, c4 = FlopCounter(), FlopCounter()
    type5(plan, randc(P, rng), flops=c5)
    type4(plan, randc(P, rng), flops=c4)
    _require(
        c5.report() == c4.report(),
        "type-4 and type-5 flop reports differ on one plan",
    )


# (name, callable), run in this order
CHECKS = (
    ("dft-naive-oracle", check_dft_naive),
    ("type1-direct-oracle", partial(check_forward_oracle, kind=1, seed=12)),
    ("type2-direct-oracle", partial(check_forward_oracle, kind=2, seed=13)),
    ("adjoint-pairing", check_adjoint_pairing),
    ("conv-direct-oracle", check_conv_oracle),
    ("v-samples-log-oracle", check_v_samples),
    ("kernel-sample-product-oracle", check_kernel_samples),
    ("kernel-coefficient-recovery", check_coefficient_recovery),
    ("derivative-product-oracle", check_derivative_oracle),
    ("type5-dense-solve-oracle", partial(check_dense_solve, kind=5, seed=20)),
    ("type4-dense-solve-oracle", partial(check_dense_solve, kind=4, seed=21)),
    ("uniform-closed-forms", check_uniform_closed_forms),
    ("refinement-contraction", check_refinement_contraction),
    ("flop-duality", check_flop_duality),
)


def run_checks():
    """Run every self-check; returns [(name, passed, detail)]."""
    outcomes = []
    for name, fn in CHECKS:
        try:
            fn()
        except CheckFailure as exc:
            outcomes.append((name, False, str(exc)))
        except Exception as exc:  # pragma: no cover - unexpected blowup
            outcomes.append((name, False, f"{type(exc).__name__}: {exc}"))
        else:
            outcomes.append((name, True, ""))
    return outcomes
