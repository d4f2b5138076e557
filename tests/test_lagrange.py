import numpy as np
import pytest

import nufft1d.lagrange as lagrange
from nufft1d import (
    AmplificationWarning,
    MethodParams,
    SingularDerivativeError,
    build_plan,
    compute_v_samples,
    derivative_samples,
    kernel_coefficients,
    kernel_samples_from_v,
    validate_grid,
)
from nufft1d.errors import KernelOverflowError


def jittered(P, rng, jitter=0.6):
    return validate_grid(np.arange(P) / P + rng.uniform(0, jitter / P, P))


def rel(truth, got):
    return np.linalg.norm(np.asarray(truth) - np.asarray(got)) / np.linalg.norm(truth)


def v_direct(grid, a):
    q = np.arange(grid.size) / grid.size
    return np.array([
        np.sum(np.log(1 - np.exp(2j * np.pi * (qq - grid.instants + 1j * a)))) for qq in q
    ])


def poly_coefficients(grid):
    """Monomial-convolution expansion, low to high degree; valid at small P."""
    c = np.array([1.0 + 0j])
    for t in grid.instants:
        c = np.convolve(c, np.array([-np.exp(2j * np.pi * t), 1.0]))
    return c


# --- v samples ------------------------------------------------------------------

def test_v_single_node():
    grid = validate_grid([0.0])
    params = MethodParams.from_mu(1e-12, 1, eta=4)
    v = compute_v_samples(grid, params)
    expected = np.log(1 - np.exp(-2 * np.pi * params.damping_a))
    assert abs(v[0] - expected) < 1e-11
    assert abs(v[0].imag) < 1e-11 and v[0].real < 0


def test_v_against_log_sum():
    rng = np.random.default_rng(0)
    P = 8
    grid = jittered(P, rng)
    params = MethodParams.from_mu(1e-13, P, eta=2)
    v = compute_v_samples(grid, params)
    err = np.abs(v - v_direct(grid, params.damping_a)).max()
    assert err < 10 * params.mu * P + 1e-12


@pytest.mark.parametrize("eta", [1, 2])
def test_v_default_kernel_follows_spread_width(eta):
    # without kernel=, the samples grid at params.spread_width, as build_plan does
    grid = jittered(64, np.random.default_rng(7))
    params = MethodParams.from_mu(1e-12, 64, eta, spread_width=6)
    ks = kernel_samples_from_v(compute_v_samples(grid, params), grid)
    assert ks.tobytes() == build_plan(grid, params).kernel_samples.tobytes()


def test_v_truncation_shrinks_with_eta():
    rng = np.random.default_rng(1)
    P = 8
    grid = jittered(P, rng)
    a = 0.05
    errs = []
    for eta in (1, 2):
        params = MethodParams.from_damping(a, P, eta)
        v = compute_v_samples(grid, params)
        errs.append(np.abs(v - v_direct(grid, a)).max())
    assert errs[1] < errs[0]


# --- kernel samples ---------------------------------------------------------------

def test_kernel_samples_uniform_closed_form():
    P = 8
    grid = validate_grid(np.arange(P) / P)
    params = MethodParams.from_mu(1e-13, P, eta=2)
    ks = kernel_samples_from_v(compute_v_samples(grid, params), grid)
    expected = np.exp(-2 * np.pi * P * params.damping_a) - 1.0
    assert np.abs(ks - expected).max() < 1e-11


def test_kernel_samples_single_node():
    grid = validate_grid([0.0])
    params = MethodParams.from_mu(1e-12, 1, eta=4)
    ks = kernel_samples_from_v(compute_v_samples(grid, params), grid)
    expected = np.exp(-2 * np.pi * params.damping_a) - 1.0
    assert abs(ks[0] - expected) < 1e-11


def test_kernel_samples_product_oracle():
    rng = np.random.default_rng(2)
    P = 8
    grid = jittered(P, rng)
    params = MethodParams.from_mu(1e-13, P, eta=2)
    ks = kernel_samples_from_v(compute_v_samples(grid, params), grid)
    z = np.exp(2j * np.pi * (np.arange(P) / P + 1j * params.damping_a))
    direct = np.array([np.prod(zz - np.exp(2j * np.pi * grid.instants)) for zz in z])
    assert rel(direct, ks) < 1e-11


def test_kernel_overflow_guard():
    grid = validate_grid([0.0, 0.5])
    huge = np.array([800.0 + 0j, -800.0 + 0j])
    with pytest.raises(KernelOverflowError):
        kernel_samples_from_v(huge, grid)


# --- coefficients ------------------------------------------------------------------

def test_coefficients_uniform_grid():
    P = 16
    grid = validate_grid(np.arange(P) / P)
    params = MethodParams.from_mu(1e-14, P, eta=6)
    L = kernel_coefficients(kernel_samples_from_v(compute_v_samples(grid, params), grid), params)
    expected = np.zeros(P, dtype=complex)
    expected[0] = -1.0
    assert np.abs(L - expected).max() < 1e-12


def test_coefficients_single_linear_factor():
    tau = 0.3173
    grid = validate_grid([tau])
    params = MethodParams.from_mu(1e-12, 1, eta=4)
    L = kernel_coefficients(kernel_samples_from_v(compute_v_samples(grid, params), grid), params)
    assert abs(L[0] + np.exp(2j * np.pi * tau)) < 1e-10


def test_coefficients_expansion_oracle():
    rng = np.random.default_rng(3)
    P = 8
    grid = jittered(P, rng)
    params = MethodParams.from_mu(1e-11, P, eta=2)
    L = kernel_coefficients(kernel_samples_from_v(compute_v_samples(grid, params), grid), params)
    poly = poly_coefficients(grid)
    assert rel(poly[:P], L) < 1e-10
    assert abs(poly[P] - 1.0) < 1e-12  # leading coefficient is one


def test_amplification_warning():
    P = 64
    params = MethodParams.from_damping(0.1, P, eta=1)
    ks = np.ones(P, dtype=complex)
    with pytest.warns(AmplificationWarning):
        kernel_coefficients(ks, params)


# --- derivative samples ------------------------------------------------------------

def test_derivative_uniform_closed_form():
    P = 16
    grid = validate_grid(np.arange(P) / P)
    params = MethodParams.from_mu(1e-14, P, eta=6)
    data = build_plan(grid, params)
    expected = P * np.exp(-2j * np.pi * np.arange(P) / P)
    assert rel(expected, data.derivative_samples) < 1e-12


def test_derivative_single_node():
    grid = validate_grid([0.77])
    params = MethodParams.from_mu(1e-12, 1, eta=4)
    data = build_plan(grid, params)
    assert abs(data.derivative_samples[0] - 1.0) < 1e-10


def test_derivative_oracles():
    rng = np.random.default_rng(4)
    P = 8
    grid = jittered(P, rng)
    params = MethodParams.from_mu(1e-11, P, eta=2)
    data = build_plan(grid, params)
    # oracle 1: differentiate the expansion, evaluate by Horner
    poly = poly_coefficients(grid)
    dpoly = poly[1:] * np.arange(1, P + 1)
    z = np.exp(2j * np.pi * grid.instants)
    horner = np.zeros(P, dtype=complex)
    for c in dpoly[::-1]:
        horner = horner * z + c
    assert rel(horner, data.derivative_samples) < 1e-10
    # oracle 2: product of root differences (well conditioned at any P)
    direct = np.array([np.prod(z[j] - np.delete(z, j)) for j in range(P)])
    assert rel(direct, data.derivative_samples) < 1e-10


def test_singular_derivative_guard(monkeypatch):
    P = 4
    grid = validate_grid(np.arange(P) / P)
    vanishing = np.array([1.0, 0.0, 1.0, 1.0], dtype=complex)
    monkeypatch.setattr(lagrange, "nfft_type2", lambda *a, **k: vanishing)
    with pytest.raises(SingularDerivativeError):
        derivative_samples(np.zeros(P, dtype=complex), grid)


# --- invariants --------------------------------------------------------------------

def test_node_order_invariance():
    rng = np.random.default_rng(5)
    P = 8
    t = np.sort(rng.uniform(0, 1, P))
    perm = rng.permutation(P)
    params = MethodParams.from_mu(1e-11, P, eta=2)
    d1 = build_plan(validate_grid(t), params)
    d2 = build_plan(validate_grid(t[perm]), params)
    # grid-indexed outputs permute; regular-grid outputs are order-free
    v1 = compute_v_samples(validate_grid(t), params)
    v2 = compute_v_samples(validate_grid(t[perm]), params)
    assert rel(v1, v2) < 1e-12
    assert rel(d1.kernel_samples, d2.kernel_samples) < 1e-12
    # coefficient recovery amplifies roundoff, so order sensitivity sits at
    # the method's own error level rather than machine precision
    assert rel(d1.coefficients, d2.coefficients) < 1e-9
    assert rel(d1.derivative_samples[perm], d2.derivative_samples) < 1e-9


def test_log_identity_up_to_winding():
    # exp(const + v) must reproduce the kernel product regardless of log branch
    rng = np.random.default_rng(6)
    P = 12
    grid = jittered(P, rng)
    params = MethodParams.from_mu(1e-13, P, eta=2)
    v = compute_v_samples(grid, params)
    ks = kernel_samples_from_v(v, grid)
    z = np.exp(2j * np.pi * (np.arange(P) / P + 1j * params.damping_a))
    direct = np.array([np.prod(zz - np.exp(2j * np.pi * grid.instants)) for zz in z])
    assert rel(direct, ks) < 1e-10


def test_end_to_end_kernel_identity():
    # rebuild the damped samples from the recovered coefficients
    rng = np.random.default_rng(7)
    for P in (8, 16):
        grid = jittered(P, rng)
        params = MethodParams.from_mu(1e-12, P, eta=2)
        data = build_plan(grid, params)
        a = params.damping_a
        q = np.arange(P)
        z = np.exp(2j * np.pi * (q / P + 1j * a))
        coeffs_full = np.concatenate((data.coefficients, [1.0]))
        rebuilt = np.array([np.polyval(coeffs_full[::-1], zz) for zz in z])
        assert rel(rebuilt, data.kernel_samples) < 1e-9
