import numpy as np
import pytest

import nufft1d.lagrange as lagrange
from nufft1d import (
    AmplificationWarning,
    MethodParams,
    SingularDerivativeError,
    build_plan,
    nfft_type1,
    relative_error,
    validate_grid,
)
from nufft1d.errors import KernelOverflowError
from nufft1d.lagrange import (
    compute_v_samples,
    derivative_samples,
    kernel_coefficients,
    kernel_samples_from_v,
)
from nufft1d.verify import (
    derivative_direct,
    jittered,
    kernel_samples_direct,
    polynomial_coefficients,
    v_direct,
)


def _unit(grid, params):
    """The v stage's input: the grid's unit delta train transformed to length eta P."""
    return nfft_type1(grid, np.ones(grid.size), params.eta * grid.size)


# --- v samples ------------------------------------------------------------------

def test_v_single_node():
    grid = validate_grid([0.0])
    params = MethodParams.from_mu(1e-12, 1, eta=4)
    v = compute_v_samples(_unit(grid, params), params)
    expected = np.log(1 - np.exp(-2 * np.pi * params.damping_a))
    assert abs(v[0] - expected) < 1e-11
    assert abs(v[0].imag) < 1e-11 and v[0].real < 0


def test_v_against_log_sum():
    rng = np.random.default_rng(0)
    P, mu = 8, 1e-13
    grid = jittered(P, rng)
    params = MethodParams.from_mu(mu, P, eta=2)
    v = compute_v_samples(_unit(grid, params), params)
    err = np.abs(v - v_direct(grid, params.damping_a)).max()
    assert err < 10 * mu * P + 1e-12


@pytest.mark.parametrize("eta", [1, 2])
def test_v_default_kernel_follows_spread_width(eta):
    # without a kernel, the unit transform streams its own length-eta P spreader;
    # build_plan passes its shared length-P one at eta = 1, and the samples are the
    # same bytes
    grid = jittered(64, np.random.default_rng(7))
    params = MethodParams.from_mu(1e-12, 64, eta)
    ks = kernel_samples_from_v(compute_v_samples(_unit(grid, params), params), grid)
    assert ks.tobytes() == build_plan(grid, params).kernel_samples.tobytes()


def test_v_truncation_shrinks_with_eta():
    rng = np.random.default_rng(1)
    P = 8
    grid = jittered(P, rng)
    a = 0.05
    errs = []
    for eta in (1, 2):
        params = MethodParams(damping_a=a, eta=eta)
        v = compute_v_samples(_unit(grid, params), params)
        errs.append(np.abs(v - v_direct(grid, a)).max())
    assert errs[1] < errs[0]


# --- kernel samples ---------------------------------------------------------------

def test_kernel_samples_uniform_closed_form():
    P = 8
    grid = validate_grid(np.arange(P) / P)
    params = MethodParams.from_mu(1e-13, P, eta=2)
    ks = kernel_samples_from_v(compute_v_samples(_unit(grid, params), params), grid)
    expected = np.exp(-2 * np.pi * P * params.damping_a) - 1.0
    assert np.abs(ks - expected).max() < 1e-11


def test_kernel_samples_single_node():
    grid = validate_grid([0.0])
    params = MethodParams.from_mu(1e-12, 1, eta=4)
    ks = kernel_samples_from_v(compute_v_samples(_unit(grid, params), params), grid)
    expected = np.exp(-2 * np.pi * params.damping_a) - 1.0
    assert abs(ks[0] - expected) < 1e-11


def test_kernel_samples_product_oracle():
    rng = np.random.default_rng(2)
    P = 8
    grid = jittered(P, rng)
    params = MethodParams.from_mu(1e-13, P, eta=2)
    ks = kernel_samples_from_v(compute_v_samples(_unit(grid, params), params), grid)
    assert relative_error(kernel_samples_direct(grid, params.damping_a), ks) < 1e-11


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
    L = kernel_coefficients(kernel_samples_from_v(compute_v_samples(_unit(grid, params), params), grid), params)
    expected = np.zeros(P, dtype=complex)
    expected[0] = -1.0
    assert np.abs(L - expected).max() < 1e-12


def test_coefficients_single_linear_factor():
    tau = 0.3173
    grid = validate_grid([tau])
    params = MethodParams.from_mu(1e-12, 1, eta=4)
    L = kernel_coefficients(kernel_samples_from_v(compute_v_samples(_unit(grid, params), params), grid), params)
    assert abs(L[0] + np.exp(2j * np.pi * tau)) < 1e-10


def test_coefficients_expansion_oracle():
    rng = np.random.default_rng(3)
    P = 8
    grid = jittered(P, rng)
    params = MethodParams.from_mu(1e-11, P, eta=2)
    L = kernel_coefficients(kernel_samples_from_v(compute_v_samples(_unit(grid, params), params), grid), params)
    poly = polynomial_coefficients(grid)
    assert relative_error(poly[:P], L) < 1e-10
    assert abs(poly[P] - 1.0) < 1e-12  # leading coefficient is one


def test_amplification_warning():
    P = 64
    params = MethodParams(damping_a=0.1, eta=1)
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
    assert relative_error(expected, data.derivative_samples) < 1e-12


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
    poly = polynomial_coefficients(grid)
    dpoly = poly[1:] * np.arange(1, P + 1)
    z = np.exp(2j * np.pi * grid.instants)
    horner = np.zeros(P, dtype=complex)
    for c in dpoly[::-1]:
        horner = horner * z + c
    assert relative_error(horner, data.derivative_samples) < 1e-10
    # oracle 2: product of root differences (well conditioned at any P)
    assert relative_error(derivative_direct(grid), data.derivative_samples) < 1e-10


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
    v1 = compute_v_samples(_unit(validate_grid(t), params), params)
    v2 = compute_v_samples(_unit(validate_grid(t[perm]), params), params)
    assert relative_error(v1, v2) < 1e-12
    assert relative_error(d1.kernel_samples, d2.kernel_samples) < 1e-12
    # coefficient recovery amplifies roundoff, so order sensitivity sits at
    # the method's own error level rather than machine precision
    assert relative_error(d1.coefficients, d2.coefficients) < 1e-9
    assert relative_error(d1.derivative_samples[perm], d2.derivative_samples) < 1e-9


def test_log_identity_up_to_winding():
    # exp(const + v) must reproduce the kernel product regardless of log branch
    rng = np.random.default_rng(6)
    P = 12
    grid = jittered(P, rng)
    params = MethodParams.from_mu(1e-13, P, eta=2)
    v = compute_v_samples(_unit(grid, params), params)
    ks = kernel_samples_from_v(v, grid)
    assert relative_error(kernel_samples_direct(grid, params.damping_a), ks) < 1e-10


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
        assert relative_error(rebuilt, data.kernel_samples) < 1e-9
