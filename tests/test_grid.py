import math

import numpy as np
import pytest

from nufft1d import (
    DuplicateNodeError,
    LengthMismatchError,
    MethodParams,
    NonPositiveDampingError,
    OutOfRangeError,
    as_complex_vector,
    build_plan,
    damping_from_mu,
    mu_from_damping,
    nfft_type1,
    nfft_type2,
    type4,
    validate_grid,
)


def test_uniform_grid_validates():
    grid = validate_grid([0.0, 0.25, 0.5, 0.75])
    assert grid.size == 4


def test_coincident_nodes_rejected():
    with pytest.raises(DuplicateNodeError):
        validate_grid([0.0, 0.0, 0.5])


def test_wraparound_gap_checked():
    # 1-1e-13 is circularly within 1e-13 of 0
    with pytest.raises(DuplicateNodeError):
        validate_grid([0.0, 0.5, 1.0 - 1e-13])


def test_out_of_period_rejected():
    with pytest.raises(OutOfRangeError):
        validate_grid([0.1, 1.1])
    with pytest.raises(OutOfRangeError):
        validate_grid([-0.2, 0.3])
    with pytest.raises(OutOfRangeError):
        validate_grid([0.1, float("nan")])


def test_validation_idempotent():
    grid = validate_grid([0.9, 0.1, 0.4])
    again = validate_grid(grid)
    assert again == grid
    assert np.array_equal(again.instants, grid.instants)


def test_caller_order_kept():
    grid = validate_grid([0.9, 0.1, 0.4])
    assert np.array_equal(grid.instants, [0.9, 0.1, 0.4])


def test_instants_immutable():
    grid = validate_grid([0.1, 0.6])
    with pytest.raises(ValueError):
        grid.instants[0] = 0.3


def test_damping_round_trip_reference_case():
    a = damping_from_mu(1e-13, 1024, 1)
    assert a > 0
    assert abs(mu_from_damping(a, 1024, 1) - 1e-13) / 1e-13 < 1e-12


def test_damping_unit_case():
    # eta*P - 1 = 1 makes the relation read mu = exp(-2 pi a)
    a = damping_from_mu(math.exp(-2.0 * math.pi), 2, 1)
    assert abs(a - 1.0) < 1e-14


def test_damping_rejects_loose_truncation():
    # mu (eta P - 1) >= 1 leaves no positive damping
    with pytest.raises(NonPositiveDampingError):
        damping_from_mu(0.9, 3, 1)
    with pytest.raises(NonPositiveDampingError):
        damping_from_mu(0.5, 2, 3)
    # boundary: mu (eta P - 1) just below one is still representable
    assert damping_from_mu(0.9, 2, 1) > 0


@pytest.mark.parametrize("seed", range(20))
def test_damping_mu_mutual_inverses(seed):
    rng = np.random.default_rng(seed)
    P = int(rng.integers(2, 5000))
    eta = int(rng.integers(1, 8))
    mu = 10.0 ** rng.uniform(-18, -2)
    if mu * (eta * P - 1) >= 1.0:
        mu = 0.5 / (eta * P - 1)
    a = damping_from_mu(mu, P, eta)
    assert abs(mu_from_damping(a, P, eta) - mu) / mu < 1e-12
    # keep the forward ratio representable: 2 pi n a must stay below ~600
    n = eta * P - 1
    a2 = rng.uniform(1e-6, min(0.5, 600.0 / (2 * math.pi * n)))
    mu2 = mu_from_damping(a2, P, eta)
    assert abs(damping_from_mu(mu2, P, eta) - a2) / a2 < 1e-12


def test_method_params_factories():
    p = MethodParams.from_mu(1e-12, 256, 2)
    assert abs(mu_from_damping(p.damping_a, 256, 2) - 1e-12) / 1e-12 < 1e-12
    q = MethodParams.from_damping(p.damping_a, 256, 2)
    assert abs(q.mu - p.mu) / p.mu < 1e-12
    assert p.spread_width == 14


def test_method_params_validation():
    with pytest.raises(NonPositiveDampingError):
        MethodParams(damping_a=-0.1, eta=1, mu=1e-9)
    with pytest.raises(ValueError):
        MethodParams(damping_a=0.1, eta=0, mu=1e-9)
    with pytest.raises(ValueError):
        MethodParams(damping_a=0.1, eta=1, mu=2.0)
    with pytest.raises(ValueError):
        MethodParams(damping_a=0.1, eta=2.5, mu=1e-9)
    with pytest.raises(ValueError):
        MethodParams(damping_a=0.1, eta=1, mu=1e-9, spread_width=14.5)
    with pytest.raises(ValueError):
        MethodParams(damping_a=0.1, eta=1, mu=1e-9, spread_width=0)


def test_method_params_integral_floats_stored_as_int():
    p = MethodParams.from_mu(1e-12, 16, eta=2.0, spread_width=14.0)
    assert type(p.eta) is int and type(p.spread_width) is int
    assert (p.eta, p.spread_width) == (2, 14)
    grid = validate_grid(np.arange(16) / 16 + 0.01)
    q = MethodParams.from_mu(1e-12, 16, eta=2, spread_width=14)
    assert np.array_equal(build_plan(grid, p).node_weights, build_plan(grid, q).node_weights)


def test_complex_vector_checks():
    v = as_complex_vector([1.0, 2.0 + 1j])
    assert v.dtype == np.complex128
    with pytest.raises(ValueError):
        as_complex_vector([1.0, complex(float("inf"), 0.0)])
    with pytest.raises(ValueError):
        as_complex_vector([1.0, complex(0.0, float("nan"))])


@pytest.mark.parametrize("call, message", [
    (lambda grid, plan: nfft_type2(np.ones((2, 4)), grid), "one-dimensional"),
    (lambda grid, plan: nfft_type1(grid, [], 8), "nonempty"),
    (lambda grid, plan: type4(plan, np.ones(9)), "expected 8"),
])
def test_complex_vector_length_errors(call, message):
    grid = validate_grid(np.arange(8) / 8 + 0.01)
    plan = build_plan(grid, MethodParams.from_mu(1e-12, 8, 2))
    with pytest.raises(LengthMismatchError, match=message):
        call(grid, plan)


def test_complex_vector_accepts_noncontiguous_views():
    base = np.arange(20, dtype=np.complex128) + 1j
    v = as_complex_vector(base[::2])
    assert v.size == 10
