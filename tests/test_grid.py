import inspect
import math
import re
from dataclasses import fields

import numpy as np
import pytest

from nufft1d import (
    DuplicateNodeError,
    KernelOverflowError,
    LengthMismatchError,
    MethodParams,
    NonPositiveDampingError,
    NonuniformGrid,
    NufftError,
    OutOfRangeError,
    TrialConfig,
    build_plan,
    damping_from_mu,
    nfft_type1,
    nfft_type2,
    type4,
    validate_grid,
)
from nufft1d.grid import MIN_GAP, as_complex_vector


# every grid is checked and copied, whether built by validate_grid or by the type
BUILDERS = (validate_grid, NonuniformGrid)


def test_uniform_grid_validates():
    for build in BUILDERS:
        assert build([0.0, 0.25, 0.5, 0.75]).size == 4


def test_coincident_nodes_rejected():
    for build in BUILDERS:
        with pytest.raises(DuplicateNodeError):
            build([0.0, 0.0, 0.5])
        # the instant prints as a plain float, not as a numpy scalar repr
        with pytest.raises(DuplicateNodeError, match=r"near t=0\.2$"):
            build(np.array([0.2, 0.2]))


def test_wraparound_gap_checked():
    # 1 - 1e-13 is circularly within 1e-13 of 0
    for build in BUILDERS:
        with pytest.raises(DuplicateNodeError):
            build([0.0, 0.5, 1.0 - 1e-13])


def test_out_of_period_rejected():
    # outside [0, 1), non-finite, 2-D and empty input
    for build in BUILDERS:
        for bad in ([0.1, 1.1], [-0.2, 0.3], [0.1, float("nan")], [0.1, float("inf")],
                    [[0.1, 0.2], [0.3, 0.4]], []):
            with pytest.raises(OutOfRangeError):
                build(bad)
        with pytest.raises(OutOfRangeError, match=r"^instant -0\.3 outside the fundamental"):
            build(np.array([0.1, -0.3]))


def test_complex_instants_rejected():
    # the float64 cast would keep the real parts and answer for other instants;
    # a complex array is rejected even when its imaginary parts are all zero
    for build in BUILDERS:
        for bad in (np.array([0.1 + 0.5j, 0.3]), np.array([0.1, 0.3], dtype=complex),
                    [0.1, 0.3 + 0j]):
            with pytest.raises(OutOfRangeError, match=r"^grid instants must be real"):
                build(bad)


def test_gap_floor_is_fixed():
    assert MIN_GAP == 1e-12
    for build in BUILDERS:
        assert build([0.0, 0.5, 0.5 + 2 * MIN_GAP]).size == 3
    assert list(inspect.signature(validate_grid).parameters) == ["instants"]


def test_validation_idempotent():
    grid = validate_grid([0.9, 0.1, 0.4])
    assert validate_grid(grid) is grid
    again = NonuniformGrid(grid.instants)
    assert again == grid
    assert np.array_equal(again.instants, grid.instants)


def test_equal_grids_hash_equal():
    # grids compare and hash by their instants, whatever arrays they were built from
    a = NonuniformGrid(np.array([0.1, 0.6]))
    b = NonuniformGrid([0.1, 0.6])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != NonuniformGrid([0.1, 0.7])
    assert (a == "x") is False


def test_caller_order_kept():
    for build in BUILDERS:
        assert np.array_equal(build([0.9, 0.1, 0.4]).instants, [0.9, 0.1, 0.4])


def test_instants_immutable():
    for build in BUILDERS:
        grid = build([0.1, 0.6])
        assert grid.instants.dtype == np.float64
        with pytest.raises(ValueError):
            grid.instants[0] = 0.3


def test_instants_copied_from_caller():
    for build in BUILDERS:
        t = np.array([0.1, 0.6])
        grid = build(t)
        t[0] = 0.3
        assert np.array_equal(grid.instants, [0.1, 0.6])


def test_input_errors_are_value_errors():
    # the CLI exits 2 for any ValueError; these report bad input, not a failed computation
    for cls in (OutOfRangeError, DuplicateNodeError, LengthMismatchError,
                NonPositiveDampingError):
        assert issubclass(cls, ValueError) and issubclass(cls, NufftError)
    assert not issubclass(KernelOverflowError, ValueError)


def truncation_ratio(a, P, eta):
    """The closed form mu = e^{-2 pi n a} / n, n = eta P - 1, that damping_from_mu inverts."""
    n = eta * P - 1
    return math.exp(-2.0 * math.pi * n * a) / n


def test_damping_round_trip_reference_case():
    a = damping_from_mu(1e-13, 1024, 1)
    assert a > 0
    assert abs(truncation_ratio(a, 1024, 1) - 1e-13) / 1e-13 < 1e-12


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


def test_damping_helpers_reject_non_integer_P():
    # P is checked before eta * P is formed, so 2.5 or nan never yields a damping
    for P in (2.5, math.nan, 0):
        with pytest.raises(ValueError, match=f"P must be an integer >= 1, got {P!r}"):
            damping_from_mu(1e-15, P, 1)
        with pytest.raises(ValueError, match="P must be an integer"):
            MethodParams.from_mu(1e-15, P, 1)
    assert damping_from_mu(1e-15, 16.0, 1) == damping_from_mu(1e-15, 16, 1)


@pytest.mark.parametrize("seed", range(20))
def test_damping_mu_mutual_inverses(seed):
    rng = np.random.default_rng(seed)
    P = int(rng.integers(2, 5000))
    eta = int(rng.integers(1, 8))
    mu = 10.0 ** rng.uniform(-18, -2)
    if mu * (eta * P - 1) >= 1.0:
        mu = 0.5 / (eta * P - 1)
    a = damping_from_mu(mu, P, eta)
    assert abs(truncation_ratio(a, P, eta) - mu) / mu < 1e-12
    # keep the forward ratio representable: 2 pi n a must stay below ~600
    n = eta * P - 1
    a2 = rng.uniform(1e-6, min(0.5, 600.0 / (2 * math.pi * n)))
    mu2 = truncation_ratio(a2, P, eta)
    assert abs(damping_from_mu(mu2, P, eta) - a2) / a2 < 1e-12


def test_method_params_factories():
    p = MethodParams.from_mu(1e-12, 256, 2)
    assert abs(truncation_ratio(p.damping_a, 256, 2) - 1e-12) / 1e-12 < 1e-12
    assert p == MethodParams(damping_a=damping_from_mu(1e-12, 256, 2), eta=2)
    # mu only fixes the damping, so it is not stored beside it; the gridding width is fixed
    assert [f.name for f in fields(MethodParams)] == ["damping_a", "eta"]


def test_method_params_validation():
    with pytest.raises(NonPositiveDampingError):
        MethodParams(damping_a=-0.1, eta=1)
    for bad in (math.nan, math.inf, True):
        with pytest.raises(ValueError, match="damping_a"):
            MethodParams(damping_a=bad, eta=2)
    with pytest.raises(ValueError):
        MethodParams(damping_a=0.1, eta=0)
    with pytest.raises(ValueError):
        MethodParams(damping_a=0.1, eta=2.5)
    with pytest.raises(TypeError):
        MethodParams(damping_a=0.1, eta=1, mu=1e-9)
    with pytest.raises(TypeError):
        MethodParams(damping_a=0.1, eta=1, spread_width=14)


@pytest.mark.parametrize("call, value", [
    (lambda: MethodParams.from_mu("1e-9", 64), "1e-9"),
    (lambda: MethodParams(damping_a="0.1", eta=2), "0.1"),
    (lambda: damping_from_mu(None, 64, 1), None),
    (lambda: MethodParams(damping_a=1j, eta=2), 1j),
    (lambda: TrialConfig(mu=("1e-9",)), "1e-9"),
], ids=["from_mu-str", "damping-str", "damping_from_mu-none", "damping-complex",
        "config-mu-str"])
def test_non_real_mu_or_damping_rejected(call, value):
    # the type is checked before any comparison, so a non-real value gets the named rule
    with pytest.raises(NonPositiveDampingError, match=re.escape(f"got {value!r}")):
        call()


def test_method_params_integral_floats_stored_as_int():
    p = MethodParams.from_mu(1e-12, 16, eta=2.0)
    assert type(p.eta) is int and p.eta == 2
    # an int is checked as it is, never through a float that could overflow
    assert MethodParams(damping_a=0.1, eta=10**400).eta == 10**400
    grid = validate_grid(np.arange(16) / 16 + 0.01)
    q = MethodParams.from_mu(1e-12, 16, eta=2)
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
