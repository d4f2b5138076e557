import numpy as np
import pytest

from nufft1d import (
    LengthMismatchError,
    SingularMatrixError,
    cg_solve,
    ge_solve,
    generate_trial,
    nfft_type1_direct,
    relative_error,
    type4_system,
    type5_system,
    validate_grid,
)
from nufft1d.verify import randc


def test_ge_scalar_system():
    x = ge_solve(np.array([[2.0 + 1j]]), np.array([4.0 - 2j]))
    assert abs(x[0] - (4.0 - 2j) / (2.0 + 1j)) < 1e-15


def test_ge_uniform_grid_is_idft():
    rng = np.random.default_rng(0)
    P = 16
    grid = validate_grid(np.arange(P) / P)
    b = randc(P, rng)
    x = ge_solve(type4_system(grid), b)
    assert relative_error(np.fft.ifft(b), x) < 1e-13


def test_ge_residual():
    rng = np.random.default_rng(1)
    P = 32
    grid, _ = generate_trial(P, 7)
    b = randc(P, rng)
    matrix = type4_system(grid)
    x = ge_solve(matrix, b)
    resid = np.linalg.norm(matrix @ x - b) / np.linalg.norm(b)
    assert resid < 1e-12


def test_ge_singular_matrix():
    M = np.array([[1.0, 2.0], [0.5, 1.0]], dtype=complex)  # rank one
    with pytest.raises(SingularMatrixError):
        ge_solve(M, np.array([1.0, 1.0], dtype=complex))
    # nonzero subnormal pivot: the solution overflows to infinity
    M = np.diag([1e-310, 1.0]).astype(complex)
    with pytest.raises(SingularMatrixError):
        ge_solve(M, np.array([1.0, 1.0], dtype=complex))


def test_ge_rejects_bad_rhs():
    # a bad right-hand side is named as such, not blamed on the matrix
    with pytest.raises(ValueError, match="rhs"):
        ge_solve(np.eye(2), [np.nan, 1.0])
    with pytest.raises(LengthMismatchError, match="rhs"):
        ge_solve(np.eye(2), [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="square"):
        ge_solve(np.ones((2, 3)), [1.0, 1.0])
    # a non-finite matrix is bad input, not a singular one, and returns no solution
    for bad in ([[np.inf, 0], [0, 1]], [[1, 0], [0, -np.inf]], [[1, np.inf], [0, 1]],
                [[np.nan, 0], [0, 1]]):
        with pytest.raises(ValueError, match="matrix contains NaN or Inf entries"):
            ge_solve(np.array(bad), [1.0, 1.0])


def test_dense_systems_are_hermitian_duals():
    grid, _ = generate_trial(16, 3)
    m4 = type4_system(grid)
    m5 = type5_system(grid)
    assert np.abs(m5 - m4.conj().T).max() < 1e-14


def test_ge_solve_duality_relation():
    # inverse of the Hermitian transpose is the Hermitian transpose of the
    # inverse: <solve5(c), b> == <c, solve4(b)>
    rng = np.random.default_rng(3)
    P = 24
    grid, _ = generate_trial(P, 11)
    b, c = randc(P, rng), randc(P, rng)
    x4 = ge_solve(type4_system(grid), b)
    x5 = ge_solve(type5_system(grid), c)
    lhs = np.vdot(x5, b)
    rhs = np.vdot(c, x4)
    assert abs(lhs - rhs) / abs(rhs) < 1e-10


def test_cg_zero_rhs(geometry_calls):
    grid, _ = generate_trial(16, 5)
    res = cg_solve(grid, np.zeros(16, dtype=complex))
    assert res.iterations == 0 and res.converged
    assert np.all(res.solution == 0)
    assert geometry_calls == []     # returned before any spreader is built


def test_cg_uniform_grid_single_iteration():
    rng = np.random.default_rng(4)
    P = 32
    grid = validate_grid(np.arange(P) / P)
    b = randc(P, rng)
    res = cg_solve(grid, b, tol=1e-12)
    assert res.converged and res.iterations == 1
    assert relative_error(np.fft.ifft(b), res.solution) < 1e-12


def test_cg_matches_ge():
    rng = np.random.default_rng(5)
    P = 256
    grid, a_true = generate_trial(P, 17)
    b = nfft_type1_direct(grid, a_true, P)
    x_ge = ge_solve(type4_system(grid), b)
    res = cg_solve(grid, b, "type4", tol=1e-14)
    assert res.converged
    assert relative_error(x_ge, res.solution) < 1e-10
    assert res.iterations > 1


def test_cg_type5_route():
    rng = np.random.default_rng(6)
    P = 64
    grid, _ = generate_trial(P, 19)
    s = randc(P, rng)
    x_ge = ge_solve(type5_system(grid), s)
    res = cg_solve(grid, s, "type5", tol=1e-14)
    assert res.converged
    assert relative_error(x_ge, res.solution) < 1e-10


def test_cg_iteration_cap():
    grid, a_true = generate_trial(128, 23)
    b = nfft_type1_direct(grid, a_true, 128)
    res = cg_solve(grid, b, tol=1e-15, max_iter=2)
    assert not res.converged
    assert res.iterations == 2
    assert np.linalg.norm(res.solution) > 0  # last iterate returned
    assert res.relative_residual > 0


def test_cg_rejects_bad_arguments(geometry_calls):
    grid, _ = generate_trial(8, 1)
    for tol in (0.0, np.nan, np.inf, "1e-9", None, 1j, True):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            cg_solve(grid, np.ones(8), tol=tol)
    with pytest.raises(ValueError):
        cg_solve(grid, np.ones(8), which="type3")
    with pytest.raises(ValueError, match="unknown system kind"):
        cg_solve(grid, np.zeros(8), which="type3")
    with pytest.raises(ValueError):
        cg_solve(grid, np.ones(8), max_iter=-3)
    with pytest.raises(ValueError):
        cg_solve(grid, np.ones(8), max_iter=2.5)
    with pytest.raises(LengthMismatchError):
        cg_solve(grid, np.ones(7))
    # every argument is checked before the O(P taps) spreader build
    assert geometry_calls == []


@pytest.mark.parametrize("which", ["type4", "type5"])
def test_cg_builds_one_spreader_per_call(which, geometry_calls):
    # every product of a call shares one length-P spreader, whatever the iteration count
    grid, a_true = generate_trial(32, 24)
    rhs = nfft_type1_direct(grid, a_true, 32)
    iterations = []
    for max_iter in (0, 1, 5, None):
        geometry_calls.clear()
        iterations.append(cg_solve(grid, rhs, which=which, tol=1e-12, max_iter=max_iter).iterations)
        assert geometry_calls == [32]
    assert iterations[:3] == [0, 1, 5] and iterations[3] > 5
