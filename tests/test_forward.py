import numpy as np
import pytest

from nufft1d import (
    SizeMismatchError,
    kernel_for_size,
    nfft_type1,
    nfft_type1_direct,
    nfft_type2,
    nfft_type2_direct,
    nonuniform_conv,
    validate_grid,
)


def jittered(P, rng, jitter=0.6):
    return validate_grid(np.arange(P) / P + rng.uniform(0, jitter / P, P))


def randc(n, rng):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def rel(truth, got):
    return np.linalg.norm(np.asarray(truth) - np.asarray(got)) / np.linalg.norm(truth)


# --- direct oracles are themselves checked against naive python loops --------

def test_direct_type1_matches_naive_loop():
    rng = np.random.default_rng(0)
    grid = jittered(5, rng)
    a = randc(5, rng)
    naive = np.array([
        sum(a[q] * np.exp(-2j * np.pi * p * grid.instants[q]) for q in range(5))
        for p in range(7)
    ])
    assert np.abs(nfft_type1_direct(grid, a, 7) - naive).max() < 1e-13


def test_direct_type2_matches_naive_loop():
    rng = np.random.default_rng(1)
    grid = jittered(5, rng)
    S = randc(6, rng)
    naive = np.array([
        sum(S[p] * np.exp(2j * np.pi * p * t) for p in range(6)) for t in grid.instants
    ])
    assert np.abs(nfft_type2_direct(S, grid) - naive).max() < 1e-13


def test_direct_linearity():
    rng = np.random.default_rng(2)
    grid = jittered(9, rng)
    x, y = randc(9, rng), randc(9, rng)
    lhs = nfft_type1_direct(grid, 2.0 * x - 1j * y, 9)
    rhs = 2.0 * nfft_type1_direct(grid, x, 9) - 1j * nfft_type1_direct(grid, y, 9)
    assert rel(rhs, lhs) < 1e-13


# --- type 1 -------------------------------------------------------------------

def test_type1_single_node_at_zero():
    grid = validate_grid([0.0])
    out = nfft_type1(grid, [1.0], 4)
    assert np.abs(out - 1.0).max() < 1e-13


def test_type1_uniform_grid_reduces_to_dft():
    rng = np.random.default_rng(3)
    Q = 16
    grid = validate_grid(np.arange(Q) / Q)
    a = randc(Q, rng)
    assert rel(np.fft.fft(a), nfft_type1(grid, a, Q)) < 1e-13


def test_type1_oracle_equivalence():
    rng = np.random.default_rng(4)
    grid = jittered(16, rng)
    a = randc(16, rng)
    assert rel(nfft_type1_direct(grid, a, 16), nfft_type1(grid, a, 16)) < 1e-12


@pytest.mark.parametrize("Q,R", [(7, 16), (33, 8), (16, 48), (5, 1)])
def test_type1_rectangular_sizes(Q, R):
    rng = np.random.default_rng(5)
    grid = validate_grid(np.sort(rng.uniform(0, 1, Q)))
    a = randc(Q, rng)
    assert rel(nfft_type1_direct(grid, a, R), nfft_type1(grid, a, R)) < 1e-12


# --- type 2 -------------------------------------------------------------------

def test_type2_constant_polynomial():
    rng = np.random.default_rng(6)
    grid = jittered(11, rng)
    S = np.zeros(11, dtype=complex)
    S[0] = 2.5 - 1j
    out = nfft_type2(S, grid)
    assert np.abs(out - S[0]).max() < 1e-12


def test_type2_uniform_grid_reduces_to_idft():
    rng = np.random.default_rng(7)
    P = 16
    grid = validate_grid(np.arange(P) / P)
    S = randc(P, rng)
    assert rel(P * np.fft.ifft(S), nfft_type2(S, grid)) < 1e-13


def test_type2_oracle_equivalence():
    rng = np.random.default_rng(8)
    grid = jittered(16, rng)
    S = randc(16, rng)
    assert rel(nfft_type2_direct(S, grid), nfft_type2(S, grid)) < 1e-12


@pytest.mark.parametrize("P", [8, 16, 64])
def test_fast_paths_track_oracles(P):
    rng = np.random.default_rng(9)
    grid = jittered(P, rng)
    a = randc(P, rng)
    assert rel(nfft_type1_direct(grid, a, P), nfft_type1(grid, a, P)) < 1e-12
    assert rel(nfft_type2_direct(a, grid), nfft_type2(a, grid)) < 1e-12


def test_adjoint_consistency():
    rng = np.random.default_rng(10)
    P = 64
    grid = jittered(P, rng)
    x, y = randc(P, rng), randc(P, rng)
    lhs = np.vdot(y, nfft_type1(grid, x, P))
    rhs = np.vdot(nfft_type2(y, grid), x)
    assert abs(lhs - rhs) / abs(lhs) < 1e-11


# --- nonuniform convolution ---------------------------------------------------

def conv_direct(grid, a, lam, P):
    r = np.arange(len(lam))
    return np.array([
        sum(
            a[q] * np.sum(lam * np.exp(2j * np.pi * r * (k / P - tq)))
            for q, tq in enumerate(grid.instants)
        )
        for k in range(P)
    ])


def test_conv_constant_kernel():
    rng = np.random.default_rng(11)
    grid = jittered(6, rng)
    a = randc(6, rng)
    lam = np.zeros(12)
    lam[0] = 1.0
    out = nonuniform_conv(grid, a, lam, 6)
    assert np.abs(out - a.sum()).max() < 1e-12


def test_conv_sifting_property():
    rng = np.random.default_rng(12)
    P = 8
    grid = validate_grid([0.0])
    lam = randc(2 * P, rng)
    out = nonuniform_conv(grid, [1.0], lam, P)
    expected = np.array([np.sum(lam * np.exp(2j * np.pi * np.arange(2 * P) * k / P)) for k in range(P)])
    assert rel(expected, out) < 1e-12


def test_conv_direct_oracle():
    rng = np.random.default_rng(13)
    grid = jittered(8, rng)
    a = randc(8, rng)
    lam = randc(16, rng)
    assert rel(conv_direct(grid, a, lam, 8), nonuniform_conv(grid, a, lam, 8)) < 1e-11


def test_conv_size_mismatch():
    rng = np.random.default_rng(14)
    grid = jittered(6, rng)
    with pytest.raises(SizeMismatchError):
        nonuniform_conv(grid, randc(6, rng), randc(13, rng), 6)


def test_conv_rejects_nonpositive_length():
    rng = np.random.default_rng(14)
    grid = jittered(6, rng)
    for P in (0, -1, -4):
        with pytest.raises(ValueError):
            nonuniform_conv(grid, randc(6, rng), randc(8, rng), P)


@pytest.mark.parametrize("transform", [nfft_type1, nfft_type1_direct])
def test_type1_rejects_nonpositive_length(transform):
    grid = jittered(6, np.random.default_rng(15))
    for R in (0, -1):
        with pytest.raises(ValueError, match="output length"):
            transform(grid, np.ones(6), R)


def test_conv_linearity():
    rng = np.random.default_rng(15)
    grid = jittered(7, rng)
    a, b = randc(7, rng), randc(7, rng)
    lam, mu_ = randc(14, rng), randc(14, rng)
    lhs = nonuniform_conv(grid, a + 3j * b, lam, 7)
    rhs = nonuniform_conv(grid, a, lam, 7) + 3j * nonuniform_conv(grid, b, lam, 7)
    assert rel(rhs, lhs) < 1e-11
    lhs = nonuniform_conv(grid, a, lam + 2.0 * mu_, 7)
    rhs = nonuniform_conv(grid, a, lam, 7) + 2.0 * nonuniform_conv(grid, a, mu_, 7)
    assert rel(rhs, lhs) < 1e-11


# --- shared spreader on the padded fine grid -----------------------------------

@pytest.mark.parametrize("R", [1, 2, 5, 16])
def test_padded_grid_edges_and_short_fine_grids(R):
    # rint(n t) = n at the last instant, the last padded point; for R <= 5 the
    # fine grid (2R points) is shorter than the 29-tap pulse and wraps repeatedly.
    grid = validate_grid([0.0, 0.3, 0.7, np.nextafter(1.0, 0.0)], min_gap=1e-17)
    rng = np.random.default_rng(20 + R)
    a, S = randc(4, rng), randc(R, rng)
    assert rel(nfft_type1_direct(grid, a, R), nfft_type1(grid, a, R)) < 1e-12
    assert rel(nfft_type2_direct(S, grid), nfft_type2(S, grid)) < 1e-12


def test_spreader_shared_across_transforms():
    rng = np.random.default_rng(21)
    P = 48
    grid = jittered(P, rng)
    kernel = kernel_for_size(P)
    spread = kernel.spreader(grid)
    a, S = randc(P, rng), randc(P, rng)
    assert np.array_equal(nfft_type1(grid, a, P, kernel=spread), nfft_type1(grid, a, P, kernel=kernel))
    assert np.array_equal(nfft_type2(S, grid, kernel=spread), nfft_type2(S, grid, kernel=kernel))
    same = validate_grid(grid.instants)   # an equal grid, another object
    assert np.array_equal(nfft_type1(same, a, P, kernel=spread), nfft_type1(grid, a, P))


def test_spreader_for_another_grid_rejected():
    rng = np.random.default_rng(22)
    P = 16
    grid, other = jittered(P, rng), jittered(P, rng)
    spread = kernel_for_size(P).spreader(other)
    with pytest.raises(ValueError, match="another grid"):
        nfft_type1(grid, randc(P, rng), P, kernel=spread)
    with pytest.raises(ValueError, match="another grid"):
        nfft_type2(randc(P, rng), grid, kernel=spread)
    with pytest.raises(SizeMismatchError):
        nfft_type1(other, randc(P, rng), 2 * P, kernel=spread)


def test_accuracy_improves_with_spread_width():
    rng = np.random.default_rng(16)
    P = 32
    for _ in range(10):
        grid = jittered(P, rng)
        a = randc(P, rng)
        truth = nfft_type1_direct(grid, a, P)
        errs = [
            rel(truth, nfft_type1(grid, a, P, kernel=kernel_for_size(P, m)))
            for m in (4, 8, 12)
        ]
        assert errs[1] < errs[0] and errs[2] < errs[1]


def test_kernel_tables_positive_finite_immutable():
    for size in (1, 7, 33, 256):
        k = kernel_for_size(size)
        assert np.all(k.deconv > 0) and np.all(np.isfinite(k.deconv))
        assert k.deconv.size == size
        with pytest.raises(ValueError):
            k.deconv[0] = 1.0
    with pytest.raises(ValueError):
        kernel_for_size(0)
