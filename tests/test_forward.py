import tracemalloc

import numpy as np
import pytest

from nufft1d import (
    LengthMismatchError,
    MethodParams,
    build_plan,
    kernel_for_size,
    nfft_type1,
    nfft_type1_direct,
    nfft_type2,
    nfft_type2_direct,
    relative_error,
    type4,
    type5,
    validate_grid,
)
from nufft1d.baselines import type4_system
from nufft1d.forward import _blocked_matvec, _phase_blocks, nonuniform_conv
from nufft1d.gridding import _SPREAD_BLOCK, SPREAD_WIDTH, round_product
from nufft1d.verify import conv_direct, jittered, randc


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
    assert relative_error(rhs, lhs) < 1e-13


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
    assert relative_error(np.fft.fft(a), nfft_type1(grid, a, Q)) < 1e-13


def test_type1_oracle_equivalence():
    rng = np.random.default_rng(4)
    grid = jittered(16, rng)
    a = randc(16, rng)
    assert relative_error(nfft_type1_direct(grid, a, 16), nfft_type1(grid, a, 16)) < 1e-12


@pytest.mark.parametrize("Q,R", [(7, 16), (33, 8), (16, 48), (5, 1)])
def test_type1_rectangular_sizes(Q, R):
    rng = np.random.default_rng(5)
    grid = validate_grid(np.sort(rng.uniform(0, 1, Q)))
    a = randc(Q, rng)
    assert relative_error(nfft_type1_direct(grid, a, R), nfft_type1(grid, a, R)) < 1e-12


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
    assert relative_error(P * np.fft.ifft(S), nfft_type2(S, grid)) < 1e-13


def test_type2_oracle_equivalence():
    rng = np.random.default_rng(8)
    grid = jittered(16, rng)
    S = randc(16, rng)
    assert relative_error(nfft_type2_direct(S, grid), nfft_type2(S, grid)) < 1e-12


@pytest.mark.parametrize("P", [8, 16, 64])
def test_fast_paths_track_oracles(P):
    rng = np.random.default_rng(9)
    grid = jittered(P, rng)
    a = randc(P, rng)
    assert relative_error(nfft_type1_direct(grid, a, P), nfft_type1(grid, a, P)) < 1e-12
    assert relative_error(nfft_type2_direct(a, grid), nfft_type2(a, grid)) < 1e-12


def test_adjoint_consistency():
    rng = np.random.default_rng(10)
    P = 64
    grid = jittered(P, rng)
    x, y = randc(P, rng), randc(P, rng)
    lhs = np.vdot(y, nfft_type1(grid, x, P))
    rhs = np.vdot(nfft_type2(y, grid), x)
    assert abs(lhs - rhs) / abs(lhs) < 1e-11


# --- nonuniform convolution ---------------------------------------------------

def _unit(grid, R):
    """The grid's unit delta train transformed to length R, the convolution's input."""
    return nfft_type1(grid, np.ones(grid.size), R)


def test_conv_constant_kernel():
    # Lambda = delta_0 sums the unit delta train: Q = 5 at every k of the P = 6 outputs
    rng = np.random.default_rng(11)
    grid = jittered(5, rng)
    lam = np.zeros(12)
    lam[0] = 1.0
    out = nonuniform_conv(_unit(grid, 12), lam, 6)
    assert np.abs(out - 5.0).max() < 1e-12


def test_conv_sifting_property():
    rng = np.random.default_rng(12)
    P = 8
    grid = validate_grid([0.0])
    lam = rng.standard_normal(2 * P)
    out = nonuniform_conv(_unit(grid, 2 * P), lam, P)
    expected = np.array([np.sum(lam * np.exp(2j * np.pi * np.arange(2 * P) * k / P)) for k in range(P)])
    assert relative_error(expected, out) < 1e-12


def test_conv_direct_oracle():
    rng = np.random.default_rng(13)
    grid = jittered(8, rng)
    lam = rng.standard_normal(16)
    out = nonuniform_conv(_unit(grid, 16), lam, 8)
    assert relative_error(conv_direct(grid, np.ones(8), lam, 8), out) < 1e-11


@pytest.mark.parametrize("transform", [nfft_type1, nfft_type1_direct])
def test_type1_rejects_nonpositive_length(transform):
    grid = jittered(6, np.random.default_rng(15))
    for R in (0, -1):
        with pytest.raises(ValueError, match="output length"):
            transform(grid, np.ones(6), R)


def test_sizes_must_be_integers():
    # an integral float or numpy integer means that size; anything else is refused by name
    rng = np.random.default_rng(16)
    grid = jittered(6, rng)
    a = randc(6, rng)
    kernel = kernel_for_size(6)
    assert kernel_for_size(6.0) is kernel and kernel_for_size(np.int64(6)) is kernel
    assert type(kernel.size) is int
    assert np.array_equal(nfft_type1(grid, a, 6.0), nfft_type1(grid, a, 6))
    assert np.array_equal(nfft_type1_direct(grid, a, 6.0), nfft_type1_direct(grid, a, 6))
    with pytest.raises(ValueError, match="transform size must be an integer >= 1, got 2.5"):
        kernel_for_size(2.5)
    for call in (lambda: nfft_type1(grid, a, 2.5), lambda: nfft_type1_direct(grid, a, 2.5)):
        with pytest.raises(ValueError, match="output length must be an integer >= 1, got 2.5"):
            call()


def test_conv_linearity():
    rng = np.random.default_rng(15)
    grid = jittered(7, rng)
    lam, mu_ = rng.standard_normal(14), rng.standard_normal(14)
    unit = _unit(grid, 14)
    lhs = nonuniform_conv(unit, lam + 2.0 * mu_, 7)
    rhs = nonuniform_conv(unit, lam, 7) + 2.0 * nonuniform_conv(unit, mu_, 7)
    assert relative_error(rhs, lhs) < 1e-11


# --- shared spreader on the padded fine grid -----------------------------------

@pytest.mark.parametrize("R", [1, 2, 5, 16])
def test_padded_grid_edges_and_short_fine_grids(R):
    # rint(n t) = 0 at the first instant and n at the last, the first and last
    # padded points (both instants 2e-12 from the period edge, above the gap
    # floor); for R <= 5 the fine grid (2R points) is shorter than the 29-tap
    # pulse and wraps repeatedly.
    grid = validate_grid([2e-12, 0.3, 0.7, 1.0 - 2e-12])
    starts = kernel_for_size(R).spreader(grid).starts
    assert starts[0] == 0 and starts[-1] == 2 * R
    rng = np.random.default_rng(20 + R)
    a, S = randc(4, rng), randc(R, rng)
    assert relative_error(nfft_type1_direct(grid, a, R), nfft_type1(grid, a, R)) < 1e-12
    assert relative_error(nfft_type2_direct(S, grid), nfft_type2(S, grid)) < 1e-12


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
    with pytest.raises(LengthMismatchError):
        nfft_type1(other, randc(P, rng), 2 * P, kernel=spread)


@pytest.mark.parametrize("R", [1, 3, 8, 64])
def test_scatter_gather_adjoint(R):
    # <scatter(x), y> = <x, gather(y)>: the two sides of one spreader are exact
    # transposes, also where starts repeat and where the fine grid (2R points)
    # is shorter than the 29-tap pulse. Jitter 0.99 puts neighbours near one
    # fine-grid point, and a node 2e-12 after another shares its start index.
    rng = np.random.default_rng(23 + R)
    t = jittered(64, rng, 0.99).instants
    grid = validate_grid(np.sort(np.append(t, t[32] + 2e-12)))
    spread = kernel_for_size(R).spreader(grid)
    assert spread.starts[32] == spread.starts[33]
    x, y = randc(grid.size, rng), randc(2 * R, rng)
    lhs, rhs = np.vdot(spread.scatter(x), y), np.vdot(x, spread.gather(y))
    assert abs(lhs - rhs) <= 1e-15 * abs(lhs)


def _fold_table(kernel):
    # padded point i is fine point (i - m) mod n, as an index table
    n = kernel.fine_size
    return (np.arange(n + kernel.taps) - SPREAD_WIDTH) % n


def _scatter_monolithic(spread, x):
    # one np.add.at over every tap of every instant, then one through the fold table
    kernel = spread.kernel
    fold = _fold_table(kernel)
    flat = (spread.starts[:, None] + np.arange(kernel.taps)).ravel()
    padded = np.zeros(fold.size, dtype=np.complex128)
    np.add.at(padded, flat, (spread.pulse * (x * np.conj(spread.phase))[:, None]).ravel())
    fine = np.zeros(kernel.fine_size, dtype=np.complex128)
    np.add.at(fine, fold, padded)
    return fine


def _gather_monolithic(spread, y):
    # one einsum over the (Q, taps) windows of every instant
    kernel = spread.kernel
    windows = y[_fold_table(kernel)][spread.starts[:, None] + np.arange(kernel.taps)]
    return np.einsum("qj,qj->q", spread.pulse, windows) * spread.phase


@pytest.mark.parametrize("R", [1, 3, 7, 8, 64, 2 * _SPREAD_BLOCK + 37])
def test_blocked_spreader_matches_monolithic(R):
    # three blocks, the last one partial, in the caller's unsorted order; the
    # last node of the first block and the first of the second are 2e-12 apart,
    # so one start index straddles the block edge. R = 1 (K = 0: no negative
    # band) folds its 31 padded points in 16 chunks, R = 7 (n = m) starts its
    # first chunk at padded index 0, and R = 8's three chunks overlap around
    # the circle.
    rng = np.random.default_rng(25)
    Q = 2 * _SPREAD_BLOCK + 37
    t = rng.permutation(jittered(Q - 1, rng, 0.99).instants)
    grid = validate_grid(np.insert(t, _SPREAD_BLOCK, t[_SPREAD_BLOCK - 1] + 2e-12))
    kernel = kernel_for_size(R)
    spread = kernel.spreader(grid)
    assert spread.starts[_SPREAD_BLOCK - 1] == spread.starts[_SPREAD_BLOCK]
    starts, dist = kernel.spread_geometry(grid.instants)
    assert spread.starts.tobytes() == starts.tobytes()
    assert spread.pulse.tobytes() == kernel.weights(dist).tobytes()
    x, y = randc(Q, rng), randc(2 * R, rng)
    fine, values = spread.scatter(x), spread.gather(y)
    assert fine.tobytes() == _scatter_monolithic(spread, x).tobytes()
    assert values.tobytes() == _gather_monolithic(spread, y).tobytes()
    # signed zeros: the bytes still match where terms are -0.0
    x0, y0 = x.copy(), y.copy()
    x0[::3], y0[::2] = complex(-0.0, -0.0), complex(-0.0, 0.0)
    assert spread.scatter(x0).tobytes() == _scatter_monolithic(spread, x0).tobytes()
    assert spread.gather(y0).tobytes() == _gather_monolithic(spread, y0).tobytes()
    # scaled by |x| |gather(y)|, the Cauchy-Schwarz bound on either side: the
    # roundoff of a sum of Q * taps terms grows with Q, and against |lhs| it
    # reaches ~1.3e-15 here
    lhs, rhs = np.vdot(fine, y), np.vdot(x, values)
    assert abs(lhs - rhs) <= 1e-15 * np.linalg.norm(x) * np.linalg.norm(values)


def test_transform_working_set_with_prebuilt_spreader():
    # with the spreader built, a transform holds a few fine-grid-length arrays and
    # one block's (block, taps) temporaries, never a (Q, taps) array (3.8 MB here)
    P = 16384
    rng = np.random.default_rng(26)
    grid = jittered(P, rng)
    spread = kernel_for_size(P).spreader(grid)
    a, S = randc(P, rng), randc(P, rng)
    for call in (lambda: nfft_type1(grid, a, P, kernel=spread),
                 lambda: nfft_type2(S, grid, kernel=spread)):
        call()      # first FFT of this size outside the trace
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20


@pytest.mark.parametrize("R", [3, 64, 2 * _SPREAD_BLOCK + 37])
def test_streamed_taps_match_stored(R):
    # the grid of test_blocked_spreader_matches_monolithic: three blocks, the
    # last one partial, unsorted, one start index across a block edge; a
    # streamed spreader computes each block's taps as the stored build does
    rng = np.random.default_rng(25)
    Q = 2 * _SPREAD_BLOCK + 37
    t = rng.permutation(jittered(Q - 1, rng, 0.99).instants)
    grid = validate_grid(np.insert(t, _SPREAD_BLOCK, t[_SPREAD_BLOCK - 1] + 2e-12))
    kernel = kernel_for_size(R)
    stored, streamed = kernel.spreader(grid), kernel.streamed_spreader(grid)
    assert streamed.starts is None and streamed.pulse is None
    assert streamed.phase.tobytes() == stored.phase.tobytes()
    x, y = randc(Q, rng), randc(2 * R, rng)
    assert streamed.scatter(x).tobytes() == stored.scatter(x).tobytes()
    assert streamed.gather(y).tobytes() == stored.gather(y).tobytes()
    a, S = randc(Q, rng), randc(R, rng)
    for via in (kernel, stored):
        assert nfft_type1(grid, a, R, kernel=via).tobytes() == nfft_type1(grid, a, R).tobytes()
        assert nfft_type2(S, grid, kernel=via).tobytes() == nfft_type2(S, grid).tobytes()


def _traced_peak(call):
    """tracemalloc peak of ``call()``, run once first so that no first-call set-up counts."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_off_transform_working_set():
    # with no spreader given, a transform streams its taps: it holds the phases,
    # a few fine-grid-length arrays and one block's temporaries, the bound of
    # test_transform_working_set_with_prebuilt_spreader, not a (Q, taps) pulse
    P = 16384
    rng = np.random.default_rng(26)
    grid = jittered(P, rng)
    a, S = randc(P, rng), randc(P, rng)
    assert _traced_peak(lambda: nfft_type1(grid, a, P)) <= 3 * 2**20
    assert _traced_peak(lambda: nfft_type2(S, grid)) <= 3 * 2**20


def test_plain_solve_working_set():
    # a plain solve makes one transform, so it streams its taps too: it holds
    # the solve's length-P vectors and one block's temporaries, not a stored
    # spreader's 256 bytes per instant (4 MiB at this P)
    P = 16384
    rng = np.random.default_rng(28)
    plan = build_plan(jittered(P, rng), MethodParams.from_mu(1e-15, P, 6))
    A, s = randc(P, rng), randc(P, rng)
    assert _traced_peak(lambda: type4(plan, A)) <= 3.5 * 2**20
    assert _traced_peak(lambda: type5(plan, s)) <= 3.5 * 2**20


def test_direct_oracle_working_set():
    # a phase block holds about 2^16 entries whatever the row length, so a few
    # rows of many columns split into blocks: round_product's float64
    # temporaries of one block come to ~4 MiB (8 rows at once: ~7.5 MiB)
    P = 16384
    rng = np.random.default_rng(27)
    grid = jittered(P, rng)
    subgrid = validate_grid(grid.instants[::P // 8])
    a, S = randc(P, rng), randc(P, rng)
    assert _traced_peak(lambda: nfft_type1_direct(grid, a, 8)) <= 5 * 2**20
    assert _traced_peak(lambda: nfft_type2_direct(S, subgrid)) <= 5 * 2**20


def test_spreader_footprint():
    # start indices, pulse weights and phases only: no (Q, taps) index table
    P = 100
    grid = jittered(P, np.random.default_rng(24))
    spread = kernel_for_size(P).spreader(grid)
    taps = spread.kernel.taps
    assert spread.starts.shape == (P,) and spread.pulse.shape == (P, taps)
    nbytes = sum(arr.nbytes for arr in (spread.starts, spread.pulse, spread.phase))
    assert nbytes == P * (8 + 8 * taps + 16)


def test_kernel_cache_holds_deconvolution_weights_alone():
    # after an eta = 6 plan the two cached kernels (lengths P and 6P) hold their
    # float64 deconvolution weights and no index table: 8 bytes per output point
    P = 65536
    kernel_for_size.cache_clear()
    build_plan(jittered(P, np.random.default_rng(26)), MethodParams.from_mu(1e-15, P, eta=6))
    assert kernel_for_size.cache_info().currsize == 2
    kernels = (kernel_for_size(P), kernel_for_size(6 * P))
    nbytes = sum(value.nbytes for k in kernels for value in vars(k).values()
                 if isinstance(value, np.ndarray))
    assert nbytes == 8 * 7 * P == 3670016


def test_kernel_tables_positive_finite_immutable():
    for size in (1, 7, 33, 256):
        k = kernel_for_size(size)
        assert np.all(k.deconv > 0) and np.all(np.isfinite(k.deconv))
        assert k.deconv.size == size
        with pytest.raises(ValueError):
            k.deconv[0] = 1.0
    with pytest.raises(ValueError):
        kernel_for_size(0)


@pytest.mark.parametrize("P", [8, 64, 300, 1000])
def test_dense_system_product_is_the_oracle(P):
    # the sweep's spectrum: the type-4 system times the amplitudes over the
    # oracle's row blocks has the oracle's bytes, one block or several
    rng = np.random.default_rng(P)
    grid, a = jittered(P, rng), randc(P, rng)
    spectrum = _blocked_matvec(type4_system(grid), a)
    assert spectrum.tobytes() == nfft_type1_direct(grid, a, P).tobytes()


def test_phase_blocks_match_complex_exponential():
    # cos and sin of the in-place angle are the bytes of the complex exponential
    # of the remainder, on remainders 0, -1/2 (ties), +-subnormal and random
    rng = np.random.default_rng(29)
    cols = np.concatenate([[0.0, 0.5, 0.25, 5e-324, 1e-310, 1.0 - 2.0**-53],
                           rng.uniform(0.0, 1.0, 300)])
    rows = np.concatenate([np.arange(6.0), [1000.0, 2.0**20], rng.integers(0, 2**20, 300)])
    for sign in (-1, 1):
        r = sign * rows
        want = np.exp(2j * np.pi * round_product(r[:, None], cols)[1])
        got = np.empty_like(want)
        blocks = list(_phase_blocks(rows, cols, sign))
        for block, phases in blocks:
            got[block] = phases
        assert len(blocks) == 2 and got.tobytes() == want.tobytes()
