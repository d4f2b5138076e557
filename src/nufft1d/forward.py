"""Forward nonuniform transforms (types 1 and 2) and the v stage's convolution.

The fast paths use Gaussian gridding with oversampling factor two; the
_direct variants are exact O(PQ) summations kept as oracles for tests and
residual checks. Both transform families are linear and are exact
Hermitian transposes of one another. The oracles and the dense systems of
``baselines`` take their phases e^{+-2 pi i r c} from one blockwise
generator, ``_phase_blocks``, with r * c reduced mod 1 exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import LengthMismatchError
from .flops import FlopCounter, charge
from .grid import NonuniformGrid, as_complex_vector, require_count
from .gridding import GriddingKernel, Spreader, _cis_inplace, kernel_for_size, round_product

_PHASE_BLOCK = 2**16   # entries per phase block, at least one row; bounds its temporaries


def _idft_unnormalized(V: np.ndarray) -> np.ndarray:
    """sum_p V_p e^{+2 pi i p q / N} without the 1/N factor (single FFT)."""
    return np.conj(np.fft.fft(np.conj(V)))


def _gridding_kernel(
    kernel: GriddingKernel | Spreader | None,
    grid: NonuniformGrid,
    size: int,
    flops: FlopCounter | None,
) -> Spreader:
    """The spreader for a length-``size`` band on ``grid``, with one transform charged.

    ``kernel`` is a kernel (None means the default for ``size``), from which
    a streamed spreader is made for this one transform (its phases alone,
    O(Q); the taps are computed block by block as the transform runs), or a
    stored spreader a caller built for ``grid`` to share between several
    transforms. The charge is per transform either way, the paper's model:
    types 1 and 2 are exact transposes, so one charge serves both: the band
    shift at Q instants, Q * taps pulse samples spread or gathered, one
    fine-grid FFT and the deconvolution on the band.
    """
    spread = kernel if isinstance(kernel, Spreader) else None
    if spread is not None:
        if spread.grid is not grid and spread.grid != grid:
            raise ValueError("spreader was built for another grid")
        kernel = spread.kernel
    if kernel is None:
        kernel = kernel_for_size(size)
    elif kernel.size != size:
        raise LengthMismatchError(f"kernel built for size {kernel.size}, transform needs {size}")
    Q = grid.size
    charge(
        flops,
        ffts=(kernel.fine_size,),
        complex_exps=Q + Q * kernel.taps,           # band-shift phases, pulse evaluations
        complex_muls=Q,                             # band-shift modulation
        real_muls=2 * Q * kernel.taps + 2 * size,   # complex value * real weight, deconvolution
        complex_adds=Q * kernel.taps,               # scatter or gather accumulation
    )
    return spread if spread is not None else kernel.streamed_spreader(grid)


def nfft_type1(
    grid: NonuniformGrid,
    amplitudes,
    R: int,
    kernel: GriddingKernel | Spreader | None = None,
    flops: FlopCounter | None = None,
) -> np.ndarray:
    """Spectrum samples A(p) = sum_q a_q e^{-2 pi i p t_q} for p = 0..R-1.

    O(R log R + Q) via gridding; relative l2 error is at the kernel's
    accuracy target (~5e-15). ``kernel`` may be a length-R kernel or a
    spreader built from one for this grid.
    """
    R = require_count(R, "output length", 1)
    a = as_complex_vector(amplitudes, length=grid.size, name="amplitudes")
    spread = _gridding_kernel(kernel, grid, R, flops)
    spectrum = np.fft.fft(spread.scatter(a))
    n, K = spread.kernel.fine_size, spread.kernel.band_shift
    return np.concatenate((spectrum[n - K:], spectrum[:R - K])) * spread.kernel.deconv


def nfft_type2(
    coefficients,
    grid: NonuniformGrid,
    kernel: GriddingKernel | Spreader | None = None,
    flops: FlopCounter | None = None,
) -> np.ndarray:
    """Polynomial values s(t_q) = sum_p S_p e^{+2 pi i p t_q} at the grid.

    Implemented as the exact Hermitian transpose of nfft_type1: deconvolve
    on the coefficient side, one unnormalized inverse FFT, then a windowed
    gather at each instant. ``kernel`` is as for nfft_type1.
    """
    S = as_complex_vector(coefficients, name="coefficients")
    spread = _gridding_kernel(kernel, grid, S.size, flops)
    n, K, deconv = spread.kernel.fine_size, spread.kernel.band_shift, spread.kernel.deconv
    F = np.zeros(n, dtype=np.complex128)
    np.multiply(S[:K], deconv[:K], out=F[n - K:])     # negative frequencies, bins n - K..n - 1
    np.multiply(S[K:], deconv[K:], out=F[:S.size - K])
    return spread.gather(_idft_unnormalized(F))


def _row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Slices of ``_PHASE_BLOCK // n_cols`` rows, at least one, covering ``n_rows`` rows."""
    step = max(1, _PHASE_BLOCK // n_cols)
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]


def _phase_blocks(rows, cols, sign: int):
    """Yield (row slice, e^{sign 2 pi i r c}) for row blocks of ``rows`` against all ``cols``.

    The blocks are ``_row_blocks``, so a block's temporaries stay near
    ``_PHASE_BLOCK`` entries however long a row is; each entry is the same
    whatever the blocking. The signed remainder of r * c mod 1
    (``round_product``) is phased as it is by ``gridding._cis_inplace``,
    with no second rounding to [0, 1) as in ``cis_cycles``.
    """
    r = sign * np.asarray(rows, dtype=np.float64)
    for block in _row_blocks(r.size, len(cols)):
        yield block, _cis_inplace(round_product(r[block, None], cols)[1])


def _direct(rows, cols, sign: int, vector: np.ndarray) -> np.ndarray:
    """sum_c e^{sign 2 pi i r c} vector_c for every r in ``rows``."""
    out = np.empty(len(rows), dtype=np.complex128)
    for block, phases in _phase_blocks(rows, cols, sign):
        out[block] = phases @ vector
        del phases      # free this block before the generator builds the next
    return out


def _blocked_matvec(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """matrix @ vector taken over the direct oracles' row blocks (``_row_blocks``).

    On ``baselines.type4_system`` these are the type-1 oracle's products, so
    the result has its bytes whatever the BLAS does with a taller product.
    """
    out = np.empty(len(matrix), dtype=np.complex128)
    for block in _row_blocks(*matrix.shape):
        out[block] = matrix[block] @ vector
    return out


def nfft_type1_direct(grid: NonuniformGrid, amplitudes, R: int) -> np.ndarray:
    """Exact summation of the type-1 transform; O(RQ), oracle quality.

    Phases are reduced mod 1 exactly so the oracle stays a digit or two
    more accurate than the fast path it checks.
    """
    R = require_count(R, "output length", 1)
    a = as_complex_vector(amplitudes, length=grid.size, name="amplitudes")
    return _direct(np.arange(R), grid.instants, -1, a)


def nfft_type2_direct(coefficients, grid: NonuniformGrid) -> np.ndarray:
    """Exact summation of the type-2 transform; O(PQ), oracle quality."""
    S = as_complex_vector(coefficients, name="coefficients")
    return _direct(grid.instants, np.arange(S.size), +1, S)


def nonuniform_conv(
    unit: np.ndarray,
    lam_coefficients: np.ndarray,
    P: int,
    flops: FlopCounter | None = None,
) -> np.ndarray:
    """The v stage's convolution: gamma(k/P) = sum_q lam(k/P - t_q) for k < P.

    ``lam_coefficients`` is the real truncated series Lambda of
    ``lagrange.series_coefficients``, of length R = eta P; it is convolved
    with the grid's unit delta train, given by ``unit``, its length-R
    type-1 transform ``nfft_type1(grid, ones, R)``. That spectrum depends on
    the grid alone, so one serves every series of length R on the grid.
    The series times ``unit``, an aliasing fold down to length P, and one
    unnormalized inverse FFT.
    """
    R = lam_coefficients.size
    eta = R // P
    prod = lam_coefficients * unit
    folded = prod.reshape(eta, P).sum(axis=0) if eta > 1 else prod
    charge(
        flops,
        ffts=(P,),
        real_muls=2 * R,                    # series coefficients times spectrum
        complex_adds=(eta - 1) * P,         # aliasing fold
    )
    return _idft_unnormalized(folded)
