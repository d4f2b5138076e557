"""Forward nonuniform transforms (types 1 and 2) and nonuniform convolution.

The fast paths use Gaussian gridding with oversampling factor two; the
_direct variants are exact O(PQ) summations kept as oracles for tests and
residual checks. Both transform families are linear and are exact
Hermitian transposes of one another. The oracles and the dense systems of
``baselines`` take their phases e^{+-2 pi i r c} from one blockwise,
extended-precision generator, ``_phase_blocks``.
"""

from __future__ import annotations

import numpy as np

from .errors import SizeMismatchError
from .flops import FlopCounter, charge
from .grid import NonuniformGrid, as_complex_vector
from .gridding import GriddingKernel, Spreader, cis_cycles, kernel_for_size

_PHASE_BLOCK = 256   # rows per phase block; bounds the extended-precision temporaries


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
    a spreader is built for this one transform, or a spreader a caller built
    for ``grid`` to share between several transforms. The charge is per
    transform either way, the paper's model: types 1 and 2 are exact
    transposes, so one charge serves both: the band shift at Q instants,
    Q * taps pulse samples spread or gathered, one fine-grid FFT and the
    deconvolution on the band.
    """
    spread = kernel if isinstance(kernel, Spreader) else None
    if spread is not None:
        if spread.grid is not grid and spread.grid != grid:
            raise ValueError("spreader was built for another grid")
        kernel = spread.kernel
    if kernel is None:
        kernel = kernel_for_size(size)
    elif kernel.size != size:
        raise SizeMismatchError(f"kernel built for size {kernel.size}, transform needs {size}")
    Q = grid.size
    charge(
        flops,
        ffts=(kernel.fine_size,),
        complex_exps=Q + Q * kernel.taps,           # band-shift phases, pulse evaluations
        complex_muls=Q,                             # band-shift modulation
        real_muls=2 * Q * kernel.taps + 2 * size,   # complex value * real weight, deconvolution
        complex_adds=Q * kernel.taps,               # scatter or gather accumulation
    )
    return spread if spread is not None else kernel.spreader(grid)


def nfft_type1(
    grid: NonuniformGrid,
    amplitudes,
    R: int,
    kernel: GriddingKernel | Spreader | None = None,
    flops: FlopCounter | None = None,
) -> np.ndarray:
    """Spectrum samples A(p) = sum_q a_q e^{-2 pi i p t_q} for p = 0..R-1.

    O(R log R + Q) via gridding; relative l2 error is at the kernel's
    accuracy target (~5e-15 at the default spread width). ``kernel`` may
    be a length-R kernel or a spreader built from one for this grid.
    """
    if R < 1:
        raise ValueError(f"output length must be >= 1, got {R}")
    a = as_complex_vector(amplitudes, length=grid.size, name="amplitudes")
    spread = _gridding_kernel(kernel, grid, R, flops)
    spectrum = np.fft.fft(spread.scatter(a))
    return spectrum[spread.kernel.bins] * spread.kernel.deconv


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
    F = np.zeros(spread.kernel.fine_size, dtype=np.complex128)
    F[spread.kernel.bins] = S * spread.kernel.deconv
    return spread.gather(_idft_unnormalized(F))


def _phase_blocks(rows, cols, sign: int):
    """Yield (row slice, e^{sign 2 pi i r c}) for row blocks of ``rows`` against all ``cols``.

    r * c is formed and reduced mod 1 in extended precision (``cis_cycles``).
    """
    r = np.asarray(rows, dtype=np.longdouble)
    c = np.asarray(cols, dtype=np.longdouble)
    for lo in range(0, r.size, _PHASE_BLOCK):
        block = slice(lo, lo + _PHASE_BLOCK)
        yield block, cis_cycles(sign * np.outer(r[block], c))


def _direct(rows, cols, sign: int, vector: np.ndarray) -> np.ndarray:
    """sum_c e^{sign 2 pi i r c} vector_c for every r in ``rows``."""
    out = np.empty(len(rows), dtype=np.complex128)
    for block, phases in _phase_blocks(rows, cols, sign):
        out[block] = phases @ vector
        del phases      # free this block before the generator builds the next
    return out


def nfft_type1_direct(grid: NonuniformGrid, amplitudes, R: int) -> np.ndarray:
    """Exact summation of the type-1 transform; O(RQ), oracle quality.

    Phases are reduced mod 1 in extended precision so the oracle stays a
    digit or two more accurate than the fast path it checks.
    """
    if R < 1:
        raise ValueError(f"output length must be >= 1, got {R}")
    a = as_complex_vector(amplitudes, length=grid.size, name="amplitudes")
    return _direct(np.arange(R), grid.instants, -1, a)


def nfft_type2_direct(coefficients, grid: NonuniformGrid) -> np.ndarray:
    """Exact summation of the type-2 transform; O(PQ), oracle quality."""
    S = as_complex_vector(coefficients, name="coefficients")
    return _direct(grid.instants, np.arange(S.size), +1, S)


def nonuniform_conv(
    grid: NonuniformGrid,
    amplitudes,
    lam_coefficients,
    P: int,
    kernel: GriddingKernel | Spreader | None = None,
    flops: FlopCounter | None = None,
) -> np.ndarray:
    """Samples of gamma(t) = sum_q a_q lam(t - t_q) on the regular grid {q/P}.

    ``lam_coefficients`` holds the R spectral coefficients of the kernel
    polynomial, R an integer multiple of P. One type-1 transform of length
    R, an aliasing fold down to length P, and one unnormalized inverse FFT.
    """
    if P < 1:
        raise ValueError(f"output length must be >= 1, got {P}")
    lam = np.asarray(lam_coefficients)
    R = lam.size
    if R % P != 0:
        raise SizeMismatchError(f"kernel length {R} is not a multiple of output length {P}")
    eta = R // P
    A = nfft_type1(grid, amplitudes, R, kernel=kernel, flops=flops)
    prod = lam * A
    folded = prod.reshape(eta, P).sum(axis=0) if eta > 1 else prod
    real = np.isrealobj(lam)
    charge(
        flops,
        ffts=(P,),
        real_muls=2 * R if real else 0,     # kernel coefficients times spectrum
        complex_muls=0 if real else R,
        complex_adds=(eta - 1) * P,         # aliasing fold
    )
    return _idft_unnormalized(folded.astype(np.complex128, copy=False))
