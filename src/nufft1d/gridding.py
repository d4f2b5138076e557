"""Gaussian gridding kernel for the fast nonuniform transforms.

A truncated Gaussian pulse of half-width m = 14 fine-grid points on a
2x-oversampled grid, with the shape parameter balancing the aliasing and
tail-truncation error exponents (both exp(-pi m / sqrt 2), about 5e-15).
Deconvolution weights divide out the pulse's spectrum at the exact output
frequencies; they are strictly positive.

Output frequencies 0..R-1 are handled by shifting the band to be centered
(a modulation by e^{+-2 pi i K t} with K = R // 2). The modulation phase
K * t spans thousands of cycles, so it is reduced mod 1 exactly, in plain
double, by ``round_product``; rounded first, the phase alone would cost
~1e-13 relative error at R = 4096.

Spreading works on a padded fine grid of length n + 2m + 1, fine-grid
point j - m held at padded index j, so no tap index is ever wrapped; its
n-point chunks are added back onto the periodic grid once per transform.
The taps of instant q are the 2m + 1 consecutive padded points from its
start index i0, so a ``Spreader`` needs i0 alone, not a table of tap
indices (as NFFT3 keeps a compact per-node window; Keiner, Kunis, Potts,
ACM TOMS 36(4), 2009). A stored spreader keeps start indices, pulse
weights and band-shift phases, 8 + 8 * taps + 16 = 256 bytes per
instant, computed once for the transforms that reuse a grid (a plan at
eta = 1, a refined solve, CG, a ``run_sweep`` trial). A one-off
transform, a plain solve's among them, streams its taps: its spreader keeps the phases alone, 16
bytes per instant, and computes each block's start indices and weights
as scatter or gather reaches it, as FINUFFT evaluates kernel values on
the fly and NFFT3 precomputes them only on request (``PRE_PSI``).

The build, the scatter and the gather walk the instants in blocks of
``_SPREAD_BLOCK`` = 1024, as FINUFFT spreads in cache-sized subproblems
(Barnett, Magland, af Klinteberg, SIAM J. Sci. Comput. 41, 2019). Only a
block's (block, taps) temporaries exist at once: its tap distances, flat
tap indices, complex products or gathered windows, about 0.7 MB in all,
instead of (Q, taps) arrays of up to 90 MB at Q = 131072. Scatter makes one
complex ``np.add.at`` per block onto the padded grid, in node order;
``np.add.at`` adds in index order, as ``np.bincount`` does, so the blocked
sums equal one call's bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .grid import NonuniformGrid, require_count

SPREAD_WIDTH = 14                                       # half-width m in fine-grid points
_SHAPE_B = SPREAD_WIDTH / (2.0 * np.sqrt(2.0) * np.pi)  # b of exp(-x^2 / 4b), alias = tail exponent
_SPREAD_BLOCK = 1024    # instants per block; bounds the (block x taps) temporaries


def cis_cycles(cycles) -> np.ndarray:
    """e^{2 pi i c} with c in cycles, reduced mod 1 in the precision of ``cycles``.

    The reduced cycles are cast to double and phased by ``_cis_inplace``.
    """
    c = np.asarray(cycles)
    frac = c - np.floor(c)      # np.mod(c, 1.0) bit for bit, in a third of its time
    return _cis_inplace(frac.astype(np.float64, copy=False))


def _cis_inplace(cycles: np.ndarray) -> np.ndarray:
    """e^{2 pi i c} of the double ``cycles``, which are overwritten with the angles 2 pi c.

    cos and sin fill one complex output, with no complex temporary, in the
    bytes of np.exp(2j * np.pi * c): that product is +-0 + i (0 * 0 + 2 pi c),
    and e^{+-0 + i theta} is (cos theta, sin theta) from the same libm.
    """
    cycles *= 2.0 * np.pi
    cycles += 0.0       # -0 to +0, as 0 * 0 + 2 pi c does; every other angle is kept
    out = np.empty(np.shape(cycles), dtype=np.complex128)
    np.cos(cycles, out=out.real)
    np.sin(cycles, out=out.imag)
    return out


def round_product(x, y):
    """(n, r): n the integer nearest x * y, r = x * y - n rounded once to double.

    Dekker's exact product (Numer. Math. 18, 1971) of the Veltkamp-split
    operands gives x * y = p + e exactly; p - n is then exact for |p| < 2^52.
    The broadcast terms are computed in place, in four arrays of the
    broadcast shape. Scalar or 0-d operands give numpy scalars.
    """
    cx, cy = 134217729.0 * x, 134217729.0 * y           # 2^27 + 1 splits into 26-bit halves
    xh, yh = cx - (cx - x), cy - (cy - y)
    xl, yl = x - xh, y - yh
    p, e, n, m = (np.empty(np.broadcast(x, y).shape) for _ in range(4))
    np.multiply(x, y, out=p)
    np.multiply(xh, yh, out=e)
    e -= p                                          # e = (((xh yh - p) + xh yl) + xl yh) + xl yl
    e += np.multiply(xh, yl, out=n)
    e += np.multiply(xl, yh, out=n)
    e += np.multiply(xl, yl, out=n)
    np.rint(p, out=n)
    d = np.subtract(p, n, out=p)
    np.copysign(2.0 ** -53, e, out=m)
    m += d
    np.rint(m, out=m)           # moves only d = +-1/2, the way e points
    d -= m
    d += e
    n += m
    return (n, d) if n.ndim else (n[()], d[()])     # owned: numpy elides only their temporaries


def sum_cycles(start: float, values) -> float:
    """(start + sum(values)) mod 1, ``start`` a multiple of 1/2, within ~1e-17 of exact."""
    n, r = round_product(2.0 ** 20, values)     # integer n: sum(n) exact below 2^32 values
    return float(np.mod(np.mod(start + n.sum() / 2.0 ** 20, 1.0) + r.sum() / 2.0 ** 20, 1.0))


@dataclass(frozen=True, eq=False)
class GriddingKernel:
    """Precomputed pulse data for transforms with a fixed output length.

    Fields are immutable and shareable across threads; one kernel serves any
    number of transforms of the same size. ``deconv`` is its one array.
    """

    size: int                 # output band length R
    fine_size: int            # oversampled grid length, 2R
    band_shift: int           # K = R // 2, modulation making the band centered
    deconv: np.ndarray        # 1 / (n Psi_nu), strictly positive, length R
    fold: tuple[tuple[slice, slice], ...]   # (padded, fine) slices of each n-point chunk

    taps = 2 * SPREAD_WIDTH + 1

    def spread_geometry(self, instants: np.ndarray):
        """Padded fine-grid start indices and signed tap distances of each instant.

        The taps of instant q are the padded points i0 + j, j = 0..2m, of the
        padded grid of length n + 2m + 1 (``fold`` puts them at fine-grid bins
        i0 + j - m mod n), where the (Q,) int64 start index i0 = rint(n t_q)
        lies in [0, n]. Row q of the (Q, taps) distances holds
        j - m - (n t_q - i0), with n t_q - i0 exact to one rounding
        (``round_product``).
        """
        i0, frac = round_product(self.fine_size, instants)
        dist = (np.arange(self.taps) - SPREAD_WIDTH)[None, :] - frac[:, None]
        return i0.astype(np.int64), dist

    def weights(self, dist: np.ndarray) -> np.ndarray:
        """Gaussian pulse weights at the distances ``dist``, computed in place.

        ``dist`` is overwritten with the weights, which are returned.
        """
        dist *= dist
        dist /= -4.0 * _SHAPE_B
        return np.exp(dist, out=dist)

    def streamed_spreader(self, grid: NonuniformGrid) -> "Spreader":
        """A spreader of ``grid`` keeping only its phases; for one transform, O(Q) memory.

        Its ``scatter`` and ``gather`` compute each block's taps as they reach it.
        """
        phase = cis_cycles(round_product(self.band_shift, grid.instants)[1])
        phase.setflags(write=False)
        return Spreader(kernel=self, grid=grid, starts=None, pulse=None, phase=phase)

    def spreader(self, grid: NonuniformGrid) -> "Spreader":
        """Start indices, pulse weights and band-shift phases of ``grid``, computed once.

        The streamed spreader's blocks fill the preallocated (Q,) starts and
        (Q, taps) pulse, so stored and streamed taps are the same bytes.
        """
        streamed = self.streamed_spreader(grid)
        starts = np.empty(grid.size, dtype=np.int64)
        pulse = np.empty((grid.size, self.taps))
        for block, block_starts, block_pulse in streamed._block_taps():
            starts[block], pulse[block] = block_starts, block_pulse
        for arr in (starts, pulse):
            arr.setflags(write=False)
        return replace(streamed, starts=starts, pulse=pulse)


@dataclass(frozen=True, eq=False)
class Spreader:
    """One grid's gridding data for one kernel, for one transform or shared by several.

    ``phase`` is the band shift e^{+2 pi i K t_q}, 16 bytes per instant.
    Tap j of instant q sits at padded fine-grid index starts[q] + j, with
    weight pulse[q, j], from ``kernel.spread_geometry`` and
    ``kernel.weights``. A stored spreader (``GriddingKernel.spreader``)
    keeps the (Q,) ``starts`` and (Q, taps) ``pulse``, 240 more bytes per
    instant, for transforms that reuse the grid (a plan at eta = 1, a
    refined solve, CG, a ``run_sweep`` trial); a streamed one (``GriddingKernel.streamed_spreader``)
    has both None and computes a block's starts and weights when
    ``scatter`` or ``gather`` reaches it. Either way the two walk the
    instants in blocks of ``_SPREAD_BLOCK``, so their taps, flat tap
    indices, complex products and gathered windows are (block, taps), not
    (Q, taps). ``scatter`` sums with one complex
    ``np.add.at`` per block, in node order, which adds in index order as
    ``np.bincount`` does, then adds the padded grid's chunks onto the fine
    grid (``kernel.fold``); ``gather`` concatenates fine-grid slices into
    the padded grid and reads a window view of it at each start. The
    arrays are read-only, so a spreader can be shared across threads.
    """

    kernel: GriddingKernel
    grid: NonuniformGrid
    starts: np.ndarray | None
    pulse: np.ndarray | None
    phase: np.ndarray

    def _block_taps(self):
        """(slice, start indices, pulse weights) for each block of ``_SPREAD_BLOCK`` instants.

        Slices of the stored arrays, or on a streamed spreader the block's
        geometry then weights, computed for that block alone.
        """
        t = self.grid.instants
        for lo in range(0, t.size, _SPREAD_BLOCK):
            block = slice(lo, lo + _SPREAD_BLOCK)
            if self.pulse is not None:
                yield block, self.starts[block], self.pulse[block]
            else:
                starts, dist = self.kernel.spread_geometry(t[block])
                yield block, starts, self.kernel.weights(dist)

    def scatter(self, values: np.ndarray) -> np.ndarray:
        """Band-shifted values spread onto the periodic fine grid (length n)."""
        kernel = self.kernel
        shifted = np.conj(self.phase)
        # values first: numpy swaps `x * temporary` at 256 KiB; complex x*y, y*x differ in bits
        np.multiply(values, shifted, out=shifted)
        offsets = np.arange(kernel.taps)
        padded = np.zeros(kernel.fine_size + kernel.taps, dtype=np.complex128)
        for block, starts, pulse in self._block_taps():
            flat = (starts[:, None] + offsets).ravel()
            np.add.at(padded, flat, (pulse * shifted[block, None]).ravel())
        # each fine point gets its terms in padded order, from +0, as np.add.at would add them
        fine = np.zeros(kernel.fine_size, dtype=np.complex128)
        for pad, wrap in kernel.fold:
            chunk = fine[wrap]      # a view: += adds in place, with no copy back
            chunk += padded[pad]
        return fine

    def gather(self, fine: np.ndarray) -> np.ndarray:
        """Windowed sums of the periodic fine-grid sequence at each instant, band-shifted."""
        taps = self.kernel.taps
        padded = np.concatenate([fine[wrap] for _, wrap in self.kernel.fold])
        # row i of the (n + 1, taps) view is padded[i : i + taps]; indexing it
        # by start copies each instant's taps, and checks every start's bounds
        stride = padded.strides[0]
        windows = np.ndarray((padded.size - taps + 1, taps), dtype=padded.dtype, buffer=padded,
                             strides=(stride, stride))
        windows.setflags(write=False)
        out = np.empty(self.phase.size, dtype=np.complex128)
        for block, starts, pulse in self._block_taps():
            np.einsum("qj,qj->q", pulse, windows[starts], out=out[block])
        out *= self.phase
        return out


def kernel_for_size(size: int) -> GriddingKernel:
    """Build (or fetch a cached) kernel for output length ``size``.

    ``size`` is checked and made an int before the cache, so 6, 6.0 and
    ``np.int64(6)`` share one kernel; 2.5 raises ValueError.
    """
    return _cached_kernel(require_count(size, "transform size", 1))


@lru_cache(maxsize=64)
def _cached_kernel(size: int) -> GriddingKernel:
    n = 2 * size
    K = size // 2
    nu = np.arange(size) - K
    deconv = np.exp(_SHAPE_B * (2.0 * np.pi * nu / n) ** 2) / np.sqrt(4.0 * np.pi * _SHAPE_B)
    deconv.setflags(write=False)
    # padded point i is fine point (i - m) mod n: n-point chunks start at each i = m mod n,
    # the first at or below 0, clipped to the padded grid; for R <= 7 a pad spans several
    padded = n + GriddingKernel.taps
    fold = tuple((slice(max(lo, 0), min(lo + n, padded)), slice(max(-lo, 0), min(n, padded - lo)))
                 for lo in range(-(-SPREAD_WIDTH % n), padded, n))
    return GriddingKernel(size=size, fine_size=n, band_shift=K, deconv=deconv, fold=fold)


# the cache's statistics and reset, reachable from the public name
kernel_for_size.cache_info = _cached_kernel.cache_info
kernel_for_size.cache_clear = _cached_kernel.cache_clear
