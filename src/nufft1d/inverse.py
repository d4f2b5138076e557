"""Non-iterative inversion of the type-1 and type-2 transforms.

A per-grid plan precomputes the node-polynomial quantities plus node
weights; each solve then costs three forward NFFTs and a couple of FFTs,
O(P log P) total. type5 recovers polynomial coefficients from samples at
the nodes; type4 recovers delta-train amplitudes from uniform spectrum
samples. The two solves are exact flop-count duals of each other.

A refinement pass re-solves for the residual and subtracts, squaring the
method's error bound; with the damping chosen coarse this recovers dense-
solver-class accuracy at FFT cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError
from .flops import FlopCounter
from .forward import (
    _idft_unnormalized,
    nfft_type1,
    nfft_type2,
    nonuniform_conv,
)
from .grid import MethodParams, NonuniformGrid, as_complex_vector
from .gridding import GriddingKernel, cis_cycles, kernel_for_size
from .lagrange import KernelData, build_kernel_data


@dataclass(frozen=True, eq=False)
class InversePlan:
    """Grid-only precomputation, reusable across right-hand sides.

    node_weights combine the boundary kernel h(-P t_p + i P a) with the
    reciprocal of L'(e^{2 pi i t_p}) e^{2 pi i t_p}; h1_coefficients are the
    exactly band-limited pulse spectrum e^{-2 pi p a} (so the solve-side
    convolution needs no truncation); coef_scale is e^{+2 pi p a} / P, the
    coefficient-recovery weighting.
    """

    grid: NonuniformGrid
    params: MethodParams
    kernel_data: KernelData
    node_weights: np.ndarray
    h1_coefficients: np.ndarray
    coef_scale: np.ndarray
    kernel_fine: GriddingKernel
    kernel_base: GriddingKernel

    @property
    def size(self) -> int:
        return self.grid.size


def build_plan(
    grid: NonuniformGrid,
    params: MethodParams,
    flops: FlopCounter | None = None,
) -> InversePlan:
    """Precompute everything grid-dependent for type-4/type-5 solves."""
    P = grid.size
    a = params.damping_a
    kernel_fine = kernel_for_size(params.eta * P, params.spread_width)
    kernel_base = kernel_for_size(P, params.spread_width)
    kdata = build_kernel_data(grid, params, kernel_fine, kernel_base, flops=flops)

    p = np.arange(P)
    decay = np.exp(-2.0 * np.pi * p * a)
    boost = 1.0 / decay
    coef_scale = boost / P

    t = grid.instants
    tl = np.asarray(t, dtype=np.longdouble)
    h_boundary = 1.0 / (cis_cycles(-P * tl) * np.exp(-2.0 * np.pi * P * a) - 1.0)
    node_weights = h_boundary / (kdata.derivative_samples * cis_cycles(tl))
    if flops is not None:
        flops.complex_exp(P)            # decay table
        flops.real_mul(2 * P)           # boost reciprocals, /P scale
        flops.complex_exp(2 * P + 1)    # node phases e^{-2 pi i P t}, e^{2 pi i t}, e^{-2 pi P a}
        flops.real_mul(2 * P)           # damp the node phases
        flops.complex_add(P)            # the -1
        flops.complex_div(2 * P)        # reciprocal of h denominator, final division
        flops.complex_mul(P)            # L' * e^{2 pi i t}
    for arr in (decay, coef_scale, node_weights):
        arr.setflags(write=False)
    return InversePlan(
        grid=grid,
        params=params,
        kernel_data=kdata,
        node_weights=node_weights,
        h1_coefficients=decay,
        coef_scale=coef_scale,
        kernel_fine=kernel_fine,
        kernel_base=kernel_base,
    )


def type5(plan: InversePlan, samples, flops: FlopCounter | None = None) -> np.ndarray:
    """Coefficients S with sum_p S_p e^{2 pi i p t_q} = samples_q.

    Weighted amplitudes, one band-limited nonuniform convolution onto the
    regular grid, a pointwise multiply by the kernel samples, then one DFT
    with undamping.
    """
    s = as_complex_vector(samples, length=plan.size, name="samples")
    P = plan.size
    weighted = s * plan.node_weights
    u = nonuniform_conv(
        plan.grid, weighted, plan.h1_coefficients, P, kernel=plan.kernel_base, flops=flops
    )
    shifted = plan.kernel_data.kernel_samples * u  # s(q/P + i a)
    out = np.fft.fft(shifted) * plan.coef_scale
    if flops is not None:
        flops.complex_mul(2 * P)
        flops.fft(P)
        flops.real_mul(2 * P)
    return out


def type4(plan: InversePlan, spectrum, flops: FlopCounter | None = None) -> np.ndarray:
    """Amplitudes a with sum_q a_q e^{-2 pi i p t_q} = spectrum_p.

    The same regular-grid sequence as type5 is obtained directly from the
    damped spectrum by one inverse FFT; after coefficient recovery, a
    type-2 transform evaluates at the nodes and the node weights finish.
    """
    A = as_complex_vector(spectrum, length=plan.size, name="spectrum")
    P = plan.size
    u = _idft_unnormalized(plan.h1_coefficients * A)
    shifted = plan.kernel_data.kernel_samples * u
    S = np.fft.fft(shifted) * plan.coef_scale
    s_nodes = nfft_type2(S, plan.grid, kernel=plan.kernel_base, flops=flops)
    if flops is not None:
        flops.real_mul(2 * P)       # damping the spectrum
        flops.fft(P)                # regular-grid sequence
        flops.complex_mul(P)        # kernel-sample multiply
        flops.fft(P)                # coefficient recovery
        flops.real_mul(2 * P)       # coef_scale
        flops.complex_mul(P)        # node weights
    return s_nodes * plan.node_weights


def _refine(plan, data, passes, solve, forward, flops):
    if passes < 0:
        raise ValueError(f"refinement passes must be >= 0, got {passes}")
    x = solve(plan, data, flops=flops)
    P = plan.size
    prev_norm = None
    for _ in range(passes):
        residual = forward(x) - data
        if flops is not None:
            flops.complex_add(2 * P)    # residual and correction subtractions
        norm = float(np.linalg.norm(residual))
        if prev_norm is not None and norm > prev_norm:
            raise NonConvergenceError(
                f"residual norm grew between passes ({prev_norm:.3e} -> {norm:.3e}); "
                "method error >= 1 at these parameters"
            )
        prev_norm = norm
        x = x - solve(plan, residual, flops=flops)
    return x


def refine_type4(
    plan: InversePlan,
    spectrum,
    passes: int | None = None,
    flops: FlopCounter | None = None,
) -> np.ndarray:
    """type4 plus residual-correction passes.

    Each pass forwards the current amplitudes through a type-1 transform,
    subtracts the given spectrum, re-solves for the residual and subtracts
    the correction; every pass multiplies the error bound by the plain
    method's accuracy factor.
    """
    if passes is None:
        passes = plan.params.refine_passes
    A = as_complex_vector(spectrum, length=plan.size, name="spectrum")

    def forward(x):
        return nfft_type1(plan.grid, x, plan.size, kernel=plan.kernel_base, flops=flops)

    return _refine(plan, A, passes, type4, forward, flops)


def refine_type5(
    plan: InversePlan,
    samples,
    passes: int | None = None,
    flops: FlopCounter | None = None,
) -> np.ndarray:
    """type5 plus residual-correction passes (sample-domain residuals)."""
    if passes is None:
        passes = plan.params.refine_passes
    s = as_complex_vector(samples, length=plan.size, name="samples")

    def forward(x):
        return nfft_type2(x, plan.grid, kernel=plan.kernel_base, flops=flops)

    return _refine(plan, s, passes, type5, forward, flops)
