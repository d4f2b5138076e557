"""Non-iterative inversion of the type-1 and type-2 transforms.

A per-grid plan precomputes the node-polynomial quantities plus node
weights; each solve then costs one forward NFFT and two length-P FFTs,
O(P log P) total. type5 recovers polynomial coefficients from samples at
the nodes: a type-1 NFFT, then a regular-grid coefficient recovery. type4
recovers delta-train amplitudes from uniform spectrum samples: the same
recovery, then a type-2 NFFT. The two solves are exact flop-count duals of
each other.

A refinement pass re-solves for the residual and subtracts, squaring the
method's error bound; with the damping chosen coarse this recovers dense-
solver-class accuracy at FFT cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flops import FlopCounter, charge
from .forward import _idft_unnormalized, nfft_type1, nfft_type2
from .grid import MethodParams, NonuniformGrid, as_complex_vector, require_count
from .gridding import GriddingKernel, Spreader, cis_cycles, kernel_for_size, round_product
from .lagrange import (
    compute_v_samples,
    derivative_samples,
    kernel_coefficients,
    kernel_samples_from_v,
)


@dataclass(frozen=True, eq=False)
class InversePlan:
    """Grid-only precomputation, reusable across right-hand sides.

    From the node polynomial L(z) = prod_p (z - e^{2 pi i t_p}):
    kernel_samples are the damped samples L(e^{2 pi i (q/P + i a)}),
    coefficients are L_0..L_{P-1} (L_P = 1 implied) and derivative_samples
    are L'(e^{2 pi i t_p}). node_weights combine the boundary kernel
    h(-P t_p + i P a) with the reciprocal of L'(e^{2 pi i t_p}) e^{2 pi i t_p};
    h1_coefficients are the exactly band-limited pulse spectrum e^{-2 pi p a}
    (so the solve-side convolution needs no truncation); coef_scale is
    e^{+2 pi p a} / P, the coefficient-recovery weighting. kernel_base is the
    length-P gridding kernel, ``kernel_for_size(P)``, kept for callers that
    pass a kernel to the forward transforms; the solves build or stream
    their own spreader. All arrays are read-only.
    """

    grid: NonuniformGrid
    params: MethodParams
    kernel_samples: np.ndarray
    coefficients: np.ndarray
    derivative_samples: np.ndarray
    node_weights: np.ndarray
    h1_coefficients: np.ndarray
    coef_scale: np.ndarray
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
    # at eta = 1 both gridded stages are length P, so they share one spreader
    spread = kernel_for_size(grid.size).spreader(grid) if params.eta == 1 else None
    v = compute_v_samples(grid, params, spread=spread, flops=flops)
    return _plan_from_v(grid, params, v, spread, flops)


def _plan_from_v(grid: NonuniformGrid, params: MethodParams, v, spread, flops) -> InversePlan:
    """``build_plan``'s stages after the v stage, given its samples ``v``.

    ``spread``, if given, is a stored length-P spreader of ``grid`` for the
    derivative stage; without it that transform streams its taps.
    """
    P = grid.size
    a = params.damping_a
    ks = kernel_samples_from_v(v, grid, flops=flops)
    coeffs = kernel_coefficients(ks, params, flops=flops)
    dL = derivative_samples(coeffs, grid, spread=spread, flops=flops)

    p = np.arange(P)
    decay = np.exp(-2.0 * np.pi * p * a)
    boost = 1.0 / decay
    coef_scale = boost / P

    t = grid.instants
    h_boundary = 1.0 / (cis_cycles(round_product(-P, t)[1]) * np.exp(-2.0 * np.pi * P * a) - 1.0)
    node_weights = h_boundary / (dL * cis_cycles(t))
    charge(
        flops,
        complex_exps=P + 2 * P + 1,     # decay table; e^{-2 pi i P t}, e^{2 pi i t}, e^{-2 pi P a}
        real_muls=2 * P + 2 * P,        # boost reciprocals, /P scale; damp the node phases
        complex_adds=P,                 # the -1
        complex_divs=2 * P,             # reciprocal of h denominator, final division
        complex_muls=P,                 # L' * e^{2 pi i t}
    )
    for arr in (ks, coeffs, dL, decay, coef_scale, node_weights):
        arr.setflags(write=False)
    return InversePlan(
        grid=grid,
        params=params,
        kernel_samples=ks,
        coefficients=coeffs,
        derivative_samples=dL,
        node_weights=node_weights,
        h1_coefficients=decay,
        coef_scale=coef_scale,
        kernel_base=kernel_for_size(P),
    )


def _coefficients(plan: InversePlan, A: np.ndarray) -> np.ndarray:
    """Coefficient recovery on the regular grid, the part both solves share.

    Damp the length-P spectrum A, one inverse FFT to the regular-grid
    sequence, multiply by the kernel samples to get s(q/P + i a), then one
    FFT with undamping.
    """
    u = _idft_unnormalized(plan.h1_coefficients * A)
    return np.fft.fft(plan.kernel_samples * u) * plan.coef_scale


def _charge_solve(P: int, flops: FlopCounter | None):
    """Everything a solve costs beyond its forward transform (same for both)."""
    charge(
        flops,
        ffts=(P, P),                # regular-grid sequence, coefficient recovery
        real_muls=4 * P,            # damping and coef_scale
        complex_muls=2 * P,         # kernel samples and node weights
    )


def _type5(plan: InversePlan, s: np.ndarray, type1, flops) -> np.ndarray:
    A = type1(s * plan.node_weights)
    _charge_solve(plan.size, flops)
    return _coefficients(plan, A)


def _type4(plan: InversePlan, A: np.ndarray, type2, flops) -> np.ndarray:
    s_nodes = type2(_coefficients(plan, A))
    _charge_solve(plan.size, flops)
    return s_nodes * plan.node_weights


def _transform_pair(grid: NonuniformGrid, kind: str, flops, spread: Spreader | None = None):
    """The system matrix A of a ``kind`` system and its Hermitian transpose, as fast transforms.

    Type 4's A is the type-1 transform and type 5's the type-2 one, both of
    length P. ``spread`` is a stored length-P spreader of ``grid`` that
    every product shares, for a call that makes more than one transform;
    with None each transform streams its taps.
    """
    if kind not in ("type4", "type5"):
        raise ValueError(f"unknown system kind {kind!r}")
    P = grid.size
    type1 = lambda x: nfft_type1(grid, x, P, kernel=spread, flops=flops)
    type2 = lambda y: nfft_type2(y, grid, kernel=spread, flops=flops)
    return (type1, type2) if kind == "type4" else (type2, type1)


def _refine(plan: InversePlan, data, passes: int, kind: str, flops, spread=None, x=None):
    """Solve, then up to ``passes`` residual corrections; the one path of every inverse solve.

    ``spread``, if given, is a stored length-P spreader of the plan's grid
    for every transform; without it a refined solve builds one and a plain
    solve, which makes one transform, streams its taps. ``x``, if given, is
    the plain solve of this plan and data, already charged to ``flops``:
    the corrections start from it.
    """
    name, solve = ("spectrum", _type4) if kind == "type4" else ("samples", _type5)
    data = as_complex_vector(data, length=plan.size, name=name)
    passes = require_count(passes, "refinement passes", 0)
    P = plan.size
    if spread is None and passes > 0:
        spread = kernel_for_size(P).spreader(plan.grid)
    # each solve applies the transpose of the transform it inverts
    forward, adjoint = _transform_pair(plan.grid, kind, flops, spread)
    if x is None:
        x = solve(plan, data, adjoint, flops)
    best, best_norm = None, None
    for _ in range(passes):
        residual = forward(x) - data
        charge(flops, complex_adds=2 * P)   # residual and correction subtractions
        norm = float(np.linalg.norm(residual))
        # a residual that fails to halve the best one so far ends refinement
        if best_norm is not None and norm > best_norm / 2:
            return x if norm < best_norm else best
        best, best_norm = x, norm
        x = x - solve(plan, residual, adjoint, flops)
    return x


def type5(plan: InversePlan, samples, flops: FlopCounter | None = None) -> np.ndarray:
    """Coefficients S with sum_p S_p e^{2 pi i p t_q} = samples_q.

    Weighted samples, one type-1 transform onto the P-point spectrum, then
    the shared coefficient recovery. Its solve operator is the transpose of
    type4's, so on the same plan it can err by up to cond(A) times type4's
    error (gapped grids); refinement passes (``refine_type5``) close the gap.
    """
    return _refine(plan, samples, 0, "type5", flops)


def type4(plan: InversePlan, spectrum, flops: FlopCounter | None = None) -> np.ndarray:
    """Amplitudes a with sum_q a_q e^{-2 pi i p t_q} = spectrum_p.

    The shared coefficient recovery applied to the spectrum directly, then a
    type-2 transform evaluates at the nodes and the node weights finish:
    the exact transpose of type5.
    """
    return _refine(plan, spectrum, 0, "type4", flops)


def refine_type4(
    plan: InversePlan,
    spectrum,
    passes: int = 1,
    flops: FlopCounter | None = None,
) -> np.ndarray:
    """type4 plus at most ``passes`` residual-correction passes.

    Each pass forwards the current amplitudes through a type-1 transform,
    subtracts the given spectrum, re-solves for the residual and subtracts
    the correction; every pass multiplies the error bound by the plain
    method's accuracy factor. ``passes`` is a cap: once a residual fails
    to halve the best one so far (the roundoff floor, or no contraction),
    the judged iterate with the smaller residual is returned; none raises.
    """
    return _refine(plan, spectrum, passes, "type4", flops)


def refine_type5(
    plan: InversePlan,
    samples,
    passes: int = 1,
    flops: FlopCounter | None = None,
) -> np.ndarray:
    """type5 plus at most ``passes`` correction passes, sample-domain residuals, as refine_type4."""
    return _refine(plan, samples, passes, "type5", flops)
