"""Node-polynomial (trigonometric Lagrange kernel) quantities.

For nodes t_p the kernel is the degree-P polynomial
L(z) = prod_p (z - e^{2 pi i t_p}) with unit leading coefficient. The
inversion pipeline needs four derived quantities per grid: the log-sum
v(q/P), the damped kernel samples L(e^{2 pi i (q/P + i a)}), the
coefficients L_0..L_{P-1}, and the derivative values L'(e^{2 pi i t_p});
``inverse.build_plan`` runs the four stages in that order. The v stage
takes the grid's unit delta train transformed to length eta P, which a
sweep shares between the dampings of one eta.
Everything here is computed through FFT-sized operations; the O(P^2)
brute-force counterparts live in ``nufft1d.verify`` as oracles.
"""

from __future__ import annotations

import numpy as np

from .errors import KernelOverflowError, SingularDerivativeError
from .flops import FlopCounter, charge
from .forward import nfft_type2, nonuniform_conv
from .grid import MethodParams, NonuniformGrid, as_complex_vector
from .gridding import Spreader, sum_cycles

# exp(|Re v|) must stay clear of the double-precision overflow threshold
OVERFLOW_MARGIN = 16.0
RE_V_LIMIT = float(np.log(np.finfo(np.float64).max)) - OVERFLOW_MARGIN

DERIVATIVE_FLOOR = 1e-300


def series_coefficients(damping_a: float, R: int, flops: FlopCounter | None = None) -> np.ndarray:
    """Truncated log-kernel series: Lambda_0 = 0, Lambda_p = -e^{-2 pi p a} / p.

    These are the R retained spectral coefficients of log(1 - e^{2 pi i (t + i a)});
    the first neglected one has the ratio mu of the method parameters.
    """
    p = np.arange(1, R)
    lam = np.zeros(R)
    lam[1:] = -np.exp(-2.0 * np.pi * p * damping_a) / p
    charge(flops, complex_exps=R - 1, real_muls=R - 1)
    return lam


def compute_v_samples(
    unit: np.ndarray,
    params: MethodParams,
    flops: FlopCounter | None = None,
) -> np.ndarray:
    """v(q/P) = sum_p log(1 - e^{2 pi i (q/P - t_p + i a)}), via one nonuniform
    convolution of the truncated series against the node delta train.

    ``unit`` is the grid's unit delta train transformed to length eta P,
    ``forward.nfft_type1(grid, ones, eta P)``. It does not depend on the
    damping, so one serves every damping at one eta. Truncation error is of
    order mu per node (the tail of the series past index eta P - 1).
    """
    lam = series_coefficients(params.damping_a, unit.size, flops=flops)
    return nonuniform_conv(unit, lam, unit.size // params.eta, flops=flops)


def kernel_samples_from_v(
    v_samples,
    grid: NonuniformGrid,
    flops: FlopCounter | None = None,
) -> np.ndarray:
    """Damped kernel samples L(e^{2 pi i (q/P + i a)}) = exp(i pi P + 2 pi i sum(t) + v).

    The constant phase P/2 + sum(t) spans about P/2 cycles, so it is reduced
    mod 1 cycle exactly (``sum_cycles``) before it is added to v. Unreduced,
    the exponent's imaginary part is ~2 pi P and rounding it puts ~ulp(2 pi P)
    of sample-to-sample noise on every kernel sample, which
    ``kernel_coefficients`` then multiplies by the undamping e^{2 pi (P-1) a}.
    """
    v = as_complex_vector(v_samples, length=grid.size, name="v samples")
    worst = float(np.abs(v.real).max())
    if worst > RE_V_LIMIT:
        raise KernelOverflowError(
            f"|Re v| reaches {worst:.1f}, beyond the exp() overflow margin "
            f"({RE_V_LIMIT:.1f}); the grid is too strongly clustered for this damping"
        )
    P = grid.size
    const = 2j * np.pi * sum_cycles(P / 2, grid.instants)
    # instant sum, constant shift of v, the exponential
    charge(flops, real_adds=P, complex_adds=P, complex_exps=P)
    return np.exp(const + v)


def kernel_coefficients(
    kernel_samples,
    params: MethodParams,
    flops: FlopCounter | None = None,
) -> np.ndarray:
    """Recover L_0..L_{P-1} from the damped samples.

    DFT of P samples of the degree-P polynomial folds the leading term
    (weight e^{-2 pi P a}) onto bin 0; subtract it exactly there, then undo
    the per-coefficient damping. The undamping factor e^{2 pi (P-1) a} is
    the method's intrinsic roundoff amplifier. ``inverse.build_plan``, not
    this function, warns when it exceeds 1/eps.
    """
    ks = as_complex_vector(kernel_samples, name="kernel samples")
    P = ks.size
    a = params.damping_a
    boost = np.exp(2.0 * np.pi * np.arange(P) * a)
    spectrum = np.fft.fft(ks)
    spectrum[0] -= P * np.exp(-2.0 * np.pi * P * a)
    charge(
        flops,
        ffts=(P,),
        complex_exps=P + 1,         # boost table, alias weight e^{-2 pi P a}
        real_muls=1 + P + 2 * P,    # alias scale by P, boost/P table, apply boost/P
        complex_adds=1,             # alias subtraction
    )
    return spectrum * (boost / P)


def derivative_samples(
    coefficients,
    grid: NonuniformGrid,
    spread: Spreader | None = None,
    flops: FlopCounter | None = None,
) -> np.ndarray:
    """L'(e^{2 pi i t_p}) by evaluating the differentiated coefficients.

    With L_P = 1 known, the derivative's coefficient vector is
    {(k+1) L_{k+1}} for k = 0..P-1, a type-2 transform away from the nodes,
    on ``spread`` if given (a length-P spreader for ``grid``).
    """
    L = as_complex_vector(coefficients, length=grid.size, name="kernel coefficients")
    P = L.size
    dcoef = np.empty(P, dtype=np.complex128)
    dcoef[: P - 1] = np.arange(1, P) * L[1:]
    dcoef[P - 1] = P  # P * L_P
    charge(flops, real_muls=2 * P)
    out = nfft_type2(dcoef, grid, kernel=spread, flops=flops)
    smallest = float(np.abs(out).min())
    if smallest < DERIVATIVE_FLOOR:
        raise SingularDerivativeError(
            f"derivative sample magnitude {smallest:.3e} below {DERIVATIVE_FLOOR:.0e}; "
            "interpolation weights would overflow"
        )
    return out

