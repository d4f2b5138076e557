"""Reference solvers: dense Gaussian elimination and conjugate gradient.

Both invert the same square systems the fast inverse transforms solve.
The type-4 matrix e^{-2 pi i p t_q} (rows p) and the type-5 matrix
e^{+2 pi i p t_q} (rows q) are Hermitian transposes of each other; each
is filled row block by row block from the phase generator the direct
oracles use. GE is LAPACK's LU with partial pivoting (zgesv through
numpy), charged the textbook operation count of the unblocked
elimination and the back substitution. CG runs on the normal equations
with matrix-vector products supplied by one type-2 plus one type-1 fast
transform per iteration.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError
from .flops import FlopCounter, charge
from .forward import _phase_blocks
from .grid import NonuniformGrid, as_complex_vector, require_count
from .gridding import kernel_for_size
from .inverse import _transform_pair


def _phase_matrix(rows, cols, sign: int, flops: FlopCounter | None) -> np.ndarray:
    """Entries e^{sign * 2 pi i r c}, one row per entry of ``rows``."""
    M = np.empty((len(rows), len(cols)), dtype=np.complex128)
    for block, phases in _phase_blocks(rows, cols, sign):
        M[block] = phases
        del phases      # free this block before the generator builds the next
    charge(flops, real_muls=M.size, complex_exps=M.size)    # phase products r * c, exponentials
    return M


def type4_system(grid: NonuniformGrid, flops: FlopCounter | None = None) -> np.ndarray:
    """Matrix whose solve recovers the delta-train amplitudes from the spectrum."""
    return _phase_matrix(np.arange(grid.size), grid.instants, -1, flops)


def type5_system(grid: NonuniformGrid, flops: FlopCounter | None = None) -> np.ndarray:
    """Matrix whose solve recovers the polynomial coefficients from the samples."""
    return _phase_matrix(grid.instants, np.arange(grid.size), +1, flops)


def ge_solve(matrix, rhs, flops: FlopCounter | None = None) -> np.ndarray:
    """Gaussian elimination with partial pivoting (LAPACK zgesv).

    Raises ValueError for a matrix that is not square or not finite or a
    non-finite right-hand side, LengthMismatchError for one of the wrong
    length, and SingularMatrixError when LAPACK meets an exactly zero
    pivot or the solution is not finite.
    """
    A = np.asarray(matrix, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix contains NaN or Inf entries")
    n = A.shape[0]
    b = as_complex_vector(rhs, length=n, name="rhs")
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix is singular: {exc}") from exc
    if not np.isfinite(x).all():
        raise SingularMatrixError("solution is not finite; matrix is numerically singular")
    s1 = n * (n - 1) // 2                   # sum of r over r = 1..n-1
    s2 = (n - 1) * n * (2 * n - 1) // 6     # sum of r^2 over r = 1..n-1
    charge(
        flops,
        complex_divs=s1 + n,        # multipliers, back-substitution divides
        complex_muls=s2 + 2 * s1,   # trailing block, right-hand side, back substitution
        complex_adds=s2 + 2 * s1,
    )
    return x


@dataclass(frozen=True, eq=False)
class CGResult:
    solution: np.ndarray
    iterations: int
    converged: bool
    relative_residual: float


def cg_solve(
    grid: NonuniformGrid,
    rhs,
    which: str = "type4",
    tol: float = 1e-15,
    max_iter: int | None = None,
    flops: FlopCounter | None = None,
) -> CGResult:
    """Conjugate gradient on the normal equations (CGNR), unpreconditioned.

    Each iteration applies the system matrix and its Hermitian transpose,
    one type-1 and one type-2 fast transform, so the per-iteration cost is
    FFT-order; all of them share one spreader of the length-P gridding
    kernel, built for the call. Stops at relative recurred residual <= tol,
    at max_iter (default 4P) or when the search direction maps to zero, and
    returns the last iterate (not the best) with a convergence flag.
    """
    if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and 0.0 < tol < np.inf):
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    if which not in ("type4", "type5"):
        raise ValueError(f"unknown system kind {which!r}")
    P = grid.size
    max_iter = 4 * P if max_iter is None else require_count(max_iter, "iteration cap", 0)
    b = as_complex_vector(rhs, length=P, name="rhs")

    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return CGResult(np.zeros(P, dtype=np.complex128), 0, True, 0.0)
    apply_A, apply_AH = _transform_pair(grid, which, flops, kernel_for_size(P).spreader(grid))

    x = np.zeros(P, dtype=np.complex128)
    r = b.copy()
    z = apply_AH(r)
    p = z.copy()
    zz = float(np.vdot(z, z).real)
    charge(flops, real_muls=2 * P, real_adds=2 * P)     # |z|^2
    rnorm = bnorm
    iterations = 0
    for iterations in range(1, max_iter + 1):
        w = apply_A(p)
        ww = float(np.vdot(w, w).real)
        if ww == 0.0:
            iterations -= 1
            break
        alpha = zz / ww
        x = x + alpha * p
        r = r - alpha * w
        # |w|^2 and the division, then the two real-scalar axpys
        charge(flops, real_muls=2 * P + 1 + 4 * P, real_adds=2 * P, complex_adds=2 * P)
        rnorm = float(np.linalg.norm(r))
        if rnorm <= tol * bnorm:
            return CGResult(x, iterations, True, rnorm / bnorm)
        z = apply_AH(r)
        zz_new = float(np.vdot(z, z).real)
        p = z + (zz_new / zz) * p
        zz = zz_new
        # |z|^2 and the ratio, then the direction update
        charge(flops, real_muls=2 * P + 1 + 2 * P, real_adds=2 * P, complex_adds=P)
    return CGResult(x, iterations, rnorm <= tol * bnorm, rnorm / bnorm)
