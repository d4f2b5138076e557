"""Validated sampling grids, complex vectors, and method parameters."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateNodeError,
    LengthMismatchError,
    NonPositiveDampingError,
    OutOfRangeError,
)

# Smallest circular gap between instants, fixed as the gridding width is: as two
# nodes meet, the Lagrange kernel derivative L'(z_p) vanishes and node weights blow up.
MIN_GAP = 1e-12


def require_count(value, name: str, low: int) -> int:
    """``value`` as an int; ValueError unless it is an integer >= ``low``.

    A bool (``np.bool_`` included) is a flag, not a count, and is rejected.
    """
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, (bool, np.bool_)) or not (integral and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def as_complex_vector(values, length: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D complex128 array, optionally of fixed length."""
    return require_vector(np.asarray(values, dtype=np.complex128), length, name)


def require_vector(values, length: int | None = None, name: str = "vector") -> np.ndarray:
    """``values`` as a finite 1-D array of its own dtype, optionally of fixed length."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise LengthMismatchError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise LengthMismatchError(f"{name} must be nonempty")
    if length is not None and arr.size != length:
        raise LengthMismatchError(f"{name} has length {arr.size}, expected {length}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


@dataclass(frozen=True)
class NonuniformGrid:
    """Sampling instants in [0, 1), pairwise distinct, in the caller's order.

    ``NonuniformGrid(t)`` keeps a read-only float64 copy of ``t``, so a later
    edit of the caller's array changes no grid. It raises ``OutOfRangeError``
    unless ``t`` is a nonempty 1-D sequence of real, finite instants in
    [0, 1), and ``DuplicateNodeError`` for a circular gap below ``MIN_GAP``.
    All transform outputs follow the order of ``instants``.
    """

    instants: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.instants)
        if np.iscomplexobj(t):  # the float64 cast would drop the imaginary parts
            raise OutOfRangeError(f"grid instants must be real, got dtype {t.dtype}")
        t = t.astype(np.float64, copy=False)
        if t.ndim != 1 or t.size < 1:
            raise OutOfRangeError("grid must be a nonempty 1-D sequence of instants")
        if not np.all(np.isfinite(t)):
            raise OutOfRangeError("grid contains non-finite instants")
        if np.any(t < 0.0) or np.any(t >= 1.0):
            bad = t[(t < 0.0) | (t >= 1.0)][0]
            raise OutOfRangeError(f"instant {bad} outside the fundamental period [0, 1)")
        ts = np.sort(t, kind="stable")
        gaps = np.empty(t.size)      # one instant's circular gap is the whole period
        gaps[:-1] = np.diff(ts)
        gaps[-1] = 1.0 - ts[-1] + ts[0]
        if gaps.min() < MIN_GAP:
            i = int(np.argmin(gaps))
            raise DuplicateNodeError(
                f"circular gap {gaps[i]:.3e} below floor {MIN_GAP:.3e} near t={ts[i]}"
            )
        t = t.copy()    # after the checks, so a rejected grid copies nothing
        t.setflags(write=False)
        object.__setattr__(self, "instants", t)

    @property
    def size(self) -> int:
        return self.instants.size

    def __eq__(self, other):
        if not isinstance(other, NonuniformGrid):
            return NotImplemented
        return self.size == other.size and bool(np.all(self.instants == other.instants))

    def __hash__(self):
        return hash((self.size, self.instants.tobytes()))


def validate_grid(instants) -> NonuniformGrid:
    """``instants`` as a checked grid; a grid is returned as it is (it is immutable)."""
    return instants if isinstance(instants, NonuniformGrid) else NonuniformGrid(instants)


def _check_mu(mu) -> None:
    if not (isinstance(mu, numbers.Real) and 0.0 < mu < 1.0):
        raise NonPositiveDampingError(f"truncation ratio mu must lie in (0, 1), got {mu!r}")


def _check_damping(a) -> None:
    if not (isinstance(a, numbers.Real) and a > 0.0 and math.isfinite(a)):
        raise NonPositiveDampingError(f"damping_a must be positive and finite, got {a!r}")


def _series_length(eta, P: int) -> int:
    """eta * P for integers eta, P >= 1, the length of the truncated log-kernel
    series, checked to hold a term."""
    R = require_count(eta, "eta", 1) * require_count(P, "P", 1)
    if R < 2:
        raise NonPositiveDampingError(f"need eta * P >= 2 to define the truncation ratio, got {R}")
    return R


def damping_from_mu(mu: float, P: int, eta: int) -> float:
    """Invert the truncation-ratio relation mu = exp(-2 pi (eta P - 1) a) / (eta P - 1).

    Returns the damping a > 0 whose forward evaluation reproduces ``mu``.
    """
    _check_mu(mu)
    n = _series_length(eta, P) - 1
    if mu * n >= 1.0:
        raise NonPositiveDampingError(
            f"mu * (eta P - 1) = {mu * n} >= 1: truncation too loose to need damping"
        )
    return -math.log(mu * n) / (2.0 * math.pi * n)


def mu_from_damping(a: float, P: int, eta: int) -> float:
    """Forward truncation ratio for a given damping a."""
    _check_damping(a)
    n = _series_length(eta, P) - 1
    return math.exp(-2.0 * math.pi * n * a) / n


@dataclass(frozen=True)
class MethodParams:
    """Inversion parameters: damping and series oversampling.

    The truncation ratio mu only fixes the damping (``damping_from_mu``);
    ``from_mu`` builds the parameters from it for the target grid size. The
    gridding kernel is the same for every plan (``gridding.SPREAD_WIDTH``).
    """

    damping_a: float
    eta: int

    def __post_init__(self):
        _check_damping(self.damping_a)
        object.__setattr__(self, "eta", require_count(self.eta, "eta", 1))

    @classmethod
    def from_mu(cls, mu: float, P: int, eta: int = 1) -> "MethodParams":
        return cls(damping_a=damping_from_mu(mu, P, eta), eta=eta)
