"""Analytic floating-point operation accounting.

Costs follow a fixed table: real add/mul = 1, complex add = 2, complex
mul = 6, complex exponential = 7, size-N FFT or IFFT = 5 N log2(N).
Counting is analytic instrumentation: each stage makes one ``charge`` call
beside the arithmetic it describes, which adds to the ``FlopCounter`` passed
in (or does nothing when none is), so totals are exact integers that depend
only on problem sizes and iteration counts, never on data values.

Conventions applied uniformly to every method (the NFFT pipelines, CG and
GE alike), so cross-method ratios are meaningful:

* Any real or complex transcendental evaluation (exp, log, gridding-pulse
  sample) is charged as one complex exponential (7 flops).
* A real-vector times complex-vector product is 2 real muls per element.
* A complex division is expanded as z/w = z conj(w) / |w|^2: one complex
  mul, five real muls, one real add.
* Scalings written into precomputed per-plan tables are charged when the
  table is built, not on every application.
* Gridding-pulse lookup tables (deconvolution weights) and stopping-test
  norm evaluations are not charged.
* Non-dyadic FFT sizes are charged 5 N log2(N) with real-valued log2 and
  the grand total is rounded to the nearest integer; the benchmark sweeps
  use dyadic sizes where the formula is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# flops per operation, keyed by the FlopReport count fields
WEIGHTS = {"real_adds": 1, "complex_adds": 2, "real_muls": 1, "complex_muls": 6, "complex_exps": 7}


def fft_flops(size: int) -> float:
    """Cost of one size-N FFT or IFFT under the 5 N log2 N rule."""
    if size <= 1:
        return 0.0
    return 5.0 * size * math.log2(size)


@dataclass(frozen=True)
class FlopReport:
    """Immutable snapshot of operation counts for one computation."""

    real_adds: int = 0
    complex_adds: int = 0
    real_muls: int = 0
    complex_muls: int = 0
    complex_exps: int = 0
    fft_invocations: tuple[int, ...] = ()

    @property
    def total_flops(self) -> int:
        total = sum(getattr(self, name) * w for name, w in WEIGHTS.items())
        return total + round(sum(fft_flops(n) for n in self.fft_invocations))


class FlopCounter:
    """Per-invocation accumulator; owned by one call tree, merged afterwards.

    ``counts`` is keyed like ``WEIGHTS``, ``fft_sizes`` is in call order.
    """

    def __init__(self):
        self.counts = dict.fromkeys(WEIGHTS, 0)
        self.fft_sizes: list[int] = []

    def merge(self, other: "FlopCounter"):
        charge(self, other.fft_sizes, **other.counts)

    def report(self) -> FlopReport:
        return FlopReport(**self.counts, fft_invocations=tuple(self.fft_sizes))


def charge(flops: FlopCounter | None, ffts=(), complex_divs: int = 0, **counts: int):
    """Add one stage's operations to ``flops``, or nothing when it is None.

    ``counts`` are keyed by ``FlopReport`` field names (any other name raises
    KeyError) and ``ffts`` lists FFT sizes in call order.
    """
    if flops is None:
        return
    tally = flops.counts
    for name, n in counts.items():
        tally[name] += n
    if complex_divs:
        # z/w = z*conj(w) * (1/|w|^2)
        tally["complex_muls"] += complex_divs
        tally["real_muls"] += 5 * complex_divs
        tally["real_adds"] += complex_divs
    flops.fft_sizes.extend(ffts)
