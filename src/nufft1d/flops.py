"""Analytic floating-point operation accounting.

Costs follow a fixed table: real add/mul = 1, complex add = 2, complex
mul = 6, complex exponential = 7, size-N FFT or IFFT = 5 N log2(N).
Counting is analytic instrumentation: the transforms increment counters
alongside the arithmetic they describe, so totals are exact integers that
depend only on problem sizes and iteration counts, never on data values.

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

REAL_ADD_FLOPS = 1
COMPLEX_ADD_FLOPS = 2
REAL_MUL_FLOPS = 1
COMPLEX_MUL_FLOPS = 6
COMPLEX_EXP_FLOPS = 7


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
        total = (
            self.real_adds * REAL_ADD_FLOPS
            + self.complex_adds * COMPLEX_ADD_FLOPS
            + self.real_muls * REAL_MUL_FLOPS
            + self.complex_muls * COMPLEX_MUL_FLOPS
            + self.complex_exps * COMPLEX_EXP_FLOPS
        )
        fft_total = sum(fft_flops(n) for n in self.fft_invocations)
        return total + round(fft_total)


class FlopCounter:
    """Per-invocation accumulator; owned by one call tree, merged afterwards."""

    def __init__(self):
        self.real_adds = 0
        self.complex_adds = 0
        self.real_muls = 0
        self.complex_muls = 0
        self.complex_exps = 0
        self.fft_sizes: list[int] = []

    def real_add(self, n: int = 1):
        self.real_adds += n

    def complex_add(self, n: int = 1):
        self.complex_adds += n

    def real_mul(self, n: int = 1):
        self.real_muls += n

    def complex_mul(self, n: int = 1):
        self.complex_muls += n

    def complex_exp(self, n: int = 1):
        self.complex_exps += n

    def complex_div(self, n: int = 1):
        # z/w = z*conj(w) * (1/|w|^2)
        self.complex_muls += n
        self.real_muls += 5 * n
        self.real_adds += n

    def fft(self, size: int):
        self.fft_sizes.append(int(size))

    def merge(self, other: "FlopCounter"):
        self.real_adds += other.real_adds
        self.complex_adds += other.complex_adds
        self.real_muls += other.real_muls
        self.complex_muls += other.complex_muls
        self.complex_exps += other.complex_exps
        self.fft_sizes.extend(other.fft_sizes)

    def report(self) -> FlopReport:
        return FlopReport(
            real_adds=self.real_adds,
            complex_adds=self.complex_adds,
            real_muls=self.real_muls,
            complex_muls=self.complex_muls,
            complex_exps=self.complex_exps,
            fft_invocations=tuple(self.fft_sizes),
        )
