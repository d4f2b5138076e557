"""Text file formats: grids, complex vectors, and results tables.

Vectors are one "re im" pair per line, written with 17 significant digits
so doubles round-trip bit-exactly; grids are read one instant per line.
Results are CSV with a single '#'-prefixed metadata line ahead of the header.
"""

from __future__ import annotations

import csv
import os
from dataclasses import fields

import numpy as np

from .bench import TrialResult

_FMT = "%.17g"

RESULT_COLUMNS = tuple(f.name for f in fields(TrialResult))


def _read_rows(path, width: int, expected: str, kind: str) -> np.ndarray:
    """(n, width) floats, one row per line; blank and '#' lines are skipped."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != width:
                raise ValueError(f"{path}:{lineno}: expected {expected}, got {line!r}")
            rows.append([float(x) for x in parts])
    if not rows:
        raise ValueError(f"{path}: no {kind} entries found")
    return np.array(rows, dtype=np.float64)


def write_vector_file(path, values):
    arr = np.asarray(values, dtype=np.complex128)
    with open(path, "w") as fh:
        for z in arr:
            fh.write(f"{_FMT % z.real} {_FMT % z.imag}\n")


def read_vector_file(path) -> np.ndarray:
    # a complex view of the (re, im) rows keeps every bit, signed zeros included
    return _read_rows(path, 2, "'re im'", "vector").view(np.complex128).ravel()


def read_grid_file(path) -> np.ndarray:
    return _read_rows(path, 1, "one instant per line", "grid").ravel()


def _format_field(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return _FMT % value
    return str(value)


def write_results_csv(path, records: list[TrialResult], metadata: dict):
    meta = " ".join(f"{k}={v}" for k, v in metadata.items() if v is not None)
    with open(path, "w", newline="") as fh:
        fh.write(f"# {meta}\n")
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for r in records:
            writer.writerow([_format_field(getattr(r, col)) for col in RESULT_COLUMNS])


def default_out_dir() -> str:
    """Output directory for results, overridable by one environment variable."""
    return os.environ.get("NUFFT1D_OUT_DIR", ".")
