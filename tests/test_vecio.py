import csv

import numpy as np
import pytest

from nufft1d import TrialResult
from nufft1d.vecio import (
    RESULT_COLUMNS,
    read_grid_file,
    read_vector_file,
    write_results_csv,
    write_vector_file,
)


def test_vector_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(100) * 10.0 ** rng.integers(-200, 200, 100)
    vec = v + 1j * rng.standard_normal(100)
    # signed zeros in either part and a subnormal must survive bit for bit
    vec[:4] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 5e-324 - 5e-324j]
    path = tmp_path / "vec.txt"
    write_vector_file(path, vec)
    back = read_vector_file(path)
    assert back.dtype == np.complex128 and back.shape == vec.shape
    assert np.array_equal(back.view(np.uint64), vec.view(np.uint64))


def test_grid_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    t = np.sort(rng.uniform(0, 1, 64))
    path = tmp_path / "grid.txt"
    np.savetxt(path, t, fmt="%.17g")   # 17 significant digits, as vectors are written
    assert np.array_equal(read_grid_file(path), t)


def test_vector_parse_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0\n")
    with pytest.raises(ValueError):
        read_vector_file(path)
    path.write_text("")
    with pytest.raises(ValueError):
        read_vector_file(path)
    path.write_text("1.0 2.0 3.0\n")
    with pytest.raises(ValueError):
        read_vector_file(path)


def test_grid_parse_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.1 0.2\n")
    with pytest.raises(ValueError):
        read_grid_file(path)


def test_comments_and_blanks_skipped(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("# header\n\n1.0 2.0\n")
    v = read_vector_file(path)
    assert v[0] == 1.0 + 2.0j


def test_results_round_trip(tmp_path):
    rows = [
        TrialResult(p=64, eta=2, mu=1e-12, method="NFFT", trial=0,
                    error_linear=3.14159e-11, error_db=-210.06,
                    total_flops=123456, cg_iterations=None, seed=7),
        TrialResult(p=64, eta=None, mu=None, method="CG", trial=1,
                    error_linear=1e-14, error_db=-280.0,
                    total_flops=999, cg_iterations=52, seed=6),
        TrialResult(p=32, eta=1, mu=1e-9, method="R-NFFT", trial=2,
                    error_linear=0.0, error_db=float("-inf"),
                    total_flops=4321, cg_iterations=None, seed=8),
    ]
    path = tmp_path / "results.csv"
    write_results_csv(path, rows, {"seed": 7, "db_convention": "20*log10"})
    with open(path, newline="") as fh:
        assert fh.readline() == "# seed=7 db_convention=20*log10\n"
        back = list(csv.reader(fh))
    assert tuple(back[0]) == RESULT_COLUMNS == (
        "p", "eta", "mu", "method", "trial",
        "error_linear", "error_db", "total_flops", "cg_iterations", "seed",
    )
    assert back[1:] == [
        ["64", "2", "9.9999999999999998e-13", "NFFT", "0",
         "3.1415899999999998e-11", "-210.06", "123456", "", "7"],
        ["64", "", "", "CG", "1", "1e-14", "-280", "999", "52", "6"],
        ["32", "1", "1.0000000000000001e-09", "R-NFFT", "2", "0", "-inf", "4321", "", "8"],
    ]
    for row, line in zip(rows, back[1:]):
        assert float(line[5]) == row.error_linear and float(line[6]) == row.error_db
