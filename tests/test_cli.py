import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nufft1d import (
    MethodParams,
    build_plan,
    cli,
    ge_solve,
    generate_trial,
    nfft_type1_direct,
    type4,
    type5_system,
)
from nufft1d.bench import FIGURE_DEFAULTS
from nufft1d.cli import main
from nufft1d.vecio import read_vector_file, write_grid_file, write_vector_file


def write_trial(tmp_path, P=8, seed=3):
    grid, amps = generate_trial(P, seed)
    gpath = tmp_path / "grid.txt"
    write_grid_file(gpath, grid.instants)
    return grid, amps, gpath


def test_transform_type2_constant(tmp_path, capsys):
    _, _, gpath = write_trial(tmp_path)
    c = 2.0 - 0.5j
    S = np.zeros(8, dtype=complex)
    S[0] = c
    dpath = tmp_path / "coef.txt"
    write_vector_file(dpath, S)
    out = tmp_path / "out.txt"
    rc = main(["transform", "--type", "2", "--grid", str(gpath),
               "--data", str(dpath), "--out", str(out)])
    assert rc == 0
    got = read_vector_file(out)
    assert np.abs(got - c).max() < 1e-12


def test_transform_type1_output_length(tmp_path):
    grid, amps, gpath = write_trial(tmp_path)
    dpath = tmp_path / "amps.txt"
    write_vector_file(dpath, amps)
    out = tmp_path / "spectrum.txt"
    rc = main(["transform", "--type", "1", "--grid", str(gpath),
               "--data", str(dpath), "--out", str(out), "--p", "16"])
    assert rc == 0
    got = read_vector_file(out)
    assert got.size == 16
    want = nfft_type1_direct(grid, amps, 16)
    assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-12


def test_transform_type4_roundtrip_flag(tmp_path, capsys):
    grid, amps, gpath = write_trial(tmp_path, P=16, seed=5)
    spectrum = nfft_type1_direct(grid, amps, 16)
    dpath = tmp_path / "spectrum.txt"
    write_vector_file(dpath, spectrum)
    out = tmp_path / "amps.txt"
    rc = main(["transform", "--type", "4", "--grid", str(gpath), "--data", str(dpath),
               "--out", str(out), "--mu", "1e-11", "--eta", "2", "--check-roundtrip"])
    assert rc == 0
    text = capsys.readouterr().out
    line = [l for l in text.splitlines() if l.startswith("roundtrip-residual")][0]
    assert float(line.split()[1]) < 1e-9
    got = read_vector_file(out)
    assert np.linalg.norm(got - amps) / np.linalg.norm(amps) < 1e-9


def test_transform_type5_matches_dense_solve(tmp_path, capsys):
    grid, _, gpath = write_trial(tmp_path, P=8, seed=9)
    rng = np.random.default_rng(1)
    samples = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    dpath = tmp_path / "samples.txt"
    write_vector_file(dpath, samples)
    out = tmp_path / "coef.txt"
    rc = main(["transform", "--type", "5", "--grid", str(gpath), "--data", str(dpath),
               "--out", str(out), "--mu", "1e-11", "--eta", "2", "--check-roundtrip"])
    assert rc == 0
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("roundtrip-residual")]
    assert float(line[0].split()[1]) < 1e-9
    want = ge_solve(type5_system(grid, samples))
    got = read_vector_file(out)
    assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-10


def test_transform_refined_pass(tmp_path):
    grid, amps, gpath = write_trial(tmp_path, P=64, seed=13)
    spectrum = nfft_type1_direct(grid, amps, 64)
    dpath = tmp_path / "spectrum.txt"
    write_vector_file(dpath, spectrum)
    out_plain = tmp_path / "plain.txt"
    out_ref = tmp_path / "refined.txt"
    assert main(["transform", "--type", "4", "--grid", str(gpath), "--data", str(dpath),
                 "--out", str(out_plain), "--mu", "1e-6", "--eta", "1"]) == 0
    assert main(["transform", "--type", "4", "--grid", str(gpath), "--data", str(dpath),
                 "--out", str(out_ref), "--mu", "1e-6", "--eta", "1", "--passes", "1"]) == 0
    e_plain = np.linalg.norm(read_vector_file(out_plain) - amps)
    e_ref = np.linalg.norm(read_vector_file(out_ref) - amps)
    assert e_ref < e_plain


def test_transform_damping_option(tmp_path):
    # --a sets the damping directly; mu follows from it
    grid, amps, gpath = write_trial(tmp_path, P=16, seed=5)
    dpath = tmp_path / "spectrum.txt"
    write_vector_file(dpath, nfft_type1_direct(grid, amps, 16))
    out = tmp_path / "amps.txt"
    assert main(["transform", "--type", "4", "--grid", str(gpath), "--data", str(dpath),
                 "--out", str(out), "--a", "0.05", "--eta", "2"]) == 0
    plan = build_plan(grid, MethodParams.from_damping(0.05, 16, 2))
    want = type4(plan, read_vector_file(dpath))
    assert read_vector_file(out).tobytes() == want.tobytes()


def test_negative_passes_exit_code(tmp_path):
    grid, amps, gpath = write_trial(tmp_path, P=8, seed=3)
    dpath = tmp_path / "d.txt"
    write_vector_file(dpath, amps)
    out = tmp_path / "o.txt"
    rc = main(["transform", "--type", "4", "--grid", str(gpath), "--data", str(dpath),
               "--out", str(out), "--passes", "-1"])
    assert rc == 2
    assert not out.exists()


def test_parse_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not numbers\n")
    grid = tmp_path / "grid.txt"
    write_grid_file(grid, [0.0, 0.5])
    out = tmp_path / "out.txt"
    rc = main(["transform", "--type", "2", "--grid", str(grid),
               "--data", str(bad), "--out", str(out)])
    assert rc == 2


def test_length_mismatch_exit_code(tmp_path):
    grid = tmp_path / "grid.txt"
    write_grid_file(grid, [0.0, 0.5])
    data = tmp_path / "data.txt"
    write_vector_file(data, np.ones(3, dtype=complex))
    for kind in ("1", "4"):
        out = tmp_path / f"o{kind}.txt"
        rc = main(["transform", "--type", kind, "--grid", str(grid),
                   "--data", str(data), "--out", str(out)])
        assert rc == 2
        assert not out.exists()


def test_numeric_failure_exit_code(tmp_path, capsys):
    grid, amps, gpath = write_trial(tmp_path, P=8, seed=2)
    dpath = tmp_path / "d.txt"
    write_vector_file(dpath, amps)
    rc = main(["transform", "--type", "4", "--grid", str(gpath), "--data", str(dpath),
               "--out", str(tmp_path / "o.txt"), "--mu", "0.9", "--eta", "2"])
    assert rc == 3
    assert "NonPositiveDamping" in capsys.readouterr().err


@pytest.mark.parametrize("level", ["quick", "full"])
def test_verify_quick(level, capsys):
    assert main(["verify", "--level", level]) == 0
    out = capsys.readouterr().out
    assert "kernel-coefficient-recovery" in out
    if level == "full":
        assert "flop-duality" in out and "refinement-contraction" in out


def test_verify_fault_injection(capsys):
    rc = main(["verify", "--level", "quick", "--inject-fault", "kernel-coefficient-recovery"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "kernel-coefficient-recovery" in captured.err


@pytest.mark.parametrize("name", ["kernel-coeficient-recovery", "type1-direct-oracle"])
def test_verify_unhooked_fault_is_a_usage_error(name, capsys):
    # a misspelled name, or a check without a fault hook, must not pass silently
    rc = main(["verify", "--level", "quick", "--inject-fault", name])
    assert rc == 2
    assert name in capsys.readouterr().err


def test_bench_smoke(tmp_path):
    out = tmp_path / "fig1.csv"
    rc = main(["bench", "--figure", "fig1", "--out", str(out), "--p", "32",
               "--trials", "2", "--eta", "1", "--mu", "1e-10", "1e-8",
               "--method", "NFFT", "GE", "--seed", "19"])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("# ")
    assert "figure=fig1" in text.splitlines()[0]
    assert len(text.splitlines()) > 3


def test_bench_negative_passes_exit_code(tmp_path):
    out = tmp_path / "fig1.csv"
    rc = main(["bench", "--figure", "fig1", "--out", str(out), "--p", "16",
               "--trials", "1", "--passes", "-1"])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("option", [["--mu", "0"], ["--mu", "2"], ["--eta", "0"],
                                    ["--trials", "0"]])
def test_bench_bad_config_exit_code(option, tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    rc = main(["bench", "--figure", "fig1", "--out", str(out), "--p", "16",
               "--trials", "1", "--eta", "1", *option])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv, overrides, dense_cap", [
    (["--p", "16", "32"], {"p": (16, 32)}, None),
    (["--eta", "1", "3"], {"eta": (1, 3)}, None),
    (["--mu", "1e-9"], {"mu": (1e-9,)}, None),
    (["--trials", "4"], {"trials": 4}, None),
    (["--seed", "11"], {"seed": 11}, None),
    (["--method", "CG", "NFFT"], {"methods": ("CG", "NFFT")}, None),
    (["--jitter", "0.3"], {"jitter_max": 0.3}, None),
    (["--spread", "9"], {"spread_width": 9}, None),
    (["--passes", "2"], {"refine_passes": 2}, None),
    (["--dense-cap", "64"], {}, 64),
])
def test_bench_options_reach_run_figure(argv, overrides, dense_cap, tmp_path, monkeypatch):
    seen = []

    def run_figure(name, config, dense_cap=None):
        seen.append((name, config, dense_cap))
        return [], {}

    monkeypatch.setattr(cli, "run_figure", run_figure)
    assert main(["bench", "--figure", "fig2", "--out", str(tmp_path / "f.csv"), *argv]) == 0
    assert seen == [("fig2", replace(FIGURE_DEFAULTS["fig2"], **overrides), dense_cap)]


def test_bench_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("NUFFT1D_OUT_DIR", str(tmp_path))
    rc = main(["bench", "--figure", "fig7", "--p", "16", "--trials", "1",
               "--eta", "1", "2", "--method", "NFFT", "--seed", "3"])
    assert rc == 0
    assert (tmp_path / "fig7.csv").exists()


FIXTURES = __file__.rsplit("/", 1)[0] + "/fixtures"


def test_transform_type5_against_frozen_fixture(tmp_path):
    # expected coefficients were generated once by the dense-elimination
    # oracle and checked in; guards the whole file-in/file-out pipeline
    out = tmp_path / "coeffs.txt"
    rc = main(["transform", "--type", "5",
               "--grid", f"{FIXTURES}/grid8.txt",
               "--data", f"{FIXTURES}/samples8.txt",
               "--out", str(out), "--mu", "1e-11", "--eta", "2"])
    assert rc == 0
    want = read_vector_file(f"{FIXTURES}/coeffs8_dense_solve.txt")
    got = read_vector_file(out)
    assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-10


def test_invalid_grid_file_exit_code(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("0.1\n1.5\n")  # outside the fundamental period
    data = tmp_path / "data.txt"
    write_vector_file(data, np.ones(2, dtype=complex))
    rc = main(["transform", "--type", "2", "--grid", str(grid),
               "--data", str(data), "--out", str(tmp_path / "o.txt")])
    assert rc == 2
    assert "OutOfRange" in capsys.readouterr().err


@pytest.mark.parametrize("argv, status", [
    (["verify", "--level", "quick"], 0),
    (["transform", "--type", "2", "--grid", "missing-grid.txt",
      "--data", "missing-data.txt", "--out", "o.txt"], 2),
])
def test_module_entry_point_exit_status(argv, status, tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    run = subprocess.run([sys.executable, "-m", "nufft1d.cli", *argv], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == status
    if status:
        assert run.stderr.startswith("error: ") and "missing-grid.txt" in run.stderr
