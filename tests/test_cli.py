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
    relative_error,
    type4,
    type5_system,
)
from nufft1d.bench import FIGURE_DEFAULTS, randc
from nufft1d.cli import main
from nufft1d.lagrange import kernel_coefficients
from nufft1d.vecio import read_vector_file, write_vector_file
from nufft1d.verify import CHECKS


def write_grid(path, instants):
    # 17 significant digits, so the grid file round-trips bit for bit
    np.savetxt(path, instants, fmt="%.17g")


def write_trial(tmp_path, P=8, seed=3):
    grid, amps = generate_trial(P, seed)
    gpath = tmp_path / "grid.txt"
    write_grid(gpath, grid.instants)
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


@pytest.mark.parametrize("p", ["0", "-3"])
def test_transform_type1_rejects_nonpositive_length(p, tmp_path, capsys):
    _, amps, gpath = write_trial(tmp_path)
    dpath = tmp_path / "amps.txt"
    write_vector_file(dpath, amps)
    out = tmp_path / "spectrum.txt"
    rc = main(["transform", "--type", "1", "--grid", str(gpath),
               "--data", str(dpath), "--out", str(out), "--p", p])
    assert rc == 2
    assert "output length must be an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


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
    assert relative_error(amps, got) < 1e-9


def test_roundtrip_check_on_zero_data_fails_before_writing(tmp_path, capsys):
    # the residual relative to all-zero data is undefined: exit 3, name the
    # error, write no file (it once printed nan under a numpy warning)
    _, _, gpath = write_trial(tmp_path, P=16, seed=5)
    dpath = tmp_path / "spectrum.txt"
    write_vector_file(dpath, np.zeros(16, dtype=complex))
    out = tmp_path / "amps.txt"
    rc = main(["transform", "--type", "4", "--grid", str(gpath), "--data", str(dpath),
               "--out", str(out), "--check-roundtrip"])
    assert rc == 3
    captured = capsys.readouterr()
    assert "ZeroReferenceError" in captured.err
    assert "roundtrip-residual" not in captured.out
    assert not out.exists()


def test_transform_type5_matches_dense_solve(tmp_path, capsys):
    grid, _, gpath = write_trial(tmp_path, P=8, seed=9)
    rng = np.random.default_rng(1)
    samples = randc(8, rng)
    dpath = tmp_path / "samples.txt"
    write_vector_file(dpath, samples)
    out = tmp_path / "coef.txt"
    rc = main(["transform", "--type", "5", "--grid", str(gpath), "--data", str(dpath),
               "--out", str(out), "--mu", "1e-11", "--eta", "2", "--check-roundtrip"])
    assert rc == 0
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("roundtrip-residual")]
    assert float(line[0].split()[1]) < 1e-9
    want = ge_solve(type5_system(grid), samples)
    got = read_vector_file(out)
    assert relative_error(want, got) < 1e-10


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
    # --a sets the damping directly
    grid, amps, gpath = write_trial(tmp_path, P=16, seed=5)
    dpath = tmp_path / "spectrum.txt"
    write_vector_file(dpath, nfft_type1_direct(grid, amps, 16))
    out = tmp_path / "amps.txt"
    assert main(["transform", "--type", "4", "--grid", str(gpath), "--data", str(dpath),
                 "--out", str(out), "--a", "0.05", "--eta", "2"]) == 0
    plan = build_plan(grid, MethodParams(damping_a=0.05, eta=2))
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
    write_grid(grid, [0.0, 0.5])
    out = tmp_path / "out.txt"
    rc = main(["transform", "--type", "2", "--grid", str(grid),
               "--data", str(bad), "--out", str(out)])
    assert rc == 2


def test_length_mismatch_exit_code(tmp_path):
    grid = tmp_path / "grid.txt"
    write_grid(grid, [0.0, 0.5])
    data = tmp_path / "data.txt"
    write_vector_file(data, np.ones(3, dtype=complex))
    for kind in ("1", "4", "5"):
        out = tmp_path / f"o{kind}.txt"
        rc = main(["transform", "--type", kind, "--grid", str(grid),
                   "--data", str(data), "--out", str(out)])
        assert rc == 2
        assert not out.exists()


MU_RULE = "truncation ratio mu must lie in (0, 1)"
ETA_P_RULE = "need eta * P >= 2 to define the truncation ratio"
DAMPING_RULE = "damping_a must be positive and finite"


@pytest.mark.parametrize("command, nodes, options, message", [
    ("transform", None, ["--eta", "0"], "eta must be an integer >= 1, got 0"),
    ("transform", None, ["--eta", "0", "--a", "0.1"], "eta must be an integer >= 1, got 0"),
    ("transform", None, ["--mu", "2"], f"{MU_RULE}, got 2.0"),
    ("transform", None, ["--mu", "nan"], f"{MU_RULE}, got nan"),
    ("transform", None, ["--mu", "0.9"], "mu * (eta P - 1) = 13.5 >= 1"),
    ("transform", None, ["--a", "nan"], f"{DAMPING_RULE}, got nan"),
    ("transform", None, ["--a", "-1"], f"{DAMPING_RULE}, got -1.0"),
    ("transform", [0.5], ["--eta", "1", "--mu", "1e-15"], ETA_P_RULE),
    ("transform", [0.5], ["--eta", "1", "--a", "0.1"], ETA_P_RULE),
    ("bench", None, ["--mu", "2"], f"{MU_RULE}, got 2.0"),
    ("bench", None, ["--eta", "0"], "eta must be an integer >= 1, got 0"),
], ids=["eta-0", "eta-0-a", "mu-2", "mu-nan", "mu-infeasible", "a-nan", "a-negative",
        "one-node-mu", "one-node-a", "bench-mu-2", "bench-eta-0"])
def test_invalid_input_exit_code(command, nodes, options, message, tmp_path, capsys):
    # invalid input exits 2 with its rule's one message, whichever option or
    # subcommand carries it; exit 3 is left to failures found while computing
    nodes = np.arange(8) / 8 + 0.01 if nodes is None else nodes
    gpath, dpath, out = tmp_path / "grid.txt", tmp_path / "d.txt", tmp_path / "o.txt"
    write_grid(gpath, nodes)
    write_vector_file(dpath, np.ones(len(nodes), dtype=complex))
    if command == "transform":
        argv = ["transform", "--type", "4", "--grid", str(gpath), "--data", str(dpath)]
    else:
        argv = ["bench", "--figure", "fig6", "--p", "64", "--trials", "1"]
    assert main([*argv, "--out", str(out), *options]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["1", "2"])
def test_roundtrip_flag_rejected_for_forward_types(kind, tmp_path, capsys):
    # only an inverse solve has a round trip to check; a forward transform must not
    # drop the flag silently
    grid, amps, gpath = write_trial(tmp_path)
    dpath = tmp_path / "d.txt"
    write_vector_file(dpath, amps)
    out = tmp_path / "o.txt"
    rc = main(["transform", "--type", kind, "--grid", str(gpath), "--data", str(dpath),
               "--out", str(out), "--check-roundtrip"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--check-roundtrip" in err
    assert not out.exists()


@pytest.mark.parametrize("kind, option", [
    ("2", ["--p", "8"]), ("4", ["--p", "8"]), ("5", ["--p", "8"]),
    ("1", ["--mu", "1e-9"]), ("2", ["--mu", "1e-9"]),
    ("1", ["--a", "0.05"]), ("2", ["--a", "0.05"]),
    ("1", ["--eta", "2"]), ("2", ["--passes", "0"]),
])
def test_transform_rejects_options_its_type_ignores(kind, option, tmp_path, capsys):
    # an option the requested type does not read is a usage error, not dropped silently
    _, amps, gpath = write_trial(tmp_path)
    dpath = tmp_path / "d.txt"
    write_vector_file(dpath, amps)
    out = tmp_path / "o.txt"
    rc = main(["transform", "--type", kind, "--grid", str(gpath), "--data", str(dpath),
               "--out", str(out), *option])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and option[0] in err
    assert not out.exists()


@pytest.mark.parametrize("level", ["quick", "full"])
def test_verify_quick(level, capsys):
    # verify has no levels: one run covers the checks of the former quick and
    # full levels alike, and asking for a level is a usage error
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"ok   {name}" for name, _ in CHECKS] and len(lines) == 14
    extra = {"refinement-contraction", "flop-duality"}
    wanted = [name for name, _ in CHECKS if level == "full" or name not in extra]
    assert len(wanted) == (14 if level == "full" else 12)
    assert all(f"ok   {name}" in lines for name in wanted)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--level", level])
    assert exc.value.code == 2


def test_verify_fault_injection(monkeypatch, capsys):
    # negative control: a corrupted undamping makes the suite fail, naming the check
    def corrupted(ks, params, flops=None):
        return kernel_coefficients(ks, params, flops) * np.exp(np.pi * params.damping_a)

    monkeypatch.setattr("nufft1d.verify.kernel_coefficients", corrupted)
    rc = main(["verify"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "FAIL kernel-coefficient-recovery" in captured.out
    assert "kernel-coefficient-recovery" in captured.err


@pytest.mark.parametrize("name", ["kernel-coeficient-recovery", "type1-direct-oracle"])
def test_verify_unhooked_fault_is_a_usage_error(name, capsys):
    # verify has no fault side door: asking for any injected fault is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--inject-fault", name])
    assert exc.value.code == 2
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


@pytest.mark.parametrize("methods", [["NFFT"], ["NFFT", "R-NFFT"]])
def test_best_mu_figure_keeps_each_fast_method(methods, tmp_path, capsys):
    # fig3 keeps, for each (P, eta) and each fast method asked for, the rows at
    # that method's best mu: an NFFT-only sweep writes one row, not none
    out = tmp_path / "fig3.csv"
    assert main(["bench", "--figure", "fig3", "--p", "64", "--trials", "1",
                 "--method", *methods, "--out", str(out)]) == 0
    assert f"({len(methods)} rows)" in capsys.readouterr().out
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [row[3] for row in rows] == methods and all(row[:2] == ["64", "1"] for row in rows)


def test_bench_negative_passes_exit_code(tmp_path):
    # a sweep runs one refinement pass; bench has no --passes option to set
    out = tmp_path / "fig1.csv"
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--figure", "fig1", "--out", str(out), "--p", "16",
              "--trials", "1", "--passes", "-1"])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["transform", "--type", "1", "--spread", "9"],
    ["bench", "--figure", "fig1", "--p", "16", "--trials", "1", "--spread", "9"],
    ["bench", "--figure", "fig1", "--p", "16", "--trials", "1", "--jitter", "0.3"],
    ["bench", "--figure", "fig1", "--p", "16", "--trials", "1", "--passes", "2"],
])
def test_fixed_settings_are_not_options(argv, tmp_path):
    # the gridding width, sweep jitter and sweep pass count are fixed, not settable
    _, amps, gpath = write_trial(tmp_path)
    dpath = tmp_path / "d.txt"
    write_vector_file(dpath, amps)
    out = tmp_path / "o.out"
    files = ["--grid", str(gpath), "--data", str(dpath)] if argv[0] == "transform" else []
    with pytest.raises(SystemExit) as exc:
        main([*argv, *files, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("option", [["--mu", "0"], ["--mu", "2"], ["--eta", "0"],
                                    ["--trials", "0"], ["--seed", str(2**128)]])
def test_bench_bad_config_exit_code(option, tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    rc = main(["bench", "--figure", "fig1", "--out", str(out), "--p", "16",
               "--trials", "1", "--eta", "1", *option])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {option[0]}: ")
    assert not out.exists()


def test_bench_negative_dense_cap_exit_code(tmp_path, capsys):
    # a negative cap would drop every GE row: it is an input error, not an empty sweep
    out = tmp_path / "fig1.csv"
    rc = main(["bench", "--figure", "fig1", "--out", str(out), "--p", "16", "--trials", "1",
               "--eta", "1", "--mu", "1e-8", "--dense-cap", "-1"])
    assert rc == 2
    assert "dense cap must be an integer >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, overrides, dense_cap", [
    (["--p", "16", "32"], {"p": (16, 32)}, None),
    (["--eta", "1", "3"], {"eta": (1, 3)}, None),
    (["--mu", "1e-9"], {"mu": (1e-9,)}, None),
    (["--trials", "4"], {"trials": 4}, None),
    (["--seed", "11"], {"seed": 11}, None),
    (["--method", "CG", "NFFT"], {"methods": ("CG", "NFFT")}, None),
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
    assert "OutOfRangeError: instant 1.5 outside the fundamental" in capsys.readouterr().err


@pytest.mark.parametrize("argv, status", [
    (["verify"], 0),
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
