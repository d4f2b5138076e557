import math
from dataclasses import replace

import numpy as np
import pytest

from nufft1d import (
    TrialConfig,
    ZeroReferenceError,
    generate_trial,
    nfft_type1_direct,
    relative_error,
    run_figure,
    run_sweep,
)
from nufft1d.bench import (
    FIGURE_DEFAULTS,
    METHOD_CG,
    METHOD_GE,
    METHOD_NFFT,
    METHOD_RNFFT,
    best_mu,
    filter_best_mu,
    to_db,
)


def test_zero_jitter_gives_uniform_grid():
    grid, _ = generate_trial(16, 0, jitter_max=0.0)
    assert np.array_equal(grid.instants, np.arange(16) / 16)


def test_generate_trial_deterministic():
    g1, a1 = generate_trial(64, 12345)
    g2, a2 = generate_trial(64, 12345)
    assert np.array_equal(g1.instants, g2.instants)
    assert np.array_equal(a1, a2)
    g3, _ = generate_trial(64, 12346)
    assert not np.array_equal(g1.instants, g3.instants)


def test_jitter_stays_in_band():
    grid, _ = generate_trial(128, 9, jitter_max=0.6)
    shifts = grid.instants - np.arange(128) / 128
    assert np.all(shifts >= 0) and np.all(shifts < 0.6 / 128)


def test_amplitude_variance_near_unit():
    _, amp = generate_trial(10000, 77)
    var = float(np.mean(np.abs(amp) ** 2))
    assert 0.94 <= var <= 1.06


def test_relative_error_basics():
    t = np.array([1.0 + 1j, 2.0, -1j])
    assert relative_error(t, t) == 0.0
    assert abs(relative_error(t, 2.0 * t) - 1.0) < 1e-15


def test_relative_error_constructed_perturbation():
    rng = np.random.default_rng(0)
    t = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    e = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    e /= np.linalg.norm(e)
    c = 1e-3
    expected = c / np.linalg.norm(t)
    assert abs(relative_error(t, t + c * e) - expected) / expected < 1e-12


def test_relative_error_zero_reference():
    with pytest.raises(ZeroReferenceError):
        relative_error(np.zeros(3, dtype=complex), np.ones(3, dtype=complex))


def test_db_convention():
    assert abs(to_db(1e-3) + 60.0) < 1e-9
    assert to_db(0.0) == float("-inf")


SMALL = TrialConfig(
    p=(32,), eta=(1, 2), mu=(1e-10, 1e-8), trials=2, seed=7,
    methods=(METHOD_GE, METHOD_CG, METHOD_NFFT, METHOD_RNFFT),
)


def test_run_sweep_structure_and_determinism():
    rows1 = run_sweep(SMALL)
    rows2 = run_sweep(SMALL)
    assert rows1 == rows2
    methods = {r.method for r in rows1}
    assert methods == {METHOD_GE, METHOD_CG, METHOD_NFFT, METHOD_RNFFT}
    # GE/CG once per trial; fast methods per (eta, mu)
    assert sum(r.method == METHOD_GE for r in rows1) == 2
    assert sum(r.method == METHOD_NFFT for r in rows1) == 2 * 2 * 2
    for r in rows1:
        if r.method == METHOD_CG:
            assert r.cg_iterations and r.cg_iterations > 0
        assert r.total_flops > 0
        assert abs(r.error_db - 20.0 * math.log10(r.error_linear)) < 1e-9


def test_error_consistent_with_reconstruction():
    # recompute one sweep cell by hand from the same seed
    rows = run_sweep(TrialConfig(p=(16,), eta=(2,), mu=(1e-11,), trials=1, seed=3,
                                 methods=(METHOD_NFFT,)))
    assert len(rows) == 1
    from nufft1d import MethodParams, build_plan, type4
    grid, a_true = generate_trial(16, 3)
    spectrum = nfft_type1_direct(grid, a_true, 16)
    plan = build_plan(grid, MethodParams.from_mu(1e-11, 16, 2))
    err = relative_error(a_true, type4(plan, spectrum))
    assert abs(err - rows[0].error_linear) / err < 1e-12


def test_ge_size_cap_enforced():
    cfg = TrialConfig(p=(16384,), methods=(METHOD_GE,), trials=1)
    with pytest.raises(ValueError):
        run_sweep(cfg)


def test_infeasible_mu_skipped():
    # mu * (eta P - 1) >= 1 has no damping; the sweep skips those cells
    cfg = TrialConfig(p=(32,), eta=(1,), mu=(0.5, 1e-10), trials=1, seed=1,
                      methods=(METHOD_NFFT,))
    rows = run_sweep(cfg)
    assert len(rows) == 1 and rows[0].mu == 1e-10


def test_ge_cg_error_agreement():
    # the two dense references resolve the same system to near machine
    # precision at figure scale; below P ~ 512 GE out-resolves the
    # transform-accuracy floor CG sits on
    cfg = TrialConfig(p=(512,), trials=3, seed=5, methods=(METHOD_GE, METHOD_CG))
    rows = run_sweep(cfg)
    ge = {r.trial: r.error_db for r in rows if r.method == METHOD_GE}
    cg = {r.trial: r.error_db for r in rows if r.method == METHOD_CG}
    for trial in ge:
        assert abs(ge[trial] - cg[trial]) <= 5.0


def test_best_mu_selection():
    rows = run_sweep(TrialConfig(p=(64,), eta=(1,), mu=(1e-13, 1e-9, 1e-5), trials=2,
                                 seed=11, methods=(METHOD_RNFFT,)))
    winners = best_mu(rows, METHOD_RNFFT)
    assert (64, 1) in winners
    kept = filter_best_mu(rows, METHOD_RNFFT)
    mus = {r.mu for r in kept if r.method == METHOD_RNFFT}
    assert mus == {winners[(64, 1)]}


def test_run_figure_smoke():
    cfg = TrialConfig(p=(32,), eta=(1,), mu=(1e-10, 1e-7), trials=2, seed=2,
                      methods=(METHOD_GE, METHOD_RNFFT))
    rows, meta = run_figure("fig2", cfg)
    assert meta["figure"] == "fig2"
    assert any(r.method == METHOD_RNFFT for r in rows)
    # best-mu filter leaves a single mu per (P, eta)
    mus = {r.mu for r in rows if r.method == METHOD_RNFFT}
    assert len(mus) == 1


def test_run_figure_dense_cap():
    cfg = TrialConfig(p=(32, 64), eta=(1,), mu=(1e-9,), trials=1, seed=4,
                      methods=(METHOD_GE, METHOD_NFFT))
    rows, _ = run_figure("fig1", cfg, dense_cap=32)
    assert any(r.method == METHOD_GE and r.p == 32 for r in rows)
    assert not any(r.method == METHOD_GE and r.p == 64 for r in rows)
    assert any(r.method == METHOD_NFFT and r.p == 64 for r in rows)


def test_run_figure_fig6_adds_refined_sweep():
    # fig6 runs NFFT at eta 6 and, on the same trials, R-NFFT at eta 1, mu 1e-8
    cfg = replace(FIGURE_DEFAULTS["fig6"], p=(16, 32), trials=1, methods=(METHOD_NFFT,))
    rows, _ = run_figure("fig6", cfg)
    for P in cfg.p:
        cells = {(r.method, r.eta, r.mu) for r in rows if r.p == P}
        assert cells == {(METHOD_NFFT, 6, 1e-15), (METHOD_RNFFT, 1, 1e-8)}


def test_run_figure_rejects_unknown():
    with pytest.raises(ValueError):
        run_figure("fig9")


def test_config_rejects_bad_jitter_and_method():
    with pytest.raises(ValueError):
        TrialConfig(jitter_max=1.0)
    with pytest.raises(ValueError):
        TrialConfig(methods=("GE", "QR"))
    with pytest.raises(ValueError):
        TrialConfig(refine_passes=-1)
    for bad in (dict(p=(1,)), dict(p=(64, 0)), dict(eta=(0,)), dict(eta=(1.5,)),
                dict(trials=0), dict(mu=(0.0,)), dict(mu=(1e-9, 1.0)), dict(mu=(2.0,))):
        with pytest.raises(ValueError):
            TrialConfig(**bad)


def test_figure_protocol_defaults():
    from nufft1d.bench import FIGURE_DEFAULTS

    fig1 = FIGURE_DEFAULTS["fig1"]
    assert fig1.p == (1024,)
    assert fig1.eta == (1, 2, 3, 4, 6, 15, 20)
    assert set(fig1.methods) == {"GE", "CG", "NFFT"}
    assert len(fig1.mu) == 29 and fig1.mu[0] == 1e-18 and fig1.mu[-1] == 1e-4

    fig2 = FIGURE_DEFAULTS["fig2"]
    assert fig2.eta == (1, 2) and "R-NFFT" in fig2.methods

    fig3 = FIGURE_DEFAULTS["fig3"]
    assert fig3.p == (64, 128, 256, 512, 1024, 2048, 4096, 8192)
    assert fig3.eta == (1,)

    fig7 = FIGURE_DEFAULTS["fig7"]
    assert fig7.p == (1024,) and fig7.eta == tuple(range(1, 21))
    assert set(fig7.methods) == {"GE", "CG", "NFFT"}


def test_multi_pass_sweep_skips_diverging_cells():
    # extreme over-damping makes the plain error exceed one; a two-pass
    # sweep must skip those cells instead of blowing up
    cfg = TrialConfig(p=(64,), eta=(1,), mu=(1e-18, 1e-9), trials=1, seed=21,
                      methods=(METHOD_RNFFT,), refine_passes=2)
    rows = run_sweep(cfg)
    assert {r.mu for r in rows} == {1e-9}
