import math
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from nufft1d import (
    AmplificationWarning,
    FlopCounter,
    LengthMismatchError,
    MethodParams,
    NonPositiveDampingError,
    TrialConfig,
    ZeroReferenceError,
    build_plan,
    cg_solve,
    ge_solve,
    generate_trial,
    nfft_type1_direct,
    refine_type4,
    relative_error,
    run_figure,
    run_sweep,
    type4,
    type4_system,
)
from nufft1d.bench import (
    ALL_METHODS,
    CG_TOL,
    FIGURE_DEFAULTS,
    METHOD_CG,
    METHOD_GE,
    METHOD_NFFT,
    METHOD_RNFFT,
    TrialResult,
    filter_best_mu,
    jittered,
    randc,
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
    # P is an integer count: an integral float gives the same trial, any other value is rejected
    g4, a4 = generate_trial(64.0, 12345)
    assert g4.instants.tobytes() == g1.instants.tobytes() and a4.tobytes() == a1.tobytes()
    with pytest.raises(ValueError, match="P must be an integer"):
        generate_trial(2.5, 1)
    # so is the seed: a Philox key would truncate 1.5 to seed 1's trial
    g5, a5 = generate_trial(64, 12345.0)
    assert g5.instants.tobytes() == g1.instants.tobytes() and a5.tobytes() == a1.tobytes()
    for seed in (1.5, 1.7, "3", -1):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            generate_trial(16, seed)


def test_jitter_stays_in_band():
    grid, _ = generate_trial(128, 9, jitter_max=0.6)
    shifts = grid.instants - np.arange(128) / 128
    assert np.all(shifts >= 0) and np.all(shifts < 0.6 / 128)


def test_generate_trial_rejects_bad_jitter():
    # a jitter above 1 lets nodes cross; the check comes before the draw, so it uses no numbers
    for bad in (math.nan, -1.0, 1.5, math.inf, "0.5", 1j, None, True):
        with pytest.raises(ValueError, match=r"jitter_max must be a real number in \[0, 1\]"):
            generate_trial(8, 1, bad)
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="jitter_max"):
            jittered(8, rng, bad)
        assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state
    grid, _ = generate_trial(8, 1, 1.0)
    assert np.all(np.diff(grid.instants) > 0)


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
    t = randc(50, rng)
    e = randc(50, rng)
    e /= np.linalg.norm(e)
    c = 1e-3
    expected = c / np.linalg.norm(t)
    assert abs(relative_error(t, t + c * e) - expected) / expected < 1e-12


def test_relative_error_zero_reference():
    with pytest.raises(ZeroReferenceError):
        relative_error(np.zeros(3, dtype=complex), np.ones(3, dtype=complex))


def test_relative_error_shape_mismatch():
    with pytest.raises(LengthMismatchError, match=r"shape mismatch: \(3,\) vs \(4,\)"):
        relative_error(np.ones(3), np.ones(4))
    with pytest.raises(LengthMismatchError, match="shape mismatch"):
        relative_error(np.ones(4), np.ones((2, 2)))


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
    # recompute both fast rows of one sweep cell by hand from the same seed: one
    # plan, whose flops each row's counter starts from, then type4 for NFFT and
    # one refinement pass for R-NFFT, to the last bit and the last flop
    both = (METHOD_NFFT, METHOD_RNFFT)
    rows = run_sweep(TrialConfig(p=(16,), eta=(2,), mu=(1e-11,), trials=1, seed=3,
                                 methods=both))
    assert [r.method for r in rows] == list(both)
    grid, a_true = generate_trial(16, 3)
    spectrum = nfft_type1_direct(grid, a_true, 16)
    plan_counter = FlopCounter()
    plan = build_plan(grid, MethodParams.from_mu(1e-11, 16, 2), flops=plan_counter)
    for row, solve in zip(rows, (type4, partial(refine_type4, passes=1))):
        counter = FlopCounter()
        counter.merge(plan_counter)
        assert relative_error(a_true, solve(plan, spectrum, flops=counter)) == row.error_linear
        assert counter.report().total_flops == row.total_flops
    # integral floats are stored as the checked ints, so the rows carry ints
    again = run_sweep(TrialConfig(p=(16.0,), eta=(2.0,), mu=(1e-11,), trials=1, seed=3,
                                  methods=both))
    assert again == rows and type(again[0].p) is int and type(again[0].eta) is int


@pytest.mark.parametrize("P, etas, mus, cells", [
    # mu * (eta P - 1) >= 1 skips mu 0.5 at both etas and mu 0.02 at eta 2
    (32, (1, 2), (0.5, 0.02, 1e-10), {(1, 0.02), (1, 1e-10), (2, 1e-10)}),
    # eta 6 has no feasible mu, so it computes nothing, not even its unit spectrum
    (16, (6, 2, 1), (0.05, 0.03), {(2, 0.03), (1, 0.05), (1, 0.03)}),
], ids=["P32", "eta-without-cells"])
def test_fast_rows_share_one_plan(monkeypatch, P, etas, mus, cells):
    # NFFT and R-NFFT solve on one plan per feasible (eta, mu) cell and trial
    import nufft1d.bench as bench

    calls = []
    real = bench._plan    # build_plan's stages on the shared v-stage spectrum

    def counted(grid, params, *args):
        calls.append(params)
        return real(grid, params, *args)

    monkeypatch.setattr(bench, "_plan", counted)
    # the grid-level work the plans share: the v stage's unit-delta-train
    # spectrum and the stored length-P spreader's kernel
    shared = {"nfft_type1": [], "kernel_for_size": []}
    for name, log in shared.items():
        monkeypatch.setattr(bench, name, partial(_logged, getattr(bench, name), log))
    cfg = TrialConfig(p=(P,), eta=etas, mu=mus, trials=2, seed=5,
                      methods=(METHOD_CG, METHOD_NFFT, METHOD_RNFFT))
    rows = run_sweep(cfg)
    assert {(r.eta, r.mu) for r in rows if r.mu is not None} == cells
    assert len(calls) == len(cells) * cfg.trials
    assert sum(r.mu is not None for r in rows) == 2 * len(calls)
    # one spectrum per (trial, eta with a feasible cell), of length eta P, in
    # sweep order; one kernel per trial
    feasible = {eta for eta, _ in cells}
    assert [args[2] for args in shared["nfft_type1"]] == [
        eta * P for eta in etas if eta in feasible] * cfg.trials
    assert len(shared["kernel_for_size"]) == cfg.trials
    calls.clear()
    run_sweep(replace(cfg, methods=(METHOD_GE, METHOD_CG)))
    assert calls == []


def _logged(function, log, *args, **kwargs):
    log.append(args)
    return function(*args, **kwargs)


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


def _row(method, mu, error, p=64, eta=1, trial=0):
    return TrialResult(p=p, eta=None if mu is None else eta, mu=mu, method=method,
                       trial=trial, error_linear=error, error_db=to_db(error),
                       total_flops=1, cg_iterations=None, seed=trial)


def test_best_mu_selection():
    # per (P, eta, method), the mu with the smallest mean error over trials keeps its
    # rows, not the one with the smallest single error; a tie keeps the first mu in
    # row order; dense-solver rows stay, and each fast method keeps its own best mu
    rows = [
        _row(METHOD_GE, None, 1e-14),
        _row(METHOD_RNFFT, 1e-13, 1e-12, trial=0), _row(METHOD_RNFFT, 1e-13, 5e-10, trial=1),
        _row(METHOD_RNFFT, 1e-9, 2e-10, trial=0), _row(METHOD_RNFFT, 1e-9, 2e-10, trial=1),
        _row(METHOD_NFFT, 1e-9, 1e-6), _row(METHOD_NFFT, 1e-13, 1e-8),
        _row(METHOD_RNFFT, 1e-9, 0.25, eta=2), _row(METHOD_RNFFT, 1e-13, 0.5, eta=2),
        _row(METHOD_RNFFT, 1e-9, 0.75, eta=2, trial=1),
        _row(METHOD_RNFFT, 1e-13, 0.5, eta=2, trial=1),
        _row(METHOD_RNFFT, 1e-5, 0.5, p=128),
    ]
    assert filter_best_mu(rows) == [rows[i] for i in (0, 3, 4, 6, 7, 9, 11)]


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
    # the cap is a count: a negative one would silently drop every dense row
    for bad in (-1, 2.5, "x"):
        with pytest.raises(ValueError, match="dense cap must be an integer >= 0"):
            run_figure("fig1", cfg, dense_cap=bad)


def test_run_figure_skips_p_with_no_method_left(monkeypatch):
    # GE alone, one P above the cap: that P gets no rows and draws no trial
    import nufft1d.bench as bench

    drawn = []
    real = bench.generate_trial

    def counted(P, seed, **kwargs):
        drawn.append(P)
        return real(P, seed, **kwargs)

    monkeypatch.setattr(bench, "generate_trial", counted)
    cfg = TrialConfig(p=(16, 64), eta=(1,), mu=(1e-9,), trials=2, seed=4, methods=(METHOD_GE,))
    rows, _ = run_figure("fig1", cfg, dense_cap=32)
    assert {r.p for r in rows} == {16} and len(rows) == cfg.trials
    assert drawn == [16] * cfg.trials


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
        TrialConfig(methods=("GE", "QR"))
    for bad in (dict(p=(1,)), dict(p=(64, 0)), dict(eta=(0,)), dict(eta=(1.5,)),
                dict(trials=0), dict(trials=2.5), dict(seed=-1), dict(seed=0.5),
                dict(mu=(0.0,)), dict(mu=(1e-9, 1.0)), dict(mu=(2.0,))):
        with pytest.raises(ValueError):
            TrialConfig(**bad)
    # every swept field is a non-empty sequence; the error names it
    for name, bad in (("p", ()), ("eta", ()), ("mu", ()), ("methods", ()), ("p", 64)):
        with pytest.raises(ValueError, match=f"^{name} must be a non-empty sequence"):
            TrialConfig(**{name: bad})
    # each trial's Philox key is seed ^ trial, which must stay below 2**128
    with pytest.raises(ValueError, match="seed"):
        TrialConfig(seed=2**128)
    assert TrialConfig(seed=2**128 - 1).seed == 2**128 - 1


def test_config_stores_tuples():
    # every swept field is kept as a tuple, so configs compare and hash by value
    cfg = TrialConfig(p=[32], eta=np.array([1, 2]), mu=np.array([1e-9, 1e-8]),
                      methods=np.array([METHOD_GE, METHOD_CG]))
    same = TrialConfig(p=(32,), eta=(1, 2), mu=(1e-9, 1e-8), methods=(METHOD_GE, METHOD_CG))
    assert cfg == same and hash(cfg) == hash(same)
    assert all(type(v) is float for v in cfg.mu)
    assert all(type(m) is str for m in cfg.methods)
    # mu is checked before the float conversion, so a string is still rejected
    with pytest.raises(NonPositiveDampingError):
        TrialConfig(mu=("1e-9",))


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


def test_bool_and_oversized_seeds_rejected():
    # a bool is a flag, not a count: True is not seed 1 or one trial
    for bad in (True, np.True_):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            generate_trial(16, bad)
        with pytest.raises(ValueError, match="trials must be an integer >= 1"):
            TrialConfig(trials=bad)
    # the Philox key's limit is worded once, for the trial and the config alike
    for call in (lambda seed: generate_trial(16, seed), lambda seed: TrialConfig(seed=seed)):
        with pytest.raises(ValueError, match=rf"^seed must be below 2\*\*128, got {2**128}$"):
            call(2**128)
    generate_trial(16, 2**128 - 1)


@pytest.mark.parametrize("P", [64, 300])
def test_sweep_rows_same_with_and_without_ge(P):
    # with GE the spectrum is GE's dense system times the amplitudes, over the
    # direct oracle's row blocks (two at P = 300); without GE it is the oracle
    cfg = TrialConfig(p=(P,), eta=(1, 6), mu=(1e-15, 1e-8), trials=1, seed=3)
    with_ge = run_sweep(cfg)
    without_ge = run_sweep(replace(cfg, methods=(METHOD_CG, METHOD_NFFT, METHOD_RNFFT)))
    assert with_ge[0].method == METHOD_GE
    assert repr([r for r in with_ge if r.method != METHOD_GE]) == repr(without_ge)


def _rows_run_alone(cfg):
    """``run_sweep(cfg)``'s rows, each from its method run alone, with its own counter.

    The spectrum is the direct summation, which ``run_sweep`` documents its
    spectrum to equal byte for byte; a fast row builds its own plan.
    """
    rows = []
    for P in cfg.p:
        for trial in range(cfg.trials):
            seed = cfg.seed ^ trial
            grid, a_true = generate_trial(P, seed)
            spectrum = nfft_type1_direct(grid, a_true, P)

            def row(method, x, counter, eta=None, mu=None, cg_iterations=None):
                err = relative_error(a_true, x)
                rows.append(TrialResult(
                    p=P, eta=eta, mu=mu, method=method, trial=trial, error_linear=err,
                    error_db=to_db(err), total_flops=counter.report().total_flops,
                    cg_iterations=cg_iterations, seed=seed))

            if METHOD_GE in cfg.methods:
                counter = FlopCounter()
                row(METHOD_GE, ge_solve(type4_system(grid, flops=counter), spectrum, flops=counter),
                    counter)
            if METHOD_CG in cfg.methods:
                counter = FlopCounter()
                res = cg_solve(grid, spectrum, "type4", tol=CG_TOL, flops=counter)
                row(METHOD_CG, res.solution, counter, cg_iterations=res.iterations)
            for eta in cfg.eta:
                for mu in cfg.mu:
                    try:
                        params = MethodParams.from_mu(mu, P, eta)
                    except NonPositiveDampingError:
                        continue
                    for method, passes in ((METHOD_NFFT, 0), (METHOD_RNFFT, 1)):
                        if method in cfg.methods:
                            counter = FlopCounter()
                            plan = build_plan(grid, params, flops=counter)
                            x = refine_type4(plan, spectrum, passes=passes, flops=counter)
                            row(method, x, counter, eta, mu)
    return rows


@pytest.mark.parametrize("P", [64, 300])
@pytest.mark.parametrize("eta, methods", [
    ((1, 2, 6), ALL_METHODS),
    ((1, 2, 6), (METHOD_CG, METHOD_NFFT, METHOD_RNFFT)),
    ((1, 2, 6), (METHOD_RNFFT,)),
    ((1, 2, 6), (METHOD_NFFT,)),
    ((1, 1), ALL_METHODS),
], ids=["all", "no-GE", "R-NFFT", "NFFT", "eta-1-1"])
def test_every_sweep_row_equals_its_method_run_alone(P, eta, methods):
    # bytes, dB values, flop totals and CG iterations, whatever the sweep shares
    # between a trial's cells and rows; mu 1e-2 is infeasible but at P = 64, eta = 1
    cfg = TrialConfig(p=(P,), eta=eta, mu=(1e-15, 1e-8, 1e-2), trials=2, seed=11,
                      methods=methods)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AmplificationWarning)   # as run_sweep does
        alone = _rows_run_alone(cfg)
    assert run_sweep(cfg) == alone
