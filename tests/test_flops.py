import numpy as np

from nufft1d import (
    FlopCounter,
    FlopReport,
    MethodParams,
    build_plan,
    cg_solve,
    ge_solve,
    generate_trial,
    nfft_type1,
    nfft_type2,
    type4,
    type4_system,
    type5,
)
from nufft1d.flops import fft_flops


def charge(kind, n):
    counter = FlopCounter()
    getattr(counter, kind)(n)
    return counter.report()


def test_single_operation_weights():
    assert charge("complex_mul", 1).total_flops == 6
    assert charge("fft", 1024).total_flops == 5 * 1024 * 10
    assert FlopCounter().report().total_flops == 0
    counter = FlopCounter()
    counter.real_add(3)
    counter.complex_add(2)
    assert counter.report().total_flops == 3 + 4
    assert charge("complex_exp", 2).total_flops == 14


def test_complex_div_expansion():
    rep = charge("complex_div", 1)
    assert rep.complex_muls == 1 and rep.real_muls == 5 and rep.real_adds == 1
    assert rep.total_flops == 6 + 5 + 1


def test_total_matches_weight_formula():
    rep = FlopReport(
        real_adds=7, complex_adds=5, real_muls=3, complex_muls=2,
        complex_exps=4, fft_invocations=(16, 64),
    )
    expected = 7 + 5 * 2 + 3 + 2 * 6 + 4 * 7 + round(fft_flops(16) + fft_flops(64))
    assert rep.total_flops == expected


def test_non_dyadic_fft_charge():
    # real-valued log2, rounded at the total
    assert abs(fft_flops(12) - 5 * 12 * np.log2(12)) < 1e-9


def test_counter_merge():
    a, b = FlopCounter(), FlopCounter()
    a.complex_mul(3)
    b.fft(8)
    b.real_add(2)
    a.merge(b)
    rep = a.report()
    assert rep.complex_muls == 3 and rep.fft_invocations == (8,)
    assert rep.real_adds == 2


def test_flops_independent_of_data_values():
    grid, _ = generate_trial(32, 1)
    rng = np.random.default_rng(0)
    c1, c2 = FlopCounter(), FlopCounter()
    nfft_type1(grid, rng.standard_normal(32) + 0j, 32, flops=c1)
    nfft_type1(grid, 100.0 * (rng.standard_normal(32) + 1j), 32, flops=c2)
    assert c1.report() == c2.report()


def test_forward_pair_reports_identical():
    # types 1 and 2 are transposes: one gridding charge covers both directions
    grid, a = generate_trial(32, 8)
    c1, c2 = FlopCounter(), FlopCounter()
    nfft_type1(grid, a, 32, flops=c1)
    nfft_type2(a, grid, flops=c2)
    rep = c1.report()
    assert rep == c2.report()
    assert (rep.real_adds, rep.complex_adds, rep.real_muls, rep.complex_muls,
            rep.complex_exps) == (0, 928, 1920, 32, 960)
    assert rep.fft_invocations == (64,)
    assert rep.total_flops == 12608


def test_inverse_pair_reports_identical():
    grid, _ = generate_trial(64, 2)
    rng = np.random.default_rng(1)
    plan_counter = FlopCounter()
    plan = build_plan(grid, MethodParams.from_mu(1e-11, 64, 2), flops=plan_counter)
    c4 = FlopCounter(); c4.merge(plan_counter)
    c5 = FlopCounter(); c5.merge(plan_counter)
    type4(plan, rng.standard_normal(64) + 0j, flops=c4)
    type5(plan, rng.standard_normal(64) + 0j, flops=c5)
    assert c4.report() == c5.report()
    assert c4.report().total_flops > 0


def test_ge_flops_scale_cubically():
    totals, ge_totals = [], []
    rng = np.random.default_rng(2)
    for P in (16, 32):
        grid, _ = generate_trial(P, 3)
        counter, ge_counter = FlopCounter(), FlopCounter()
        system = type4_system(grid, rng.standard_normal(P) + 0j, flops=counter)
        ge_solve(system, flops=ge_counter)
        counter.merge(ge_counter)
        totals.append(counter.report().total_flops)
        ge_totals.append(ge_counter.report().total_flops)
    # leading term is the elimination's P^3; ratio for doubled P lands near 8
    assert 5.5 < totals[1] / totals[0] < 9.0
    # textbook count of elimination plus back substitution, pinned exactly
    assert ge_totals == [13472, 97600]


def test_cg_flops_track_iterations():
    grid, a_true = generate_trial(64, 4)
    from nufft1d import nfft_type1_direct
    b = nfft_type1_direct(grid, a_true, 64)
    c_few = FlopCounter()
    r_few = cg_solve(grid, b, tol=1e-15, max_iter=3, flops=c_few)
    c_more = FlopCounter()
    r_more = cg_solve(grid, b, tol=1e-15, max_iter=9, flops=c_more)
    assert r_more.iterations > r_few.iterations
    assert c_more.report().total_flops > c_few.report().total_flops


def test_plan_flops_deterministic():
    grid, _ = generate_trial(32, 5)
    params = MethodParams.from_mu(1e-11, 32, 2)
    c1, c2 = FlopCounter(), FlopCounter()
    build_plan(grid, params, flops=c1)
    build_plan(grid, params, flops=c2)
    assert c1.report() == c2.report()


def test_conv_complex_kernel_charges_complex_muls():
    from nufft1d import nonuniform_conv
    rng = np.random.default_rng(6)
    grid, _ = generate_trial(16, 7)
    a = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    lam_c = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    c_complex, c_real = FlopCounter(), FlopCounter()
    nonuniform_conv(grid, a, lam_c, 16, flops=c_complex)
    nonuniform_conv(grid, a, np.abs(lam_c), 16, flops=c_real)
    assert c_complex.report().complex_muls > c_real.report().complex_muls
    assert c_real.report().real_muls > c_complex.report().real_muls
