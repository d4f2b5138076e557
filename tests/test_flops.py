import numpy as np
import pytest

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
    refine_type4,
    type4,
    type4_system,
    type5,
)
from nufft1d.flops import charge, fft_flops
from nufft1d.forward import nonuniform_conv


def charged(**kwargs):
    counter = FlopCounter()
    charge(counter, **kwargs)
    return counter.report()


def test_single_operation_weights():
    assert charged(complex_muls=1).total_flops == 6
    assert charged(ffts=(1024,)).total_flops == 5 * 1024 * 10
    assert FlopCounter().report().total_flops == 0
    assert charged(real_adds=3, complex_adds=2).total_flops == 3 + 4
    assert charged(complex_exps=2).total_flops == 14
    assert charged(real_muls=5).total_flops == 5


def test_complex_div_expansion():
    rep = charged(complex_divs=1)
    assert rep.complex_muls == 1 and rep.real_muls == 5 and rep.real_adds == 1
    assert rep.total_flops == 6 + 5 + 1
    # the expansion adds to counts charged beside it
    rep = charged(complex_divs=2, complex_muls=3, real_adds=1)
    assert (rep.complex_muls, rep.real_muls, rep.real_adds) == (5, 10, 3)


def test_misspelled_count_name_raises():
    counter = FlopCounter()
    with pytest.raises(KeyError):
        charge(counter, complex_mul=1)
    with pytest.raises(KeyError):
        charge(counter, fft_invocations=1)


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


def test_trivial_fft_costs_nothing():
    assert fft_flops(0) == fft_flops(1) == 0.0


def test_counter_merge():
    a, b = FlopCounter(), FlopCounter()
    charge(a, ffts=(4,), complex_muls=3)
    charge(b, ffts=(8,), real_adds=2)
    charge(b, ffts=(16, 2))
    a.merge(b)
    rep = a.report()
    assert rep.complex_muls == 3 and rep.fft_invocations == (4, 8, 16, 2)
    assert rep.real_adds == 2
    # merging leaves the source untouched
    assert b.report() == FlopReport(real_adds=2, fft_invocations=(8, 16, 2))


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
        matrix = type4_system(grid, flops=counter)
        ge_solve(matrix, rng.standard_normal(P) + 0j, flops=ge_counter)
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


_P16 = 16
_GRID16, _A16 = generate_trial(_P16, 7)
_LAM32 = np.exp(-np.arange(2 * _P16) / 4.0)


def _plan16(eta, flops=None):
    return build_plan(_GRID16, MethodParams.from_mu(1e-10, _P16, eta), flops=flops)


# (real_adds, complex_adds, real_muls, complex_muls, complex_exps, FFT sizes in
# call order) for each charged call at P = 16, as first recorded
PINNED_P16 = [
    pytest.param(lambda c: nfft_type1(_GRID16, _A16, _P16, flops=c),
                 (0, 464, 960, 16, 480, (32,)), id="type1"),
    pytest.param(lambda c: nfft_type2(_A16, _GRID16, flops=c),
                 (0, 464, 960, 16, 480, (32,)), id="type2"),
    pytest.param(lambda c: nonuniform_conv(nfft_type1(_GRID16, np.ones(_P16), 2 * _P16, flops=c),
                                           _LAM32, _P16, flops=c),
                 (0, 480, 1056, 16, 480, (64, 16)), id="conv-real"),
    pytest.param(lambda c: _plan16(1, c),
                 (48, 961, 2272, 80, 1057, (32, 16, 16, 32)), id="plan-eta1"),
    pytest.param(lambda c: _plan16(2, c),
                 (48, 977, 2352, 80, 1073, (64, 16, 16, 32)), id="plan-eta2"),
    pytest.param(lambda c: type4(_plan16(2), _A16, flops=c),
                 (0, 464, 1024, 48, 480, (32, 16, 16)), id="type4"),
    pytest.param(lambda c: refine_type4(_plan16(2), _A16, passes=2, flops=c),
                 (0, 2384, 4992, 176, 2400, (32, 16, 16, 32, 32, 16, 16, 32, 32, 16, 16)),
                 id="refine4-passes2"),
    pytest.param(lambda c: cg_solve(_GRID16, _A16, max_iter=3, flops=c),
                 (224, 3392, 7238, 112, 3360, (32,) * 7), id="cg-3"),
    pytest.param(lambda c: ge_solve(type4_system(_GRID16, flops=c), _A16, flops=c),
                 (136, 1480, 936, 1616, 256, ()), id="ge"),
]


@pytest.mark.parametrize("call, expected", PINNED_P16)
def test_flop_reports_pinned(call, expected):
    counter = FlopCounter()
    call(counter)
    rep = counter.report()
    assert (rep.real_adds, rep.complex_adds, rep.real_muls, rep.complex_muls,
            rep.complex_exps, rep.fft_invocations) == expected
