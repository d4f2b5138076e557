import numpy as np
import pytest

from nufft1d import (
    FlopCounter,
    MethodParams,
    NufftError,
    build_plan,
    ge_solve,
    generate_trial,
    kernel_for_size,
    nfft_type1,
    nfft_type1_direct,
    nfft_type2,
    nfft_type2_direct,
    refine_type4,
    refine_type5,
    relative_error,
    type4,
    type4_system,
    type5,
    type5_system,
    validate_grid,
)
from nufft1d.inverse import _transform_pair
from nufft1d.verify import derivative_direct, jittered, randc

from conftest import NODE_FAMILIES


def std_params(P, mu=1e-11, eta=2, **kw):
    return MethodParams.from_mu(mu, P, eta, **kw)


# --- plan construction --------------------------------------------------------

def test_plan_uniform_closed_forms():
    P = 16
    grid = validate_grid(np.arange(P) / P)
    params = MethodParams.from_mu(1e-14, P, eta=6)
    plan = build_plan(grid, params)
    a = params.damping_a
    p = np.arange(P)
    h = 1.0 / (np.exp(-2 * np.pi * P * a) - 1.0)  # e^{-2 pi i P p/P} = 1
    expected = h / (P * np.exp(-2j * np.pi * p / P) * np.exp(2j * np.pi * p / P))
    assert relative_error(expected, plan.node_weights) < 1e-11
    decay = np.exp(-2 * np.pi * p * a)
    assert relative_error(decay, plan.h1_coefficients) < 1e-14
    assert np.all(np.diff(plan.h1_coefficients) < 0) and np.all(plan.h1_coefficients > 0)


def test_plan_rebuild_deterministic():
    rng = np.random.default_rng(0)
    grid = jittered(32, rng)
    params = std_params(32)
    p1 = build_plan(grid, params)
    p2 = build_plan(grid, params)
    assert np.array_equal(p1.node_weights, p2.node_weights)
    assert np.array_equal(p1.kernel_samples, p2.kernel_samples)
    assert np.array_equal(p1.derivative_samples, p2.derivative_samples)


def test_plan_fields_match_small_scale_oracles():
    rng = np.random.default_rng(1)
    P = 8
    grid = jittered(P, rng)
    params = std_params(P)
    plan = build_plan(grid, params)
    a = params.damping_a
    z = np.exp(2j * np.pi * grid.instants)
    h = 1.0 / (np.exp(-2j * np.pi * P * grid.instants) * np.exp(-2 * np.pi * P * a) - 1.0)
    expected = h / (derivative_direct(grid) * z)
    assert relative_error(expected, plan.node_weights) < 1e-9
    assert np.all(np.isfinite(plan.node_weights)) and np.all(plan.node_weights != 0)


# --- type 5 ---------------------------------------------------------------------

def test_type5_constant_samples():
    rng = np.random.default_rng(2)
    P = 16
    grid = jittered(P, rng)
    plan = build_plan(grid, std_params(P))
    c = 1.5 - 0.5j
    S = type5(plan, np.full(P, c))
    expected = np.zeros(P, dtype=complex)
    expected[0] = c
    assert np.abs(S - expected).max() < 1e-9


def test_type5_uniform_grid_is_scaled_dft():
    rng = np.random.default_rng(3)
    P = 16
    grid = validate_grid(np.arange(P) / P)
    plan = build_plan(grid, MethodParams.from_mu(1e-14, P, eta=6))
    s = randc(P, rng)
    assert relative_error(np.fft.fft(s) / P, type5(plan, s)) < 1e-12


def test_type5_against_dense_solve():
    rng = np.random.default_rng(4)
    P = 8
    grid = jittered(P, rng)
    plan = build_plan(grid, std_params(P))
    s = randc(P, rng)
    want = ge_solve(type5_system(grid), s)
    assert relative_error(want, type5(plan, s)) < 1e-10


# --- type 4 ---------------------------------------------------------------------

def test_type4_impulse_consistency():
    rng = np.random.default_rng(5)
    P = 16
    grid = jittered(P, rng)
    plan = build_plan(grid, std_params(P))
    a_true = np.zeros(P, dtype=complex)
    a_true[3] = 1.0
    spectrum = np.exp(-2j * np.pi * np.arange(P) * grid.instants[3])
    got = type4(plan, spectrum)
    assert np.abs(got - a_true).max() < 1e-9


def test_type4_uniform_grid_is_idft():
    rng = np.random.default_rng(6)
    P = 16
    grid = validate_grid(np.arange(P) / P)
    plan = build_plan(grid, MethodParams.from_mu(1e-14, P, eta=6))
    A = randc(P, rng)
    assert relative_error(np.fft.ifft(A), type4(plan, A)) < 1e-12


def test_type4_against_dense_solve():
    rng = np.random.default_rng(7)
    P = 8
    grid = jittered(P, rng)
    plan = build_plan(grid, std_params(P))
    A = randc(P, rng)
    want = ge_solve(type4_system(grid), A)
    assert relative_error(want, type4(plan, A)) < 1e-10


# --- invariants -----------------------------------------------------------------

def test_round_trip_residuals():
    rng = np.random.default_rng(8)
    P = 64
    grid = jittered(P, rng)
    plan = build_plan(grid, std_params(P))
    s = randc(P, rng)
    S = type5(plan, s)
    assert relative_error(s, nfft_type2_direct(S, grid)) < 1e-9
    A = randc(P, rng)
    x = type4(plan, A)
    assert relative_error(A, nfft_type1_direct(grid, x, P)) < 1e-9


def test_linearity():
    rng = np.random.default_rng(9)
    P = 32
    grid = jittered(P, rng)
    plan = build_plan(grid, std_params(P))
    x, y = randc(P, rng), randc(P, rng)
    alpha, beta = 1.5 - 2j, -0.25 + 1j
    lhs = type4(plan, alpha * x + beta * y)
    rhs = alpha * type4(plan, x) + beta * type4(plan, y)
    assert relative_error(rhs, lhs) < 1e-12
    lhs = type5(plan, alpha * x + beta * y)
    rhs = alpha * type5(plan, x) + beta * type5(plan, y)
    assert relative_error(rhs, lhs) < 1e-12


def test_plan_reuse_bitwise():
    rng = np.random.default_rng(10)
    P = 32
    grid = jittered(P, rng)
    params = std_params(P)
    plan = build_plan(grid, params)
    s1, s2 = randc(P, rng), randc(P, rng)
    out1, out2 = type5(plan, s1), type5(plan, s2)
    fresh1 = type5(build_plan(grid, params), s1)
    fresh2 = type5(build_plan(grid, params), s2)
    assert np.array_equal(out1, fresh1)
    assert np.array_equal(out2, fresh2)


def test_flop_duality():
    rng = np.random.default_rng(11)
    P = 64
    grid = jittered(P, rng)
    plan = build_plan(grid, std_params(P))
    c4, c5 = FlopCounter(), FlopCounter()
    type4(plan, randc(P, rng), flops=c4)
    type5(plan, randc(P, rng), flops=c5)
    assert c4.report() == c5.report()
    # refined solves stay duals as well
    c4r, c5r = FlopCounter(), FlopCounter()
    refine_type4(plan, randc(P, rng), passes=1, flops=c4r)
    refine_type5(plan, randc(P, rng), passes=1, flops=c5r)
    assert c4r.report() == c5r.report()


# --- refinement -----------------------------------------------------------------

def test_refine_zero_passes_is_plain():
    rng = np.random.default_rng(12)
    P = 32
    grid = jittered(P, rng)
    plan = build_plan(grid, std_params(P))
    A = randc(P, rng)
    assert np.array_equal(refine_type4(plan, A, passes=0), type4(plan, A))
    s = randc(P, rng)
    assert np.array_equal(refine_type5(plan, s, passes=0), type5(plan, s))


@pytest.mark.parametrize("kind, A_type, AH_type", [("type4", 1, 2), ("type5", 2, 1)])
def test_transform_pair_mapping(kind, A_type, AH_type):
    # type 4's system matrix is the type-1 transform, type 5's the type-2 one
    rng = np.random.default_rng(14)
    P = 32
    grid = jittered(P, rng)
    spread = kernel_for_size(P).spreader(grid)
    transform = {
        1: lambda x: nfft_type1(grid, x, P, kernel=spread),
        2: lambda x: nfft_type2(x, grid, kernel=spread),
    }
    apply_A, apply_AH = _transform_pair(grid, kind, None)
    x = randc(P, rng)
    assert np.array_equal(apply_A(x), transform[A_type](x))
    assert np.array_equal(apply_AH(x), transform[AH_type](x))


def test_transform_pair_rejects_unknown_kind():
    grid = jittered(8, np.random.default_rng(15))
    with pytest.raises(ValueError, match="'type3'"):
        _transform_pair(grid, "type3", None)


@pytest.mark.parametrize("refine", [refine_type4, refine_type5])
def test_refine_builds_one_spreader_per_call(refine, geometry_calls):
    # plain and refined solves alike build one spreader, whatever the pass count
    rng = np.random.default_rng(13)
    P = 32
    plan = build_plan(jittered(P, rng), std_params(P))
    for passes in (0, 1, 2):
        geometry_calls.clear()
        refine(plan, randc(P, rng), passes=passes)
        assert geometry_calls == [P]


@pytest.mark.parametrize("eta", [1, 2])
def test_plan_builds_one_spreader_per_kernel(eta, geometry_calls):
    # at eta = 1 the v-sample and derivative stages share the length-P kernel
    rng = np.random.default_rng(14)
    P = 32
    build_plan(jittered(P, rng), std_params(P, eta=eta))
    assert geometry_calls == ([P] if eta == 1 else [eta * P, P])


# case id -> (P, node family)
GROUND_TRUTH_CASES = {
    "jitter-0.99": (256, "jitter-0.99"),
    "pairs": (256, "pairs"),
    "gap-2": (256, "gap-2"),
    "P300": (300, "jitter-0.6"),
    "P1000": (1000, "jitter-0.6"),
}


@pytest.mark.parametrize("kind", [4, 5])
@pytest.mark.parametrize("case", sorted(GROUND_TRUTH_CASES))
def test_node_families_against_ground_truth(case, kind):
    # i.i.d. grids and wider gaps are left out: there the solve is silently wrong
    P, family = GROUND_TRUTH_CASES[case]
    rng = np.random.default_rng(1)
    grid = NODE_FAMILIES[family](P, rng)
    truth = randc(P, rng)
    plan = build_plan(grid, MethodParams.from_mu(1e-15, P, eta=6))
    if kind == 4:
        refine, data = refine_type4, nfft_type1_direct(grid, truth, P)
    else:
        refine, data = refine_type5, nfft_type2_direct(truth, grid)
    assert relative_error(truth, refine(plan, data, passes=0)) <= 1e-9
    assert relative_error(truth, refine(plan, data, passes=1)) <= 1e-12


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="plain solves on i.i.d. uniform nodes and on gapped grids return "
                          "silently wrong answers")
@pytest.mark.parametrize("P, family, seed", [
    (1024, "iid", 0),
    (1024, "iid", 1),
    # on gap 6, type 4 reaches ~4e-7 and GE on type5_system ~2e-8, but plain
    # type 5 errs by ~10 and raises nothing
    (256, "gap-6", 0),
], ids=["0", "1", "gap-6"])
def test_iid_uniform_nodes_meet_bound_or_raise(P, family, seed):
    # every solve either meets its accuracy or raises; here (i.i.d. cond ~1e17) neither happens
    rng = np.random.default_rng(seed)
    grid = NODE_FAMILIES[family](P, rng)
    truth = randc(P, rng)
    try:
        plan = build_plan(grid, MethodParams.from_mu(1e-15, P, eta=6))
    except NufftError:
        return
    for solve, data in ((type4, nfft_type1_direct(grid, truth, P)),
                        (type5, nfft_type2_direct(truth, grid))):
        try:
            err = relative_error(truth, solve(plan, data))
        except NufftError:
            continue
        assert err <= 1e-6, f"{solve.__name__}: relative error {err:.2g}"


def test_many_refinement_passes_on_jittered_grids_converge():
    # one pass already reaches ~5e-15 here; further passes should leave it there
    P = 256
    for seed in range(4):
        rng = np.random.default_rng(seed)
        grid = jittered(P, rng)
        truth = randc(P, rng)
        plan = build_plan(grid, MethodParams.from_mu(1e-15, P, eta=2))
        for refine, data in ((refine_type4, nfft_type1_direct(grid, truth, P)),
                             (refine_type5, nfft_type2_direct(truth, grid))):
            err = relative_error(truth, refine(plan, data, passes=6))
            assert err <= 1e-13, f"seed {seed}, {refine.__name__}: relative error {err:.2g}"


@pytest.mark.parametrize("family, bound", [
    ("jitter-0.6", 1e-11),
    ("gap-6", 1e-7),    # cond_2(A) ~1e6
], ids=["jittered", "gap-6"])
def test_type5_solve_is_type4_solve_transposed(family, bound):
    # M5 = M4^H on one plan, built column by column on the identity: so type 5's
    # error operator is (A E4 A^-1)^H, E4 = M4 A - I, and plain type 5 can err by
    # up to cond(A) times type 4. Seed 0 reads 6.2e-13 and 4.7e-9 (Frobenius).
    P = 64
    grid = NODE_FAMILIES[family](P, np.random.default_rng(0))
    plan = build_plan(grid, MethodParams.from_mu(1e-15, P, eta=6))
    identity = np.eye(P, dtype=np.complex128)
    M4 = np.column_stack([type4(plan, e) for e in identity])
    M5 = np.column_stack([type5(plan, e) for e in identity])
    assert relative_error(M4.conj().T, M5) <= bound


def test_numpy_scalar_damping_keeps_double_precision():
    # the damping is stored as a float: under numpy >= 2 a float32 one would run
    # the boundary kernel and the alias term in single precision (at P = 1024,
    # eta = 6 type 4 erred by 2.2e-9, not 1.4e-12), and a longdouble one would
    # make the plan complex256
    rng = np.random.default_rng(16)
    P = 64
    grid = jittered(P, rng)
    spectrum = randc(P, rng)
    a = np.float32(MethodParams.from_mu(1e-15, P, eta=6).damping_a)
    single = type4(build_plan(grid, MethodParams(a, 6)), spectrum)
    double = type4(build_plan(grid, MethodParams(float(a), 6)), spectrum)
    assert single.tobytes() == double.tobytes()
    long = build_plan(grid, MethodParams(np.longdouble(a), 6))
    assert long.node_weights.dtype == np.complex128


def test_refine_rejects_negative_passes():
    rng = np.random.default_rng(12)
    P = 32
    grid = jittered(P, rng)
    plan = build_plan(grid, std_params(P))
    with pytest.raises(ValueError):
        refine_type4(plan, randc(P, rng), passes=-3)
    with pytest.raises(ValueError):
        refine_type5(plan, randc(P, rng), passes=-1)
    for refine in (refine_type4, refine_type5):
        with pytest.raises(ValueError):
            refine(plan, randc(P, rng), passes=1.5)


def test_refine_type4_contracts_error_exponent():
    P = 256
    params = MethodParams.from_mu(1e-6, P, eta=1)
    wins = 0
    for trial in range(4):
        grid, a_true = generate_trial(P, 100 + trial)
        spectrum = nfft_type1_direct(grid, a_true, P)
        plan = build_plan(grid, params)
        e_plain = relative_error(a_true, type4(plan, spectrum))
        e_ref = relative_error(a_true, refine_type4(plan, spectrum, passes=1))
        if np.log10(e_ref) <= 1.5 * np.log10(e_plain):
            wins += 1
    assert wins >= 3


def test_refine_type5_residual_shrinks_every_trial():
    P = 256
    params = MethodParams.from_mu(1e-6, P, eta=1)
    for trial in range(10):
        grid, S_true = generate_trial(P, 200 + trial)
        samples = nfft_type2_direct(S_true, grid)
        plan = build_plan(grid, params)
        r0 = relative_error(samples, nfft_type2_direct(type5(plan, samples), grid))
        x1 = refine_type5(plan, samples, passes=1)
        r1 = relative_error(samples, nfft_type2_direct(x1, grid))
        assert r1 < r0


def test_refine_default_passes_from_params():
    rng = np.random.default_rng(13)
    P = 64
    grid = jittered(P, rng)
    plan = build_plan(grid, std_params(P))
    A = randc(P, rng)
    assert np.array_equal(refine_type4(plan, A), refine_type4(plan, A, passes=1))


def test_nonconvergence_detection():
    # truncation ratio near 1: the method barely contracts. The residuals of the
    # plain and one-pass iterates read ~6.97 and ~6.84, so the second fails to
    # halve the first; refinement stops there, raises nothing and returns the
    # one-pass iterate, the one with the smaller residual
    P = 64
    grid, _ = generate_trial(P, 42)
    params = MethodParams.from_mu(1e-2, P, eta=1)
    plan = build_plan(grid, params)
    rng = np.random.default_rng(14)
    A = randc(P, rng)
    one_pass = refine_type4(plan, A, passes=1)
    assert refine_type4(plan, A, passes=4).tobytes() == one_pass.tobytes()
    assert not np.array_equal(one_pass, type4(plan, A))


def test_concurrent_solves_share_one_plan():
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(15)
    P = 128
    grid = jittered(P, rng)
    plan = build_plan(grid, std_params(P))
    inputs = [randc(P, rng) for _ in range(8)]
    serial = [type4(plan, x) for x in inputs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda x: type4(plan, x), inputs))
    for s, t in zip(serial, threaded):
        assert np.array_equal(s, t)
