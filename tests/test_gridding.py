"""Exact phase reduction in plain double: one arithmetic path on every platform."""

from fractions import Fraction

import numpy as np
import pytest

import nufft1d as nf
from nufft1d.gridding import cis_cycles, round_product, sum_cycles


def assert_round_product_exact(x, y):
    n, r = round_product(x, y)
    assert np.array_equal(round_product(y, x)[1], r)        # operand order does not matter
    for xi, yi, ni, ri in zip(x.tolist(), y.tolist(), n.tolist(), r.tolist()):
        rest = Fraction(xi) * Fraction(yi) - int(ni)
        assert abs(rest) <= Fraction(1, 2), (xi, yi)        # n is an exact nearest integer
        assert ri == float(rest), (xi, yi)                  # one rounding of the exact rest


def test_round_product_random_integer_by_instant():
    rng = np.random.default_rng(0)
    x = rng.integers(-2**27 + 1, 2**27, 2000).astype(np.float64)
    y = rng.uniform(0.0, 1.0, 2000)
    assert_round_product_exact(x, y)


def test_round_product_near_ties():
    # y = (j + 1/2) / n +- a few ulps puts n * y on or next to a half-integer;
    # small odd n (e.g. 5 * 0.1) is where the product rounds onto the half-integer
    rng = np.random.default_rng(1)
    sizes = np.concatenate([np.arange(3, 64, 2), rng.integers(2, 2**27, 300)])
    xs, ys = [], []
    for n in sizes.tolist():
        for j in {0, 1, n // 3, n - 1}:
            y0 = (j + 0.5) / n
            for k in range(-3, 4):
                xs.append(float(n))
                ys.append(y0 + k * np.spacing(y0))
    x, y = np.array(xs), np.array(ys)
    assert_round_product_exact(x, y)
    assert_round_product_exact(-x, y)


def test_round_product_exact_on_grid_sizes():
    # the spreading geometry's n * t at every fine-grid length the plans use
    grid, _ = nf.generate_trial(1024, 4)
    for n in (2048, 3 * 2048, 6 * 2048, 2**18, 6 * 2**18):
        assert_round_product_exact(np.full(64, float(n)), grid.instants[::16])


@pytest.mark.parametrize("P", [1024, 131072])
def test_kernel_sample_constant_phase_exact(P):
    # (P/2 + sum t) mod 1 spans ~P/2 cycles; a correctly rounded sum (math.fsum)
    # still misses by ~5e-12 cycles at P = 131072
    grid, _ = nf.generate_trial(P, 0)
    exact = sum(map(Fraction, grid.instants.tolist()), Fraction(P, 2)) % 1
    assert abs(Fraction(sum_cycles(P / 2, grid.instants)) - exact) < 1e-16


def test_cis_cycles_keeps_input_precision():
    # the benchmark's forward gate phases long-double cycles through cis_cycles;
    # the oracle is the long-double body it had before the plain-double reduction
    def oracle(cycles):
        frac = np.mod(np.asarray(cycles, dtype=np.longdouble), 1.0)
        return np.exp(2j * np.pi * frac.astype(np.float64))

    grid, _ = nf.generate_trial(4096, 5)
    t = np.asarray(grid.instants, dtype=np.longdouble)
    for p0 in (0, 1, 777, 4096, 65536, 131071):
        assert np.array_equal(cis_cycles(-p0 * t), oracle(-p0 * t))
    assert np.array_equal(cis_cycles(grid.instants), oracle(grid.instants))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_cis_cycles_reduces_as_mod(dtype):
    # c - floor(c) is np.mod(c, 1.0) bit for bit: an integer c (-0.0 included)
    # gives +0.0, and a tiny negative c rounds up to 1.0
    rng = np.random.default_rng(8)
    edges = [-0.0, 0.0, 5e-324, -5e-324, 0.5, -0.5, 1.0, -1.0, 2.0**53,
             -2.0**52 - 0.5, np.nextafter(-1.0, 0.0)]
    c = np.concatenate([np.array(edges, dtype=dtype),
                        rng.uniform(-0.5, 0.5, 1000).astype(dtype),
                        rng.uniform(-1e6, 1e6, 1000).astype(dtype) / dtype(3)])
    want = np.exp(2j * np.pi * np.mod(c, 1.0).astype(np.float64))
    assert cis_cycles(c).tobytes() == want.tobytes()


def _outputs():
    grid, a = nf.generate_trial(256, 6)
    params = nf.MethodParams.from_mu(1e-15, 256, 6)
    plan = nf.build_plan(grid, params)
    return {
        "type1": nf.nfft_type1(grid, a, 300),
        "type2": nf.nfft_type2(np.resize(a, 300), grid),
        "type1_direct": nf.nfft_type1_direct(grid, a, 300),
        **{f"plan.{f}": getattr(plan, f) for f in
           ("kernel_samples", "coefficients", "derivative_samples", "node_weights")},
        "refine_type4": nf.refine_type4(plan, a, passes=1),
    }


def test_same_results_where_long_double_is_plain_double(monkeypatch):
    # long double is 80-bit on x86-64 Linux but plain double on Windows and
    # macOS arm64: no result may depend on which one numpy provides
    native = _outputs()
    monkeypatch.setattr(np, "longdouble", np.float64)
    patched = _outputs()
    for name, want in native.items():
        assert np.array_equal(patched[name], want), name
