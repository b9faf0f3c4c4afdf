import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre

import spinwigner as sw
from spinwigner.moyal import _BLOCK, wigner_complex_many
from spinwigner.omega_map import OscillatorDensity

from helpers import (basis_vector, dense_ladder, fock_index, hopf_forward_arrays,
                     hopf_section_arrays, nonreducible_two_spin_operator, omega,
                     oracle_wigner_integral, push_pure, reference_moyal_1d,
                     reference_wigner_complex_many, singlet_vector, state_families,
                     wigner_4d_many)


def test_laguerre_hand_values():
    assert sw.laguerre(0, 0, 7.3) == 1.0
    assert sw.laguerre(1, 0, 2.0) == pytest.approx(-1.0, abs=1e-15)
    # quadratic: 1 - 2x + x^2/2 at x = 2
    x = 2.0
    assert sw.laguerre(2, 0, x) == pytest.approx(1.0 - 2.0 * x + x * x / 2.0, abs=1e-14)


def test_laguerre_against_scipy():
    rng = np.random.default_rng(5)
    for _ in range(100):
        deg = int(rng.integers(0, 11))
        order = int(rng.integers(0, 7))
        x = float(rng.uniform(0.0, 50.0))
        mine = sw.laguerre(deg, order, x)
        ref = eval_genlaguerre(deg, order, x)
        assert mine == pytest.approx(ref, rel=1e-10, abs=1e-10)


def test_laguerre_array_argument():
    x = np.linspace(0.0, 5.0, 7)
    vals = sw.laguerre(3, 2, x)
    assert vals.shape == x.shape
    assert np.allclose(vals, eval_genlaguerre(3, 2, x), atol=1e-12)


def test_moyal_origin_values():
    assert sw.moyal_1d(0, 0, 0.0, 0.0) == pytest.approx(1.0 / math.pi, abs=1e-15)
    assert sw.moyal_1d(1, 1, 0.0, 0.0) == pytest.approx(-1.0 / math.pi, abs=1e-15)


def test_moyal_first_off_diagonal_closed_form():
    # W_{01}(q, p) = sqrt2/pi (q - i p) exp(-(q^2+p^2)): checked against the
    # defining integral by hand
    q, p = 0.6, -1.3
    expect = math.sqrt(2.0) / math.pi * (q - 1j * p) * math.exp(-(q * q + p * p))
    assert sw.moyal_1d(0, 1, q, p) == pytest.approx(expect, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 6), n_prime=st.integers(0, 6),
    q=st.floats(-3, 3), p=st.floats(-3, 3),
)
def test_moyal_hermiticity(n, n_prime, q, p):
    a = sw.moyal_1d(n, n_prime, q, p)
    b = sw.moyal_1d(n_prime, n, q, p)
    assert abs(a - np.conjugate(b)) <= 1e-12


def _phase_grid(half_width=7.0, points=141):
    q = np.linspace(-half_width, half_width, points)
    h = q[1] - q[0]
    w = np.full(points, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    qq, pp = np.meshgrid(q, q, indexing="ij")
    ww = np.outer(w, w)
    return qq, pp, ww


def test_moyal_normalization():
    qq, pp, ww = _phase_grid()
    for n in range(7):
        integral = np.sum(sw.moyal_1d(n, n, qq, pp).real * ww)
        assert integral == pytest.approx(1.0, abs=1e-8)


def test_moyal_orthogonality():
    qq, pp, ww = _phase_grid()
    table = {(n, npr): sw.moyal_1d(n, npr, qq, pp) for n in range(4) for npr in range(4)}
    for n in range(4):
        for npr in range(4):
            for m in range(4):
                for mpr in range(4):
                    val = 2.0 * math.pi * np.sum(table[(n, npr)] * np.conj(table[(m, mpr)]) * ww)
                    expect = 1.0 if (n == m and npr == mpr) else 0.0
                    assert abs(val - expect) <= 1e-6


def test_wigner_up_state_origin():
    d = push_pure(1, basis_vector(1, 1))
    assert float(wigner_4d_many(d, 0, 0, 0, 0)) == pytest.approx(-1.0 / math.pi**2, abs=1e-14)


def test_wigner_nonreducible_operator_closed_form():
    d = sw.push_operator(omega(2), nonreducible_two_spin_operator())
    val = complex(wigner_complex_many(d, 1.0, 0.0, 0.0, 0.0))
    assert val == pytest.approx(math.sqrt(2.0) / math.pi**2 * math.exp(-1.0), abs=1e-14)
    q1, p1, q2, p2 = 0.4, -0.8, 1.1, 0.25
    r = q1 * q1 + p1 * p1 + q2 * q2 + p2 * p2
    expect = math.sqrt(2.0) / math.pi**2 * math.exp(-r) * (q1 - 1j * p1) ** 2
    got = complex(wigner_complex_many(d, q1, p1, q2, p2))
    assert got == pytest.approx(expect, abs=1e-14)


def test_wigner_zero_density():
    size = len(sw.fock_states(2))
    d = OscillatorDensity.from_fock_elements(2, np.zeros((size, size)))
    pts = np.random.default_rng(0).uniform(-2, 2, size=(10, 4))
    vals = wigner_4d_many(d, *pts.T)
    assert np.all(vals == 0.0)


def test_wigner_rejects_non_hermitian():
    # 1 + S_+ at two spins keeps its total, so its reduced function is complex
    d = sw.push_operator(omega(2), np.eye(4) + dense_ladder(2, True))
    with pytest.raises(sw.NumericError, match="not Hermitian"):
        sw.reduced_wigner_many(d, 0.4, -0.8, 1.1)
    with pytest.raises(sw.NumericError, match="not Hermitian"):
        sw.sphere_normalization(d)


def test_phase_point_validation():
    d = push_pure(1, basis_vector(1, 1))
    with pytest.raises(sw.ValidationError, match="p1 = inf is not finite"):
        wigner_complex_many(d, 0.0, math.inf, 0.0, 0.0)
    with pytest.raises(sw.ValidationError, match="x1 = nan is not finite"):
        sw.reduced_wigner_many(d, math.nan, 0.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_array_api_refuses_non_finite_coordinates(bad):
    d = push_pure(2, singlet_vector())
    evaluators = {
        "wigner_complex_many": (lambda *c: wigner_complex_many(d, *c), ("q1", "p1", "q2", "p2")),
        "reduced_wigner_many": (lambda *c: sw.reduced_wigner_many(d, *c), ("x1", "x2", "x3")),
        "ws_numeric_many": (lambda *c: sw.ws_numeric_many(d, *c), ("theta", "phi")),
        "ws_analytic": (lambda *c: sw.ws_analytic(sw.LmDensity.from_density(d), *c),
                        ("theta", "phi")),
    }
    for evaluate, args in evaluators.values():
        for k, arg in enumerate(args):
            for value in (bad, np.array([0.5, bad, 1.0])):
                coords = [np.full(3, 0.25) for _ in args]
                coords[k] = value
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # refused before any arithmetic
                    with pytest.raises(sw.ValidationError,
                                       match=f"^{arg} = {bad!r} is not finite$"):
                        evaluate(*coords)


def test_huge_finite_coordinates_give_zero():
    # W carries exp(-rho): past its underflow the value is 0, with no overflow on the way
    d = push_pure(3, sw.cat_state(3).amplitudes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert wigner_complex_many(d, 1e200, 0, 0, 0) == 0
        assert sw.reduced_wigner_many(d, 1e300, 0, 0) == 0
        back = hopf_forward_arrays(*hopf_section_arrays(3e200, -4e200, 1e200))
    assert back == pytest.approx((3e200, -4e200, 1e200), rel=1e-15)


def test_oracle_matches_moyal_sum_one_spin():
    d = push_pure(1, basis_vector(1, 1))
    rng = np.random.default_rng(20)
    for _ in range(20):
        pt = rng.uniform(-2.5, 2.5, size=4)
        assert abs(float(wigner_4d_many(d, *pt)) - oracle_wigner_integral(d, *pt)) <= 1e-6


def test_oracle_ground_state_origin():
    size = len(sw.fock_states(1))
    e = np.zeros((size, size), dtype=complex)
    e[fock_index(1)[(0, 0)], fock_index(1)[(0, 0)]] = 1.0
    d = OscillatorDensity.from_fock_elements(1, e)
    val = oracle_wigner_integral(d, 0, 0, 0, 0)
    assert val == pytest.approx(1.0 / math.pi**2, abs=1e-8)


def test_oracle_singlet_gaussian():
    d = push_pure(2, singlet_vector())
    rng = np.random.default_rng(21)
    for _ in range(5):
        q1, p1, q2, p2 = rng.uniform(-1.5, 1.5, size=4)
        r = q1 * q1 + p1 * p1 + q2 * q2 + p2 * p2
        val = oracle_wigner_integral(d, q1, p1, q2, p2)
        assert val == pytest.approx(math.exp(-r) / math.pi**2, abs=1e-7)


def test_oracle_five_excitation_support():
    d = push_pure(5, sw.fock_state(5, 2).amplitudes)
    rng = np.random.default_rng(22)
    for _ in range(4):
        pt = rng.uniform(-2.0, 2.0, size=4)
        assert abs(float(wigner_4d_many(d, *pt)) - oracle_wigner_integral(d, *pt)) <= 1e-6


def test_oracle_reports_non_convergence():
    d = push_pure(1, basis_vector(1, 1))
    with pytest.raises(sw.NumericError, match="converge"):
        oracle_wigner_integral(d, 0.5, 0.1, 0.0, 0.0, initial_points=5, max_refinements=0)


def _kernel_families(n):
    rng = np.random.default_rng(200 + n)
    op = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    out = {name: sw.push_density(omega(n), m) for name, m in state_families(n).items()}
    out["operator"] = sw.push_operator(omega(n), op)
    return out


def _kernel_points(count, rng):
    """count points: the origin, p = 0 section points, then |q| up to 6."""
    pts = rng.uniform(-6.0, 6.0, size=(4, count))
    pts[:, :1] = 0.0
    pts[1, 1:count // 4] = 0.0
    pts[3, 1:count // 4] = 0.0
    return pts


@pytest.mark.parametrize("n", range(1, 9))
def test_block_kernel_is_bit_identical_to_per_pair_sum(n):
    rng = np.random.default_rng(n)
    for name, d in _kernel_families(n).items():
        for count in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7):
            pts = _kernel_points(count, rng)
            got = wigner_complex_many(d, *pts)
            assert got.shape == (count,)
            assert np.array_equal(got, reference_wigner_complex_many(d, *pts)), (name, count)
        # scalar-broadcast inputs, then single 0-d points
        q = np.linspace(-6.0, 6.0, _BLOCK + 3)
        for args in [(q, 0.0, q[::-1], 0.0), (0.3, q, -1.2, 0.0),
                     (q.reshape(-1, 1), q[:5], 0.5, 0.25),
                     (0.0, 0.0, 0.0, 0.0), *rng.uniform(-4.0, 4.0, size=(5, 4))]:
            got = wigner_complex_many(d, *args)
            expect = reference_wigner_complex_many(d, *args)
            assert got.shape == expect.shape
            assert np.array_equal(got, expect), (name, args)


def test_moyal_1d_matches_single_entry_formula():
    q = np.concatenate([[0.0, 0.0, 1.3], np.linspace(-6.0, 6.0, 37)])
    p = np.concatenate([[0.0, 0.7, 0.0], np.linspace(6.0, -6.0, 37)])
    for n in range(9):
        for n_prime in range(9):
            assert np.array_equal(sw.moyal_1d(n, n_prime, q, p),
                                  reference_moyal_1d(n, n_prime, q, p))
            assert sw.moyal_1d(n, n_prime, 0.4, -0.9) == reference_moyal_1d(n, n_prime, 0.4, -0.9)


def test_kernel_memory_is_bounded_by_the_block():
    # coherent n = 10: 1296 non-zero pairs over 121 keys per mode; per-key
    # arrays over all points would hold 242 x 16 B per point (774 MB at 200k)
    d = push_pure(10, sw.spin_coherent(10, 1.1, 0.4).amplitudes)
    rng = np.random.default_rng(3)
    peaks = {}
    for count in (20_000, 200_000):
        pts = rng.uniform(-3.0, 3.0, size=(4, count))
        tracemalloc.start()
        try:
            vals = wigner_complex_many(d, *pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks[count] = peak - vals.nbytes
    assert peaks[200_000] <= peaks[20_000] + 1e6
    # n = 30: full 4096-point blocks would take 2 x 31^2 x 4096 x 16 B = 126 MB
    # of tables; the byte budget keeps them at the n = 12 size (22 MB)
    n = 30
    idx = fock_index(n)
    e = np.zeros((len(sw.fock_states(n)),) * 2, dtype=complex)
    for a, b in ((n, 0), (0, n), (15, 15)):
        e[idx[(a, b)], idx[(a, b)]] = 1.0
    e[idx[(n, 0)], idx[(0, n)]] = e[idx[(0, n)], idx[(n, 0)]] = 0.5
    d = sw.OscillatorDensity.from_fock_elements(n, e)
    pts = rng.uniform(-3.0, 3.0, size=(4, 5000))
    tracemalloc.start()
    try:
        vals = wigner_complex_many(d, *pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - vals.nbytes <= 25e6
    assert np.array_equal(vals[4000:], wigner_complex_many(d, *pts[:, 4000:]))
