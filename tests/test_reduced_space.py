import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre

import spinwigner as sw
from spinwigner.omega_map import OscillatorDensity

from helpers import (basis_vector, dicke_coherent_density, hopf_forward_arrays,
                     hopf_section_arrays, nonreducible_two_spin_operator, omega, push_pure,
                     reference_reduced_wigner_many, singlet_vector, skewed_two_spin_operator,
                     state_families, wigner_4d_many)

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def test_hopf_forward_poles_and_equator():
    assert hopf_forward_arrays(1, 0, 0, 0) == (0, 0, 1)
    assert hopf_forward_arrays(0, 0, 1, 0) == (0, 0, -1)
    # derived by direct Pauli contraction with z = (1, 1)
    pt = hopf_forward_arrays(1, 0, 1, 0)
    z = np.array([1.0, 1.0], dtype=complex)
    expect = [float((z.conj() @ (s @ z)).real) for s in PAULI]
    assert pt == tuple(expect) == (2.0, 0.0, 0.0)


@settings(max_examples=80, deadline=None)
@given(q1=st.floats(-4, 4), p1=st.floats(-4, 4), q2=st.floats(-4, 4), p2=st.floats(-4, 4))
def test_hopf_radius_is_squared_4d_radius(q1, p1, q2, p2):
    x = hopf_forward_arrays(q1, p1, q2, p2)
    r4 = q1 * q1 + p1 * p1 + q2 * q2 + p2 * p2
    assert float(np.linalg.norm(x)) == pytest.approx(r4, rel=1e-12, abs=1e-12)


def test_hopf_section_special_points():
    assert hopf_section_arrays(0, 0, 1) == (1, 0, 0, 0)
    assert hopf_section_arrays(0, 0, 0) == (0, 0, 0, 0)
    q1, p1, q2, p2 = hopf_section_arrays(0, 0, -1)
    assert (q1, p1) == (0.0, 0.0)
    assert q2 * q2 + p2 * p2 == pytest.approx(1.0, abs=1e-14)


def test_hopf_section_equator_balances_modes():
    q1, p1, q2, p2 = hopf_section_arrays(2, 0, 0)
    assert q1**2 + p1**2 == pytest.approx(1.0, abs=1e-12)
    assert q2**2 + p2**2 == pytest.approx(1.0, abs=1e-12)
    back = hopf_forward_arrays(q1, p1, q2, p2)
    assert back == pytest.approx((2.0, 0.0, 0.0), abs=1e-12)


@settings(max_examples=120, deadline=None)
@given(x1=st.floats(-5, 5), x2=st.floats(-5, 5), x3=st.floats(-5, 5))
def test_hopf_section_round_trip(x1, x2, x3):
    r = math.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    fx1, fx2, fx3 = hopf_forward_arrays(*hopf_section_arrays(x1, x2, x3))
    err = max(abs(fx1 - x1), abs(fx2 - x2), abs(fx3 - x3))
    assert err <= 1e-10 * (1.0 + r)


def test_reduced_one_spin_up_closed_form():
    # -(1/pi^2) exp(-r) L_1(x3 + r), with r the squared 4D radius
    d = push_pure(1, basis_vector(1, 1))
    assert float(sw.reduced_wigner_many(d, 0, 0, 0)) == pytest.approx(
        -1.0 / math.pi**2, abs=1e-14)
    rng = np.random.default_rng(2)
    for _ in range(25):
        x = rng.uniform(-3, 3, size=3)
        r = float(np.linalg.norm(x))
        expect = -math.exp(-r) / math.pi**2 * (1.0 - (x[2] + r))
        assert float(sw.reduced_wigner_many(d, *x)) == pytest.approx(expect, abs=1e-12)


def test_reduced_singlet_radial():
    d = push_pure(2, singlet_vector())
    for x in ((2.0, 0.0, 0.0), (0.0, 0.0, 2.0), (-1.2, 1.0, 0.8)):
        r = float(np.linalg.norm(x))
        assert float(sw.reduced_wigner_many(d, *x)) == pytest.approx(
            math.exp(-r) / math.pi**2, abs=1e-12)


def test_reduced_outer_shell_product_state():
    n = 3
    d = push_pure(n, basis_vector(n, 2**n - 1))
    rng = np.random.default_rng(3)
    x = rng.uniform(-4, 4, size=(3, 40))
    r = np.linalg.norm(x, axis=0)
    vals = sw.reduced_wigner_many(d, *x)
    expect = (-1.0) ** n / math.pi**2 * np.exp(-r) * eval_genlaguerre(n, 0, r + x[2])
    assert np.max(np.abs(vals - expect)) <= 1e-10


def _fiber_mean(density, x1, x2, x3):
    """Mean of the four-dimensional function over 2(n + 1) equally spaced
    fiber angles above each point: a fiber rotation turns the (T, T') block
    by exp(i chi (T' - T)), |T' - T| <= n, so the rule is exact."""
    q1, p1, q2, p2 = hopf_section_arrays(x1, x2, x3)
    count = 2 * (density.n + 1)
    total = 0.0
    for chi in 2.0 * math.pi * np.arange(count) / count:
        c, s = math.cos(chi), math.sin(chi)
        total = total + sw.wigner_complex_many(density, c * q1 + s * p1, -s * q1 + c * p1,
                                               c * q2 + s * p2, -s * q2 + c * p2)
    return total / count


def _random_non_commuting(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    d = sw.push_operator(omega(n), (a + a.conj().T) / 2**n)
    assert not d.commutes_with_s2
    return d


def test_nonreducible_operator_averages_to_zero():
    # |uu>(<ud| - <du|)/sqrt2 lies wholly in the (T, T') = (2, 0) block; the
    # push leaves only roundoff (2e-17) in the (2, 2) block
    d = sw.push_operator(omega(2), nonreducible_two_spin_operator())
    avg = sw.fiber_average(d)
    assert not d.commutes_with_s2 and avg.s2_residual == 0.0
    assert np.max(np.abs(avg.elements)) <= 1e-16
    assert avg.represented_trace == d.represented_trace == 0.0
    x = np.random.default_rng(5).uniform(-2, 2, size=(3, 30))
    assert np.max(np.abs(sw.reduced_wigner_many(d, *x))) <= 1e-16
    assert np.max(np.abs(_fiber_mean(d, *x))) <= 1e-15
    # written on the Fock rows directly, the coherence averages to exactly zero
    e = np.zeros((6, 6), dtype=complex)
    e[3, 0] = 1.0  # |(2, 0)><(0, 0)|
    exact = OscillatorDensity.from_fock_elements(2, e)
    assert not sw.fiber_average(exact).elements.any()
    assert not sw.reduced_wigner_many(exact, *x).any()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_fiber_average_keeps_the_same_total_blocks(n):
    d = _random_non_commuting(n, 40 + n)
    avg = sw.fiber_average(d)
    totals = np.array([a + b for a, b in sw.fock_states(n)])
    same = totals[:, None] == totals[None, :]
    assert np.array_equal(avg.elements, np.where(same, d.elements, 0.0))
    assert avg.s2_residual == 0.0 and avg.commutes_with_s2
    assert abs(avg.represented_trace - d.represented_trace) <= 1e-15
    assert np.max(np.abs(d.elements[~same])) > 1e-3


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_reduced_and_sphere_values_are_fiber_means(n):
    d = _random_non_commuting(n, 60 + n)
    rng = np.random.default_rng(70 + n)
    x = rng.uniform(-3, 3, size=(3, 200))
    expect = _fiber_mean(d, *x)
    got = sw.reduced_wigner_many(d, *x)
    assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))
    # the numeric sphere route: the same Gauss-Laguerre rule on the fiber means
    theta, phi = rng.uniform(0, math.pi, 12), rng.uniform(0, 2 * math.pi, 12)
    r, w = np.polynomial.laguerre.laggauss((n + 3) // 2)
    dirs = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    rays = _fiber_mean(d, *(dirs[:, :, None] * r)).real
    sphere = math.pi / 4.0 * np.sum(rays * (w * np.exp(r) * r), axis=-1)
    numeric = sw.ws_numeric_many(d, theta, phi)
    assert np.max(np.abs(numeric - sphere)) <= 1e-14 * np.max(np.abs(sphere))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_analytic_route_on_the_fiber_average(n):
    d = _random_non_commuting(n, 80 + n)
    theta, phi = np.meshgrid(np.linspace(0, math.pi, 9), np.linspace(0, 2 * math.pi, 11))
    numeric = sw.ws_numeric_many(d, theta, phi)
    analytic = sw.ws_analytic(sw.LmDensity.from_density(sw.fiber_average(d)), theta, phi)
    assert np.max(np.abs(analytic - numeric)) <= 1e-13 * np.max(np.abs(numeric))
    assert abs(sw.sphere_normalization(d) - d.represented_trace) <= 1e-12


def test_fiber_average_drops_the_cross_shell_terms_of_a_commuting_operator():
    # |uu> plus a 1e-10 singlet passes the commutation test but has cross-shell
    # entries above LmDensity's cut; the average keeps only its same-total
    # blocks, as for the singlet and |uuu>, and the reduced values read no more
    eps = 1e-10
    vec = math.sqrt(1.0 - eps * eps) * basis_vector(2, 0b11) + eps * singlet_vector()
    d = push_pure(2, vec)
    assert sw.LmDensity.from_density(d).cross_shell
    x = np.random.default_rng(6).uniform(-2, 2, size=(3, 40))
    for density in (d, push_pure(2, singlet_vector()), push_pure(3, basis_vector(3, 0b111))):
        avg = sw.fiber_average(density)
        totals = np.array([a + b for a, b in sw.fock_states(density.n)])
        same = totals[:, None] == totals[None, :]
        assert density.commutes_with_s2 and avg.s2_residual == 0.0
        assert np.array_equal(avg.elements, np.where(same, density.elements, 0.0))
        assert not sw.LmDensity.from_density(avg).cross_shell
        assert np.array_equal(sw.reduced_wigner_many(avg, *x), sw.reduced_wigner_many(density, *x))


# The origin, the x3 axis on both sides and huge finite coordinates, which
# give exactly 0.
_SPECIAL = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -2.5], [0.0, 0.0, 1.5], [1e300, 0.0, 0.0],
                     [0.0, -1e300, 1.0], [2.0**600, 2.0**600, -2.0**600],
                     [0.0, 0.0, -2.0**600]]).T


def _assert_matches_the_section_route(d, seed):
    x = np.concatenate([np.random.default_rng(seed).uniform(-4, 4, size=(3, 200)), _SPECIAL],
                       axis=1)
    got = sw.reduced_wigner_many(d, *x)  # warnings are errors in this suite
    expect = reference_reduced_wigner_many(d, *x)
    scale = np.max(np.abs(expect))
    assert np.max(np.abs(got - expect)) <= 1e-14 * scale
    assert not got[-4:].any()
    # 1e-13 off the negative axis the reference's section snaps onto it, so
    # take the fiber point z1 = sqrt((r + x3) / 2), z2 = x1 / (2 z1) instead,
    # with r + x3 = x1^2 / (r - x3)
    for eps, depth in ((1e-13, 2.5), (-1e-13, 0.3)):
        z1 = math.sqrt(eps * eps / (2.0 * (math.hypot(eps, depth) + depth)))
        near = wigner_4d_many(sw.fiber_average(d), z1, 0.0, eps / (2.0 * z1), 0.0)
        assert abs(sw.reduced_wigner_many(d, eps, 0.0, -depth) - near) <= 1e-14 * scale


@pytest.mark.parametrize("n", range(1, 13))
def test_closed_form_matches_the_section_route_for_every_family(n):
    for name, state in state_families(n).items():
        _assert_matches_the_section_route(sw.push_density(omega(n), state), 200 + n)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_closed_form_matches_the_section_route_for_non_commuting_operators(n):
    _assert_matches_the_section_route(_random_non_commuting(n, 90 + n), 220 + n)


def test_three_variable_values_call_no_four_dimensional_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("wigner_complex_many called")

    monkeypatch.setattr("spinwigner.moyal.wigner_complex_many", refuse)
    monkeypatch.setattr("spinwigner.reduced_space.wigner_complex_many", refuse)
    d = _random_non_commuting(3, 7)
    sw.reduced_wigner_many(d, 0.3, -0.2, 0.9)
    sw.ws_numeric_many(d, 0.4, 1.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_normalization_checks_the_closed_form_against_the_moyal_sum(n, monkeypatch):
    # the sphere integral of the closed form is checked against the phase-space
    # integral of the Moyal sum: a closed form off by 1e-7 is refused
    d = _random_non_commuting(n, 90 + n)
    assert abs(sw.sphere_normalization(d) - d.represented_trace) <= 1e-12
    numeric = sw.ws_numeric_many
    monkeypatch.setattr("spinwigner.sphere.ws_numeric_many",
                        lambda *args: numeric(*args) * (1.0 + 1e-7))
    with pytest.raises(sw.NumericError, match="differs from the phase-space integral"):
        sw.sphere_normalization(d)


def test_closed_form_is_exact_for_a_coherent_state_at_forty_spins():
    # the coherent state along u = (sin t cos p, sin t sin p, cos t), t = 0.7,
    # p = 0.8, whose functions are (-1)^n e^-r / pi^2 L_n(r + u.x) and
    # (-1)^n / 4 pi sum_k (-1)^k C(n,k) (k + 1) (1 + u.n)^k. Both sums are
    # taken exactly in rationals at the float inputs; r is exact at these points.
    n = 40
    d = dicke_coherent_density(n)
    cs, sn, cp, sp = map(Fraction, (math.cos(0.35), math.sin(0.35), math.cos(0.8), math.sin(0.8)))
    u = (2 * cs * sn * cp, 2 * cs * sn * sp, cs * cs - sn * sn)

    def dot(v):
        return sum(a * Fraction(b) for a, b in zip(u, v))

    points = [(0.5, 0.75, 1.5, 1.75), (0.5, 1.0, -1.0, 1.5), (-1.0, 1.0, 1.75, 2.25),
              (0.0, 0.0, -3.0, 3.0), (6.0, -2.0, 3.0, 7.0), (0.0, 0.0, 0.0, 0.0)]
    exact = np.array([(-1) ** n * math.exp(-r) / math.pi**2 * float(sum(
        Fraction(math.comb(n, j), math.factorial(j)) * (-(Fraction(r) + dot(x))) ** j
        for j in range(n + 1))) for *x, r in points])
    got = sw.reduced_wigner_many(d, *np.array(points).T[:3])
    assert np.max(np.abs(got - exact)) <= 1e-14 * np.max(np.abs(exact))
    theta, phi = np.array([0.0, 0.5, 1.2, 2.0, 3.0]), np.array([0.3, 2.0, 4.4, 0.8, 6.0])
    st = np.sin(theta)
    dirs = zip((st * np.cos(phi)).tolist(), (st * np.sin(phi)).tolist(), np.cos(theta).tolist())
    exact = np.array([(-1) ** n / (4 * math.pi) * float(sum(
        (-1) ** k * math.comb(n, k) * (k + 1) * (1 + dot(v)) ** k for k in range(n + 1)))
        for v in dirs])
    assert np.max(np.abs(sw.ws_numeric_many(d, theta, phi) - exact)) <= 5e-13


def test_reduced_memory_does_not_grow_with_the_point_count():
    d = sw.push_density(omega(12), state_families(12)["mixture"])
    peaks = {}
    for count in (10_000, 100_000):
        x = np.random.default_rng(8).uniform(-3.0, 3.0, size=(3, count))
        tracemalloc.start()
        try:
            vals = sw.reduced_wigner_many(d, *x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks[count] = peak - vals.nbytes
    assert peaks[100_000] <= peaks[10_000] + 1e5


def test_wigner_constant_on_fibers_for_reducible():
    d = push_pure(2, basis_vector(2, 0b11))
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=3)
        q1, p1, q2, p2 = hopf_section_arrays(*x)
        t = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(t), math.sin(t)
        a = wigner_4d_many(d, q1, p1, q2, p2)
        b = wigner_4d_many(d, c * q1 + s * p1, -s * q1 + c * p1,
                              c * q2 + s * p2, -s * q2 + c * p2)
        assert abs(float(a) - float(b)) <= 1e-10


def test_fiber_invariance_singlet():
    d = push_pure(2, singlet_vector())
    assert sw.check_fiber_invariance(d, 100) <= 1e-10


def test_fiber_invariance_violated_by_nonreducible():
    d = sw.push_operator(omega(2), nonreducible_two_spin_operator())
    assert sw.check_fiber_invariance(d, 100) > 1e-3


def test_fiber_invariance_zero_density():
    size = len(sw.fock_states(2))
    d = OscillatorDensity.from_fock_elements(2, np.zeros((size, size)))
    assert sw.check_fiber_invariance(d, 50) == 0.0


def test_fiber_invariance_deterministic():
    d = push_pure(2, basis_vector(2, 0b11))
    assert sw.check_fiber_invariance(d, 37) == sw.check_fiber_invariance(d, 37)


@pytest.mark.parametrize("eps, refused", [(3e-9, True), (1e-12, False)])
def test_every_three_variable_route_takes_one_hermitian_rule(eps, refused):
    # same-total skew 5.3e-9 is above 1e-10 of the largest element, 1.8e-12 is not
    d = sw.push_operator(omega(2), skewed_two_spin_operator(eps))
    routes = {
        "reduced": lambda: sw.reduced_wigner_many(d, 0.4, -0.8, 1.1),
        "numeric": lambda: sw.ws_numeric_many(d, 0.7, 1.9),
        "analytic": lambda: sw.ws_analytic(sw.LmDensity.from_density(sw.fiber_average(d)),
                                           0.7, 1.9),
        "normalization": lambda: sw.sphere_normalization(d),
    }
    for name, route in routes.items():
        if refused:
            with pytest.raises(sw.NumericError, match="not Hermitian"):
                route()
        else:
            assert np.isfinite(route()), name
