import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, hyp2f1

import spinwigner as sw
import spinwigner.sphere as sphere_mod
from spinwigner.sphere import LmDensity

from helpers import basis_vector, fock_index, omega, push_pure, singlet_vector


def test_ws_singlet_is_uniform():
    d = push_pure(2, singlet_vector())
    for th, ph in ((0.0, 0.0), (1.1, 2.2), (math.pi / 2, 4.0), (math.pi, 0.3)):
        assert sw.ws_numeric(d, sw.SphPoint(th, ph)) == pytest.approx(
            1.0 / (4.0 * math.pi), abs=1e-12)


def test_ws_one_spin_closed_form():
    # diagonal outer-shell value (1 + 2 cos(theta)) / 4 pi, from the radial
    # integrals of exp(-r) r and exp(-r) r^2
    d = push_pure(1, basis_vector(1, 1))
    for th in (0.0, 0.7, math.pi / 2, 2.5):
        expect = (1.0 + 2.0 * math.cos(th)) / (4.0 * math.pi)
        assert sw.ws_numeric(d, sw.SphPoint(th, 1.0)) == pytest.approx(expect, abs=1e-12)


def test_ws_plus_state_peaks_on_equator():
    plus = (basis_vector(1, 1) + basis_vector(1, 0)) / math.sqrt(2.0)
    d = push_pure(1, plus)
    thetas = np.linspace(0.0, math.pi, 31)
    phis = np.linspace(0.0, 2.0 * math.pi, 63, endpoint=False)
    t, p = np.meshgrid(thetas, phis, indexing="ij")
    vals = sw.ws_numeric_many(d, t.ravel(), p.ravel()).reshape(t.shape)
    it, ip = np.unravel_index(np.argmax(vals), vals.shape)
    assert thetas[it] == pytest.approx(math.pi / 2, abs=math.pi / 30)
    assert min(phis[ip], 2.0 * math.pi - phis[ip]) <= 2.0 * math.pi / 62


def test_ws_zero_density():
    size = len(sw.fock_states(2))
    d = sw.OscillatorDensity.from_fock_elements(2, np.zeros((size, size)))
    assert sw.ws_numeric(d, sw.SphPoint(1.0, 1.0)) == 0.0


def test_ws_refuses_too_few_nodes():
    d = push_pure(2, singlet_vector())
    with pytest.raises(sw.ValidationError):
        sw.ws_numeric(d, sw.SphPoint(1.0, 1.0), nodes=3)
    assert sw.ws_numeric(d, sw.SphPoint(1.0, 1.0), nodes=4) == pytest.approx(
        1.0 / (4.0 * math.pi), abs=1e-12)


def test_sph_point_validation():
    with pytest.raises(sw.ValidationError):
        sw.SphPoint(-0.2, 0.0)
    with pytest.raises(sw.ValidationError):
        sw.SphPoint(math.pi + 0.2, 0.0)
    assert sw.SphPoint(1.0, 7.0).phi == pytest.approx(7.0 - 2.0 * math.pi)


def test_hypergeom_hand_values():
    assert sw.hypergeom_terminating(0, 3.7, 2.2, 0.9) == 1.0
    assert sw.hypergeom_terminating(-1, 2.0, 3.0, 0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert sw.hypergeom_terminating(-2, 1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_hypergeom_pole_detection():
    with pytest.raises(sw.ValidationError, match="pole"):
        sw.hypergeom_terminating(-3, 1.0, -1.0, 0.5)
    # pole beyond termination is fine: c = -3 is reached only at term 4
    assert math.isfinite(sw.hypergeom_terminating(-2, 1.0, -3.0, 0.5))
    with pytest.raises(sw.ValidationError):
        sw.hypergeom_terminating(1, 1.0, 1.0, 0.5)


def test_hypergeom_against_scipy():
    rng = np.random.default_rng(9)
    for _ in range(120):
        a = -int(rng.integers(0, 9))
        b = float(rng.uniform(-4.0, 9.0))
        c = float(rng.uniform(0.5, 9.0))
        x = float(rng.uniform(-1.0, 1.0))
        assert sw.hypergeom_terminating(a, b, c, x) == pytest.approx(
            float(hyp2f1(a, b, c, x)), rel=1e-9, abs=1e-9)


def test_radial_integral_simplest_is_one():
    for c in (-0.9, -0.3, 0.0, 0.3, 0.9):
        assert sw.radial_integral_I(0, 0, 0, c) == 1.0


def test_radial_integral_linear_case_by_hand():
    # I(0, 1, 0, c) = int exp(-r) r (1 - (1+c) r) dr = 1 - 2 (1 + c)
    for c in (-0.7, 0.0, 0.4, 1.0):
        assert sw.radial_integral_I(0, 1, 0, c) == pytest.approx(-1.0 - 2.0 * c, abs=1e-14)


def test_radial_integral_swap_symmetry():
    for i in range(5):
        for j in range(5):
            for alpha in range(3):
                for c in (-0.85, -0.2, 0.0, 0.55):
                    a = sw.radial_integral_I(i, j, alpha, c)
                    b = sw.radial_integral_I(j, i, alpha, -c)
                    assert a == pytest.approx(b, rel=1e-13, abs=1e-13)


def test_radial_integral_against_quadrature_subset():
    def oracle(i, j, alpha, c):
        f = lambda r: (math.exp(-r) * r ** (1 + alpha)
                       * eval_genlaguerre(j, alpha, (1 + c) * r)
                       * eval_genlaguerre(i, alpha, (1 - c) * r))
        val, _ = quad(f, 0.0, 80.0, limit=300, epsabs=1e-12, epsrel=1e-12)
        return val

    for i in range(4):
        for j in range(4):
            for alpha in range(3):
                for c in (-0.9, 0.0, 0.6):
                    assert sw.radial_integral_I(i, j, alpha, c) == pytest.approx(
                        oracle(i, j, alpha, c), abs=1e-9)


def _radial_integral_reciprocal_form(i, j, alpha, c):
    """Equivalent closed form with the series in 1/c^2; singular at c = 0.

    Kept in the tests only, to document why the production path uses the
    c^2-argument series instead.
    """
    terms = min(i, j)
    total = np.float64(1.0)
    term = np.float64(1.0)
    c = np.float64(c)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.float64(1.0) / (c * c)
        for t in range(terms):
            term *= (-i + t) * (-j + t) / ((-i - j - alpha + t) * (t + 1.0)) * x
            total += term
        pref = (-1.0) ** j * math.factorial(i + j + alpha) / (
            math.factorial(i) * math.factorial(j))
        bracket = (i + j + alpha + 1) * c ** (i + j) + (j - i) * c ** np.float64(i + j - 1)
        return float(pref * total * bracket)


def test_reciprocal_series_form_diverges_at_zero():
    assert not math.isfinite(_radial_integral_reciprocal_form(1, 1, 0, 0.0))
    for c in (-0.5, 0.5, 0.9):
        for i, j, alpha in ((1, 1, 0), (2, 1, 1), (3, 2, 0), (2, 2, 2)):
            assert _radial_integral_reciprocal_form(i, j, alpha, c) == pytest.approx(
                sw.radial_integral_I(i, j, alpha, c), rel=1e-9, abs=1e-9)


def test_ws_analytic_matches_numeric_three_spins_all_shells():
    n = 3
    size = len(sw.fock_states(n))
    idx = fock_index(n)
    rng = np.random.default_rng(14)
    thetas = rng.uniform(0.0, math.pi, 8)
    phis = rng.uniform(0.0, 2.0 * math.pi, 8)
    for total in range(n + 1):  # every shell, inner ones included
        for a in range(total + 1):
            for b in range(total + 1):
                e = np.zeros((size, size), dtype=complex)
                e[idx[(a, total - a)], idx[(b, total - b)]] = 1.0
                e = e + e.conj().T  # Hermitian combination
                d = sw.OscillatorDensity.from_fock_elements(n, e)
                lm = LmDensity.from_density(d)
                for th, ph in zip(thetas, phis):
                    assert sw.ws_analytic(lm, sw.SphPoint(th, ph)) == pytest.approx(
                        sw.ws_numeric(d, sw.SphPoint(th, ph)), abs=1e-8)


def test_ws_analytic_diagonal_terms_azimuth_independent():
    n = 4
    d = push_pure(n, sw.fock_state(n, 2).amplitudes)
    lm = LmDensity.from_density(d)
    base = sw.ws_analytic(lm, sw.SphPoint(1.2, 0.0))
    for ph in (0.5, 2.0, 4.5):
        assert sw.ws_analytic(lm, sw.SphPoint(1.2, ph)) == pytest.approx(base, abs=1e-14)


def test_ws_analytic_refuses_cross_shell_terms():
    mixed = (basis_vector(2, 0b11) + singlet_vector()) / math.sqrt(2.0)
    d = sw.push_operator(omega(2), np.outer(mixed, mixed.conj()))
    lm = LmDensity.from_density(d)
    with pytest.raises(sw.ValidationError, match="cross-shell"):
        sw.ws_analytic(lm, sw.SphPoint(1.0, 1.0))


def test_cat_minus_mixture_equator_profile():
    # interference term of the five-spin cat: radial integral of
    # exp(-r) r^6 / (pi^2 5!) gives amplitude 3 / (2 pi) on the equator
    n = 5
    cat = sw.cat_state(n)
    mix = sw.mixture([(0.5, sw.spin_coherent(n, 0.0, 0.0)),
                      (0.5, sw.spin_coherent(n, math.pi, 0.0))])
    om = omega(n)
    d_cat = sw.push_density(om, cat.density)
    d_mix = sw.push_density(om, mix)
    phis = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    eq = np.full_like(phis, math.pi / 2.0)
    diff = sw.ws_numeric_many(d_cat, eq, phis) - sw.ws_numeric_many(d_mix, eq, phis)
    expect = 3.0 / (2.0 * math.pi) * np.cos(n * phis)
    assert np.max(np.abs(diff - expect)) <= 1e-10


def test_sphere_normalization_simple_states():
    assert sw.sphere_normalization(push_pure(1, basis_vector(1, 1))) == pytest.approx(
        1.0, abs=1e-10)
    assert sw.sphere_normalization(push_pure(2, singlet_vector())) == pytest.approx(
        1.0, abs=1e-10)
    d_cat = push_pure(5, sw.cat_state(5).amplitudes)
    assert sw.sphere_normalization(d_cat) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_sphere_normalization_random_represented_states(n):
    # random pure states within single shells (where the spherical function
    # is defined) and a random mixture across shells
    basis = sw.decompose_angular_basis(n)
    om = omega(n)
    rng = np.random.default_rng(30 + n)
    shell_states = []
    for two_l in (n, n - 2):
        tower = basis.towers(two_l, 1)[0]
        coeff = rng.normal(size=len(tower)) + 1j * rng.normal(size=len(tower))
        coeff /= np.linalg.norm(coeff)
        shell_states.append(sum(c * v for c, v in zip(coeff, tower)))
    for vec in shell_states:
        d = sw.push_density(om, np.outer(vec, vec.conj()))
        assert d.represented_trace == pytest.approx(1.0, abs=1e-10)
        assert sw.sphere_normalization(d, resolution=(32, 64)) == pytest.approx(
            1.0, abs=1e-8)
    blend = 0.4 * np.outer(shell_states[0], shell_states[0].conj()) \
        + 0.6 * np.outer(shell_states[1], shell_states[1].conj())
    d = sw.push_density(om, blend)
    assert sw.sphere_normalization(d, resolution=(32, 64)) == pytest.approx(1.0, abs=1e-8)


def _family_densities(n):
    om = omega(n)
    coherent = sw.spin_coherent(n, 1.1, 0.4)
    pure = [coherent, sw.cat_state(n), sw.fock_state(n, n // 2),
            sw.squeezed_state(n, 0.2 + 0.1j, coherent)]
    densities = [sw.push_density(om, s.density) for s in pure]
    blend = sw.mixture([(0.3, coherent), (0.7, sw.cat_state(n))])
    return densities + [sw.push_density(om, blend)]


def _random_block_diagonal(n, rng):
    # random positive block per total excitation: commutes with total spin
    # squared and fills every shell, unit trace
    size = len(sw.fock_states(n))
    e = np.zeros((size, size), dtype=complex)
    start = 0
    for total in range(n + 1):
        a = rng.normal(size=(total + 1, total + 1)) + 1j * rng.normal(size=(total + 1, total + 1))
        e[start:start + total + 1, start:start + total + 1] = a @ a.conj().T
        start += total + 1
    return sw.OscillatorDensity.from_fock_elements(n, e / np.trace(e).real)


@pytest.mark.parametrize("n", range(1, 11))
def test_derived_normalization_rule_matches_dense_rule(n):
    for d in _family_densities(n):
        assert sw.sphere_normalization(d) == pytest.approx(
            sw.sphere_normalization(d, resolution=(64, 128)), abs=1e-12)


@pytest.mark.parametrize("n", range(1, 11))
def test_default_radial_nodes_match_wider_rule(n):
    wide = 2 * n + 8  # the node count used before 0.3.0
    t, p = np.meshgrid(np.linspace(0.0, math.pi, 7), np.linspace(0.0, 2.0 * math.pi, 9),
                       indexing="ij")
    for d in _family_densities(n):
        got = sw.ws_numeric_many(d, t.ravel(), p.ravel())
        assert np.max(np.abs(got - sw.ws_numeric_many(d, t.ravel(), p.ravel(), wide))) <= 1e-12
        assert sw.sphere_normalization(d) == pytest.approx(
            sw.sphere_normalization(d, nodes=wide), abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 11, 12])
def test_derived_normalization_rule_random_block_diagonal(n):
    d = _random_block_diagonal(n, np.random.default_rng(70 + n))
    derived = sw.sphere_normalization(d)
    assert derived == pytest.approx(sw.sphere_normalization(d, resolution=(64, 128)), abs=1e-12)
    assert derived == pytest.approx(1.0, abs=1e-8)


def test_derived_normalization_rule_is_tight():
    # one azimuth fewer than the derived n + 1 aliases the cos(n phi)
    # fringe of the cat state onto the constant term
    n = 4
    d = push_pure(n, sw.cat_state(n).amplitudes)
    dense = sw.sphere_normalization(d, resolution=(64, 128))
    assert abs(sw.sphere_normalization(d, resolution=(n // 2 + 1, n)) - dense) > 1e-3


_ANALYTIC_STATES = pytest.mark.parametrize("n, state", [
    (5, lambda n: sw.spin_coherent(n, 1.1, 0.4)),
    (6, lambda n: sw.squeezed_state(n, 0.2 + 0.1j, sw.spin_coherent(n, 0.8, 2.0))),
], ids=["coherent-5", "squeezed-6"])


def _grid_points():
    # 16 x 31 directions, theta = 0 and pi included
    return [sw.SphPoint(t, p) for t in np.linspace(0.0, math.pi, 16)
            for p in np.linspace(0.0, 2.0 * math.pi, 31)]


@_ANALYTIC_STATES
def test_ws_analytic_radial_reuse_is_exact(n, state, monkeypatch):
    lm = LmDensity.from_density(push_pure(n, state(n).amplitudes))
    points = _grid_points()
    sphere_mod._radial_memo.cache_clear()
    reused = [sw.ws_analytic(lm, pt) for pt in points]
    # summed once per theta, not once per (theta, phi)
    assert sphere_mod._radial_memo.cache_info().misses <= 16 * len(lm.same_shell)
    monkeypatch.setattr(sphere_mod, "_radial_memo", sw.radial_integral_I)
    assert reused == [sw.ws_analytic(lm, pt) for pt in points]


def _ws_analytic_per_term(lm, pt):
    """Closed-form sum recomputing every factor per term and point."""
    cos_t, sin_t = math.cos(pt.theta), math.sin(pt.theta)
    total = 0.0 + 0.0j
    for two_l, two_m, two_mp, v in lm.same_shell:
        sign = -1.0 if two_l % 2 else 1.0
        lpm, lmm = (two_l + two_m) // 2, (two_l - two_m) // 2
        lpmp, lmmp = (two_l + two_mp) // 2, (two_l - two_mp) // 2
        if two_m <= two_mp:
            dm, s, i, j = (two_mp - two_m) // 2, -1, lmmp, lpm
            lg = (math.lgamma(lpm + 1) + math.lgamma(lmmp + 1)
                  - math.lgamma(lpmp + 1) - math.lgamma(lmm + 1))
        else:
            dm, s, i, j = (two_m - two_mp) // 2, 1, lmm, lpmp
            lg = (math.lgamma(lpmp + 1) + math.lgamma(lmm + 1)
                  - math.lgamma(lpm + 1) - math.lgamma(lmmp + 1))
        base = -sin_t * complex(math.cos(s * pt.phi), math.sin(s * pt.phi))
        phase = 1.0 + 0.0j
        for _ in range(dm):
            phase *= base
        total += (v * sign / (4.0 * math.pi) * math.exp(0.5 * lg) * phase
                  * sw.radial_integral_I(i, j, dm, cos_t))
    return total.real


@_ANALYTIC_STATES
def test_ws_analytic_hoisted_terms_match_per_term_sum(n, state):
    lm = LmDensity.from_density(push_pure(n, state(n).amplitudes))
    points = _grid_points()
    assert [sw.ws_analytic(lm, pt) for pt in points] == [
        _ws_analytic_per_term(lm, pt) for pt in points]


def test_rotation_about_z_shifts_azimuth():
    n = 3
    psi = sw.spin_coherent(n, 1.1, 0.3)
    chi = 0.83
    u = expm(1j * chi * sw.build_collective_spin(n, 3).matrix)
    om = omega(n)
    d0 = sw.push_density(om, psi.density)
    d1 = sw.push_density(om, u @ psi.density @ u.conj().T)
    thetas = np.linspace(0.1, 3.0, 7)
    phis = np.linspace(0.0, 6.2, 7)
    t, p = np.meshgrid(thetas, phis, indexing="ij")
    rotated = sw.ws_numeric_many(d1, t.ravel(), p.ravel())
    shifted = sw.ws_numeric_many(d0, t.ravel(), (p + chi).ravel())
    assert np.max(np.abs(rotated - shifted)) <= 1e-8
