import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import eval_genlaguerre

import spinwigner as sw
import spinwigner.sphere as sphere_mod
from spinwigner.sphere import LmDensity

from helpers import (basis_vector, dense_spin, dicke_coherent_density, fock_index, omega, push_pure,
                     singlet_vector)


def test_ws_singlet_is_uniform():
    d = push_pure(2, singlet_vector())
    for th, ph in ((0.0, 0.0), (1.1, 2.2), (math.pi / 2, 4.0), (math.pi, 0.3)):
        assert float(sw.ws_numeric_many(d, th, ph)) == pytest.approx(
            1.0 / (4.0 * math.pi), abs=1e-12)


def test_ws_one_spin_closed_form():
    # diagonal outer-shell value (1 + 2 cos(theta)) / 4 pi, from the radial
    # integrals of exp(-r) r and exp(-r) r^2
    d = push_pure(1, basis_vector(1, 1))
    for th in (0.0, 0.7, math.pi / 2, 2.5):
        expect = (1.0 + 2.0 * math.cos(th)) / (4.0 * math.pi)
        assert float(sw.ws_numeric_many(d, th, 1.0)) == pytest.approx(expect, abs=1e-12)


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
    assert float(sw.ws_numeric_many(d, 1.0, 1.0)) == 0.0


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
                    assert a == b


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
                    assert float(sw.ws_analytic(lm, th, ph)) == pytest.approx(
                        float(sw.ws_numeric_many(d, th, ph)), abs=1e-8)


def test_ws_analytic_diagonal_terms_azimuth_independent():
    n = 4
    d = push_pure(n, sw.fock_state(n, 2).amplitudes)
    lm = LmDensity.from_density(d)
    base = float(sw.ws_analytic(lm, 1.2, 0.0))
    for ph in (0.5, 2.0, 4.5):
        assert float(sw.ws_analytic(lm, 1.2, ph)) == pytest.approx(base, abs=1e-14)


def test_ws_analytic_refuses_cross_shell_terms():
    mixed = (basis_vector(2, 0b11) + singlet_vector()) / math.sqrt(2.0)
    d = sw.push_operator(omega(2), np.outer(mixed, mixed.conj()))
    lm = LmDensity.from_density(d)
    with pytest.raises(sw.ValidationError, match="cross-shell"):
        sw.ws_analytic(lm, 1.0, 1.0)


def _relabel_per_element(density):
    """Kept elements relabelled one at a time: {(2l, a, a'): value} and the
    cross-shell tuples in row-major order."""
    e = density.elements
    kept = np.abs(e) > 1e-13 * max(1.0, np.abs(e).max())
    states = sw.fock_states(density.n)
    same, cross = {}, []
    for f, g in zip(*np.nonzero(kept)):
        (a, b), (c, d) = states[f], states[g]
        if a + b == c + d:
            same[(a + b, a, c)] = e[f, g]
        else:
            cross.append((a + b, a - b, c + d, c - d, complex(e[f, g])))
    return same, tuple(cross)


@pytest.mark.parametrize("make", [
    lambda: push_pure(5, sw.spin_coherent(5, 1.1, 0.4).amplitudes),
    lambda: push_pure(6, sw.squeezed_state(6, 0.2 + 0.1j, sw.spin_coherent(6, 0.8, 2.0)).amplitudes),
    lambda: sw.push_operator(omega(3), np.random.default_rng(5).normal(size=(8, 8))),
    lambda: sw.OscillatorDensity.from_fock_elements(
        4, np.random.default_rng(6).normal(size=(15, 15)) * np.logspace(-16, 0, 15)),
], ids=["coherent-5", "squeezed-6", "operator-3", "raw-fock-4"])
def test_lm_blocks_are_the_cut_diagonal_fock_blocks(make):
    d = make()
    lm = LmDensity.from_density(d)
    same, cross = _relabel_per_element(d)
    assert lm.cross_shell == cross
    for two_l in range(d.n + 1):
        expect = np.zeros((two_l + 1, two_l + 1), dtype=complex)
        for (tl, a, ap), v in same.items():
            if tl == two_l:
                expect[a, ap] = v
        if not expect.any():
            assert two_l not in lm.same_shell
            continue
        block = lm.same_shell[two_l]
        assert block.dtype == complex and not block.flags.writeable
        assert np.array_equal(block, expect)
    if cross:
        with pytest.raises(sw.ValidationError) as err:
            sw.ws_analytic(lm, 1.0, 1.0)
        labels = ", ".join(f"|l={tl/2:g},m={tm/2:g}><l={bl/2:g},m={bm/2:g}|"
                           for tl, tm, bl, bm, _ in cross[:8])
        more = f", and {len(cross) - 8} more" if len(cross) > 8 else ""
        assert str(err.value) == (f"no closed spherical form for cross-shell coherences: "
                                  f"{labels}{more}; use the numeric route for these terms")


def test_lm_cross_shell_entries_by_hand():
    # |0,0> <-> |1,1> couples shell 0 with shell 2; the 1e-15 entry is below the cut
    e = np.zeros((6, 6), dtype=complex)
    e[0, 4], e[4, 0], e[3, 5] = 0.5j, -0.5j, 1e-15
    e[3, 3] = e[5, 5] = 1.0
    lm = LmDensity.from_density(sw.OscillatorDensity.from_fock_elements(2, e))
    assert lm.cross_shell == ((0, 0, 2, 0, 0.5j), (2, 0, 0, 0, -0.5j))
    assert list(lm.same_shell) == [2]
    assert np.array_equal(lm.same_shell[2], np.diag([1.0, 0.0, 1.0]))
    with pytest.raises(sw.ValidationError, match=re.escape(
            "cross-shell coherences: |l=0,m=0><l=1,m=0|, |l=1,m=0><l=0,m=0|; use the numeric")):
        sw.ws_analytic(lm, 1.0, 1.0)


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
    towers = sw.decompose_angular_basis(n).towers
    om = omega(n)
    rng = np.random.default_rng(30 + n)
    shell_states = []
    for two_l in (n, n - 2):
        tower = towers[two_l]
        coeff = rng.normal(size=len(tower)) + 1j * rng.normal(size=len(tower))
        coeff /= np.linalg.norm(coeff)
        shell_states.append(sum(c * v for c, v in zip(coeff, tower)))
    for vec in shell_states:
        d = sw.push_density(om, np.outer(vec, vec.conj()))
        assert d.represented_trace == pytest.approx(1.0, abs=1e-10)
        assert sw.sphere_normalization(d) == pytest.approx(1.0, abs=1e-8)
    blend = 0.4 * np.outer(shell_states[0], shell_states[0].conj()) \
        + 0.6 * np.outer(shell_states[1], shell_states[1].conj())
    d = sw.push_density(om, blend)
    assert sw.sphere_normalization(d) == pytest.approx(1.0, abs=1e-8)


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


def _angular_rule(d, n_theta, n_phi):
    """Sphere integral of ws_numeric_many by an explicit Gauss-Legendre x
    uniform-azimuth rule."""
    cos_nodes, cos_weights = np.polynomial.legendre.leggauss(n_theta)
    t, p = np.meshgrid(np.arccos(cos_nodes), np.arange(n_phi) * (2.0 * math.pi / n_phi),
                       indexing="ij")
    vals = sw.ws_numeric_many(d, t, p)
    return float(np.sum(vals.sum(axis=1) * cos_weights) * (2.0 * math.pi / n_phi))


@pytest.mark.parametrize("n", range(1, 11))
def test_derived_normalization_rule_matches_dense_rule(n):
    # the sphere integral equals the represented trace for operators that
    # commute with total spin squared, so the exact rule must reproduce it
    for d in _family_densities(n):
        assert sw.sphere_normalization(d) == pytest.approx(d.represented_trace, abs=1e-12)
        # the full (n//2 + 1) x (n + 1) angular rule gives the same value
        assert sw.sphere_normalization(d) == pytest.approx(_angular_rule(d, n // 2 + 1, n + 1),
                                                           abs=1e-13)


def _random_hermitian(n, seed):
    size = len(sw.fock_states(n))
    a = np.random.default_rng(seed).normal(size=(size, size, 2)) @ [1.0, 1.0j]
    return a + a.conj().T


@pytest.mark.parametrize("n, elements", [
    (12, lambda n: dicke_coherent_density(n).elements),
    (3, lambda n: _random_hermitian(n, 31)),
    (6, lambda n: _random_hermitian(n, 32)),
], ids=["dicke-coherent-12", "random-3", "random-6"])
def test_normalization_reads_only_the_fock_diagonal(n, elements):
    # every off-diagonal element integrates to zero over the azimuths, so
    # tripling the off-diagonal part or replacing it leaves the value bit for bit
    e = elements(n)
    diagonal = np.diag(np.diag(e))
    noise = _random_hermitian(n, 40 + n)
    exact = sw.sphere_normalization(sw.OscillatorDensity.from_fock_elements(n, e))
    for off in (3.0 * (e - diagonal), noise - np.diag(np.diag(noise))):
        d = sw.OscillatorDensity.from_fock_elements(n, diagonal + off)
        assert sw.sphere_normalization(d) == exact


@pytest.mark.parametrize("n", range(1, 11))
def test_default_radial_nodes_match_wider_rule(n):
    # every family is same-shell, so the closed form is the exact reference
    # for the (n + 3) // 2 node radial rule
    t, p = np.meshgrid(np.linspace(0.0, math.pi, 7), np.linspace(0.0, 2.0 * math.pi, 9),
                       indexing="ij")
    for d in _family_densities(n):
        exact = sw.ws_analytic(LmDensity.from_density(d), t.ravel(), p.ravel())
        assert np.max(np.abs(sw.ws_numeric_many(d, t.ravel(), p.ravel()) - exact)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 11, 12])
def test_derived_normalization_rule_random_block_diagonal(n):
    d = _random_block_diagonal(n, np.random.default_rng(70 + n))
    derived = sw.sphere_normalization(d)
    assert derived == pytest.approx(d.represented_trace, abs=1e-12)
    assert derived == pytest.approx(1.0, abs=1e-8)


def test_derived_normalization_rule_is_tight():
    # one azimuth fewer than the derived n + 1 aliases the cos(n phi)
    # fringe of the cat state onto the constant term
    n = 4
    d = push_pure(n, sw.cat_state(n).amplitudes)
    exact = sw.sphere_normalization(d)
    assert _angular_rule(d, n // 2 + 1, n + 1) == pytest.approx(exact, abs=1e-12)
    assert abs(_angular_rule(d, n // 2 + 1, n) - exact) > 1e-3


_ANALYTIC_STATES = pytest.mark.parametrize("n, state", [
    (5, lambda n: sw.spin_coherent(n, 1.1, 0.4)),
    (6, lambda n: sw.squeezed_state(n, 0.2 + 0.1j, sw.spin_coherent(n, 0.8, 2.0))),
], ids=["coherent-5", "squeezed-6"])


def _grid_angles():
    # 16 x 31 directions, theta = 0 and pi included
    t, p = np.meshgrid(np.linspace(0.0, math.pi, 16), np.linspace(0.0, 2.0 * math.pi, 31),
                       indexing="ij")
    return t.ravel(), p.ravel()


@_ANALYTIC_STATES
def test_ws_analytic_radial_reuse_is_exact(n, state, monkeypatch):
    lm = LmDensity.from_density(push_pure(n, state(n).amplitudes))
    theta, phi = _grid_angles()
    calls = []

    def counted(*key):
        calls.append(key)
        return sw.radial_integral_I(*key)

    monkeypatch.setattr(sphere_mod, "radial_integral_I", counted)
    reused = sw.ws_analytic(lm, theta, phi)
    # the radial factors at the pole are integers (see the test below)
    assert calls == []
    monkeypatch.setattr(sphere_mod, "radial_integral_I", sw.radial_integral_I)
    assert reused.tolist() == [float(sw.ws_analytic(lm, t, p)) for t, p in zip(theta, phi)]


def test_pole_radial_factor_is_an_integer():
    # ws_analytic takes delta_m(l) from this identity instead of the series
    for two_l in (6, 12, 40, 100):
        for a in range(two_l + 1):
            assert sw.radial_integral_I(two_l - a, a, 0, 1.0) == (-1) ** a * (2 * a + 1)


def _ws_analytic_per_term(lm, theta, phi):
    """Closed-form sum recomputing every factor per term and point."""
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    phi = phi % (2.0 * math.pi)
    total = 0.0 + 0.0j
    terms = [(two_l, 2 * a - two_l, 2 * ap - two_l, v)  # row a of block 2l holds m = a - l
             for two_l, block in lm.same_shell.items()
             for (a, ap), v in np.ndenumerate(block) if v]
    for two_l, two_m, two_mp, v in terms:
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
        base = -sin_t * complex(math.cos(s * phi), math.sin(s * phi))
        phase = 1.0 + 0.0j
        for _ in range(dm):
            phase *= base
        total += (v * sign / (4.0 * math.pi) * math.exp(0.5 * lg) * phase
                  * sw.radial_integral_I(i, j, dm, cos_t))
    return total.real


@_ANALYTIC_STATES
def test_ws_analytic_hoisted_terms_match_per_term_sum(n, state):
    lm = LmDensity.from_density(push_pure(n, state(n).amplitudes))
    theta, phi = _grid_angles()
    expect = np.array([_ws_analytic_per_term(lm, t, p)
                       for t, p in zip(theta.tolist(), phi.tolist())])
    gap = np.max(np.abs(sw.ws_analytic(lm, theta, phi) - expect))
    assert gap <= 1e-14 * np.max(np.abs(expect))


def _block_density(n, total, block):
    """Fock density holding ``block`` on the rows (k, total - k), k = 0..total."""
    idx = fock_index(n)
    rows = [idx[(k, total - k)] for k in range(total + 1)]
    e = np.zeros((len(idx), len(idx)), dtype=complex)
    e[np.ix_(rows, rows)] = block
    return sw.OscillatorDensity.from_fock_elements(n, e)


def test_ws_analytic_at_forty_spins():
    n = 40
    t, p = np.meshgrid([0.0, 0.4, 1.3, math.pi / 2, 2.9, math.pi, -5.0],
                       [0.0, 1.1, 4.0, 17.0], indexing="ij")
    # the identity on a shell integrates to its dimension and is isotropic
    for total in (0, 1, 7, 20, 40):
        lm = LmDensity.from_density(_block_density(n, total, np.eye(total + 1)))
        expect = (total + 1) / (4.0 * math.pi)
        assert np.max(np.abs(sw.ws_analytic(lm, t, p) - expect)) <= 1e-13 * expect
    k = np.arange(n + 1)
    binom = np.array([math.comb(n, int(j)) for j in k], dtype=float)
    amp = np.sqrt(binom) * np.cos(0.35) ** k * (np.exp(0.8j) * np.sin(0.35)) ** (n - k)
    d = _block_density(n, n, np.outer(amp, amp.conj()))
    lm = LmDensity.from_density(d)
    tt, pp = np.array([0.2, 0.7, 1.0, 2.0, 3.0]), np.array([0.8, 0.5, 3.5, 0.8, 6.0])
    exact = sw.ws_analytic(lm, tt, pp)
    assert np.max(np.abs(exact - sw.ws_numeric_many(d, tt, pp))) <= 1e-12 * np.max(np.abs(exact))
    # the exact (n//2 + 1) x (n + 1) angular rule of the sphere integral
    cos_nodes, cos_weights = np.polynomial.legendre.leggauss(n // 2 + 1)
    phis = np.arange(n + 1) * (2.0 * math.pi / (n + 1))
    vals = sw.ws_analytic(lm, np.arccos(cos_nodes)[:, None], phis[None, :])
    assert np.sum(vals.sum(axis=1) * cos_weights) * (2.0 * math.pi / (n + 1)) == pytest.approx(
        1.0, abs=1e-10)


@pytest.mark.parametrize("n, state", [
    (5, lambda n: sw.spin_coherent(n, 1.1, 0.4)),
    (6, lambda n: sw.squeezed_state(n, 0.2 + 0.1j, sw.spin_coherent(n, 0.8, 2.0))),
    (4, lambda n: sw.fock_state(n, 2)),
], ids=["coherent-5", "squeezed-6", "fock-4"])
def test_sphere_routes_agree_at_any_finite_angles(n, state):
    # outside [0, pi] x [0, 2 pi) the angles still name the direction
    # (sin theta cos phi, sin theta sin phi, cos theta) for both routes
    d = push_pure(n, state(n).amplitudes)
    lm = LmDensity.from_density(d)
    t, p = np.meshgrid([-0.4, math.pi + 0.3, 7.0], [-20.0, 9.5, 13.0], indexing="ij")
    assert np.max(np.abs(sw.ws_analytic(lm, t, p) - sw.ws_numeric_many(d, t, p))) <= 1e-8
    assert sw.ws_analytic(lm, 0.3, 1.0).shape == ()
    t, p = np.linspace(0.1, 3.0, 5)[:, None], np.linspace(0.0, 6.0, 5)[None, :]
    got = sw.ws_analytic(lm, t, p)
    assert got.shape == (5, 5)
    assert np.max(np.abs(got - sw.ws_numeric_many(d, t, p))) <= 1e-8


def test_rotation_about_z_shifts_azimuth():
    n = 3
    psi = sw.spin_coherent(n, 1.1, 0.3)
    chi = 0.83
    u = expm(1j * chi * dense_spin(n, 3))
    om = omega(n)
    d0 = sw.push_density(om, psi.density)
    d1 = sw.push_density(om, u @ psi.density @ u.conj().T)
    thetas = np.linspace(0.1, 3.0, 7)
    phis = np.linspace(0.0, 6.2, 7)
    t, p = np.meshgrid(thetas, phis, indexing="ij")
    rotated = sw.ws_numeric_many(d1, t.ravel(), p.ravel())
    shifted = sw.ws_numeric_many(d0, t.ravel(), (p + chi).ravel())
    assert np.max(np.abs(rotated - shifted)) <= 1e-8
