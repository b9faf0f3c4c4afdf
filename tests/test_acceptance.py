"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are pinned here and nowhere else.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

import spinwigner as sw
from spinwigner.cli import main
from spinwigner.omega_map import OscillatorDensity
from spinwigner.sphere import LmDensity

from helpers import (basis_vector, dense_jordan_schwinger, dense_map, dense_spin,
                     dense_spin_squared, fock_index, nonreducible_two_spin_operator, omega,
                     oracle_wigner_integral, push_pure, singlet_vector)


def _report(num: int, text: str, started: float) -> None:
    print(f"ACCEPTANCE {num} PASS ({time.perf_counter() - started:.2f}s): {text}")


def test_criterion_01_algebra_suite():
    started = time.perf_counter()
    for n in range(1, 7):
        s = [dense_spin(n, ax) for ax in (1, 2, 3)]
        s2 = dense_spin_squared(n)
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            assert np.max(np.abs(s[a] @ s[b] - s[b] @ s[a] - 1j * s[c])) <= 1e-12
        for m in s:
            assert np.max(np.abs(s2 @ m - m @ s2)) <= 1e-12
        j = [dense_jordan_schwinger(n, ax) for ax in (1, 2, 3)]
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            assert np.max(np.abs(j[a] @ j[b] - j[b] @ j[a] - 1j * j[c])) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(1, "su(2), Casimir and two-mode commutators <= 1e-12 for n <= 6", started)


def test_criterion_02_embedding_correctness():
    started = time.perf_counter()
    # one spin: |up> -> |10>, |down> -> |01>
    om1 = omega(1)
    idx1 = fock_index(1)
    for col, pair in ((1, (1, 0)), (0, (0, 1))):
        img = dense_map(om1) @ basis_vector(1, col)
        expect = np.zeros(len(idx1), dtype=complex)
        expect[idx1[pair]] = 1.0
        assert np.max(np.abs(img - expect)) <= 1e-12

    # two spins: |uu> -> |20>, ladder descent, singlet -> |00>
    om2 = omega(2)
    idx2 = fock_index(2)
    sym = (basis_vector(2, 0b10) + basis_vector(2, 0b01)) / math.sqrt(2.0)
    cases = [
        (basis_vector(2, 0b11), (2, 0)),
        (sym, (1, 1)),
        (basis_vector(2, 0b00), (0, 2)),
        (singlet_vector(), (0, 0)),
    ]
    for vec, pair in cases:
        img = dense_map(om2) @ vec
        expect = np.zeros(len(idx2), dtype=complex)
        expect[idx2[pair]] = 1.0
        assert np.max(np.abs(img - expect)) <= 1e-12

    # three spins: top of the outer shell, projection, rank and intertwining
    om3 = omega(3)
    idx3 = fock_index(3)
    img = dense_map(om3) @ basis_vector(3, 0b111)
    expect = np.zeros(len(idx3), dtype=complex)
    expect[idx3[(3, 0)]] = 1.0
    assert np.max(np.abs(img - expect)) <= 1e-12

    for om in (om1, om2, om3):
        g = dense_map(om).T @ dense_map(om)
        assert np.max(np.abs(g @ g - g)) <= 1e-12
        assert sw.intertwining_residual(om) <= 1e-10
    rank3 = int(np.sum(np.linalg.eigvalsh(dense_map(om3).T @ dense_map(om3)) > 0.5))
    assert rank3 == 4 + 2
    _report(2, "embedding mappings exact; projector idempotent; rank(n=3) = 6", started)


def _grid_125():
    ax = np.linspace(-4.0, 4.0, 5)
    g = np.meshgrid(ax, ax, ax, indexing="ij")
    return [c.ravel() for c in g]


def test_criterion_03_closed_form_tables():
    started = time.perf_counter()
    x1, x2, x3 = _grid_125()
    r = np.sqrt(x1**2 + x2**2 + x3**2)

    # two spins: the four reduced closed forms
    sym = (basis_vector(2, 0b10) + basis_vector(2, 0b01)) / math.sqrt(2.0)
    two_spin = [
        (basis_vector(2, 0b11), np.exp(-r) / math.pi**2 * eval_genlaguerre(2, 0, r + x3)),
        (sym, np.exp(-r) / math.pi**2
         * eval_genlaguerre(1, 0, r + x3) * eval_genlaguerre(1, 0, r - x3)),
        (basis_vector(2, 0b00), np.exp(-r) / math.pi**2 * eval_genlaguerre(2, 0, r - x3)),
        (singlet_vector(), np.exp(-r) / math.pi**2),
    ]
    for vec, expect in two_spin:
        vals = sw.reduced_wigner_many(push_pure(2, vec), x1, x2, x3)
        assert np.max(np.abs(vals - expect)) <= 1e-9

    # outer-shell families for three, four and five spins
    for n in (3, 4, 5):
        om = omega(n)
        sign = (-1.0) ** n
        up = basis_vector(n, 2**n - 1)
        dn = basis_vector(n, 0)
        vals = sw.reduced_wigner_many(push_pure(n, up), x1, x2, x3)
        assert np.max(np.abs(vals - sign * np.exp(-r) / math.pi**2
                             * eval_genlaguerre(n, 0, r + x3))) <= 1e-9
        vals = sw.reduced_wigner_many(push_pure(n, dn), x1, x2, x3)
        assert np.max(np.abs(vals - sign * np.exp(-r) / math.pi**2
                             * eval_genlaguerre(n, 0, r - x3))) <= 1e-9
        cross = np.outer(up, dn.conj()) + np.outer(dn, up.conj())
        vals = sw.reduced_wigner_many(sw.push_operator(om, cross), x1, x2, x3)
        expect = (np.exp(-r) / (math.pi**2 * math.factorial(n))
                  * ((x1 + 1j * x2) ** n + (x1 - 1j * x2) ** n).real)
        assert np.max(np.abs(vals - expect)) <= 1e-9

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(3, "all seven closed-form rows match on 125-point grids within 1e-9", started)


def test_criterion_04_one_spin_reduced_form():
    started = time.perf_counter()
    d = push_pure(1, basis_vector(1, 1))
    rng = np.random.default_rng(104)
    pts = rng.uniform(-4.0, 4.0, size=(100, 3))
    r = np.linalg.norm(pts, axis=1)
    vals = sw.reduced_wigner_many(d, pts[:, 0], pts[:, 1], pts[:, 2])
    expect = -np.exp(-r) / math.pi**2 * (1.0 - (pts[:, 2] + r))
    assert np.max(np.abs(vals - expect)) <= 1e-10
    _report(4, "one-spin reduced function matches its closed form at 100 points", started)


def test_criterion_05_nonreducible_operator():
    started = time.perf_counter()
    d = sw.push_operator(omega(2), nonreducible_two_spin_operator())
    rng = np.random.default_rng(105)
    pts = rng.uniform(-2.0, 2.0, size=(50, 4))
    for q1, p1, q2, p2 in pts:
        r = q1 * q1 + p1 * p1 + q2 * q2 + p2 * p2
        expect = math.sqrt(2.0) / math.pi**2 * math.exp(-r) * (q1 - 1j * p1) ** 2
        got = complex(sw.wigner_complex_many(d, q1, p1, q2, p2))
        assert abs(got.real - expect.real) <= 1e-10
    assert sw.check_fiber_invariance(d, 100) > 1e-3
    _report(5, "coherence operator matches its closed form; fiber invariance broken", started)


def test_criterion_06_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(106)
    for n in (1, 2, 3):
        states = [basis_vector(n, 2**n - 1),
                  sw.fock_state(n, n // 2).amplitudes,
                  sw.cat_state(n).amplitudes]
        for _ in range(2):
            v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            states.append(v / np.linalg.norm(v))
        for vec in states:
            d = push_pure(n, np.asarray(vec))
            for _ in range(20):
                pt = rng.uniform(-2.5, 2.5, size=4)
                assert abs(float(sw.wigner_4d_many(d, *pt))
                           - oracle_wigner_integral(d, *pt)) <= 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(6, "Moyal sums match the defining integral at 20 points per state, n <= 3", started)


def _laguerre_coefficients(n, alpha, scale):
    """Exact monomial coefficients of L_n^alpha(scale * r) in r."""
    return [Fraction((-1) ** k * math.comb(n + alpha, n - k), math.factorial(k)) * scale**k
            for k in range(n + 1)]


def _radial_integral_exact(i, j, alpha, c):
    """The defining radial integral in exact rationals, rounded once.

    Both Laguerre factors are expanded into monomials of r with c taken as
    the exact value of the float, and each term integrates by
    integral_0^inf exp(-r) r^k dr = k!; no Gauss series is involved.
    """
    cf = Fraction(c)
    total = Fraction(0)
    for k, a in enumerate(_laguerre_coefficients(j, alpha, 1 + cf)):
        for m, b in enumerate(_laguerre_coefficients(i, alpha, 1 - cf)):
            total += a * b * math.factorial(k + m + 1 + alpha)
    return float(total)


def test_criterion_07_radial_integrals_and_analytic_sphere():
    started = time.perf_counter()
    for i in range(6):
        for j in range(6):
            for alpha in range(5):
                for c in (-0.9, -0.3, 0.0, 0.3, 0.9):
                    closed = sw.radial_integral_I(i, j, alpha, c)
                    assert abs(closed - _radial_integral_exact(i, j, alpha, c)) <= 1e-9

    # closed-form spherical function against radial quadrature for every
    # outer-shell basis operator; coherences are probed through their
    # Hermitian and anti-Hermitian combinations, which pin both components
    thetas = np.linspace(0.0, math.pi, 16)
    phis = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    for n in range(1, 6):
        size = len(sw.fock_states(n))
        idx = fock_index(n)
        for a in range(n + 1):
            for b in range(a, n + 1):
                e = np.zeros((size, size), dtype=complex)
                e[idx[(a, n - a)], idx[(b, n - b)]] = 1.0
                combos = [e] if a == b else [e + e.conj().T, 1j * (e - e.conj().T)]
                for mat in combos:
                    d = OscillatorDensity.from_fock_elements(n, mat)
                    lm = LmDensity.from_density(d)
                    numeric = sw.ws_numeric_many(d, tt, pp)
                    assert np.max(np.abs(sw.ws_analytic(lm, tt, pp) - numeric)) <= 1e-8
    _report(7, "radial closed forms within 1e-9 of exact monomial integration; "
               "spherical closed forms within 1e-8 of radial quadrature, n <= 5", started)


def test_criterion_08_sphere_normalization():
    started = time.perf_counter()
    densities = [push_pure(1, basis_vector(1, 1)), push_pure(2, singlet_vector())]
    for k in range(6):
        densities.append(push_pure(5, sw.fock_state(5, k).amplitudes))
    densities.append(push_pure(5, sw.cat_state(5).amplitudes))
    base = sw.spin_coherent(5, 0.0, 0.0)
    for beta in (0.1, 0.2):
        densities.append(push_pure(5, sw.squeezed_state(5, beta, base).amplitudes))
    for d in densities:
        assert sw.sphere_normalization(d) == pytest.approx(1.0, abs=1e-8)
    _report(8, "sphere integrals equal 1 within 1e-8 for all listed states", started)


def test_criterion_09_interference_fringe_count():
    started = time.perf_counter()
    n = 5
    om = omega(n)
    d_cat = sw.push_density(om, sw.cat_state(n).density)
    d_mix = sw.push_density(om, sw.mixture([
        (0.5, sw.spin_coherent(n, 0.0, 0.0)),
        (0.5, sw.spin_coherent(n, math.pi, 0.0)),
    ]))
    phis = np.arange(256) * 2.0 * math.pi / 256.0
    eq = np.full_like(phis, math.pi / 2.0)
    diff = sw.ws_numeric_many(d_cat, eq, phis) - sw.ws_numeric_many(d_mix, eq, phis)
    signs = np.sign(diff)
    assert np.all(signs != 0)
    changes = int(np.sum(signs[1:] != signs[:-1]))
    assert changes == 2 * n
    _report(9, "equatorial interference signal has exactly 10 sign changes", started)


def test_criterion_10_squeezing_behaviour():
    started = time.perf_counter()
    n = 5
    base = sw.spin_coherent(n, 0.0, 0.0)
    s1 = dense_spin(n, 1)
    s2 = dense_spin(n, 2)

    def variance(op, vec):
        mean = np.vdot(vec, op @ vec).real
        return float(np.vdot(vec, op @ (op @ vec)).real - mean * mean)

    reference = n / 4.0
    assert variance(s1, base.amplitudes) == pytest.approx(reference, abs=1e-12)
    squeezed = sw.squeezed_state(n, 0.1, base)
    assert variance(s1, squeezed.amplitudes) < reference
    assert variance(s2, squeezed.amplitudes) > reference

    om = omega(n)
    thetas = np.linspace(0.0, math.pi, 16)
    phis = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    grids = []
    for beta in (0.1, 0.2):
        d = push_pure(n, sw.squeezed_state(n, beta, base).amplitudes)
        grids.append(sw.ws_numeric_many(d, tt.ravel(), pp.ravel()))
    assert np.max(np.abs(grids[0] - grids[1])) > 0.01
    _report(10, "small squeezing narrows Var(S1), widens Var(S2); "
                "beta 0.1 and 0.2 spherical grids differ", started)


def test_criterion_11_cli_determinism(tmp_path):
    started = time.perf_counter()
    cat = tmp_path / "cat.txt"
    cat.write_text("kind cat\nspins 5\n")
    fock = tmp_path / "fock.txt"
    fock.write_text("kind fock\nspins 5\nexcitations 1\n")

    def run_all(tag):
        blobs = []
        vol = tmp_path / f"vol_{tag}.csv"
        assert main(["volume", "--state", str(cat), "--grid",
                     "x1:-3:3:5,x2:-3:3:5,x3:-3:3:5", "--out", str(vol)]) == 0
        blobs.append(vol.read_bytes())
        sph = tmp_path / f"sph_{tag}.csv"
        assert main(["sphere", "--state", str(fock), "--grid",
                     "theta:0:3.141592653589793:8,phi:0:6.283185307179586:16",
                     "--out", str(sph), "--method", "both"]) == 0
        blobs.append(sph.read_bytes())
        assert main(["check", "--state", str(cat)]) == 0
        return blobs

    assert run_all("first") == run_all("second")
    _report(11, "repeated CLI runs produce byte-identical data files", started)
