import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre

import spinwigner as sw
from spinwigner.omega_map import OscillatorDensity
from spinwigner.reduced_space import hopf_forward_arrays, hopf_section_arrays

from helpers import basis_vector, nonreducible_two_spin_operator, omega, push_pure, singlet_vector

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


def test_reduced_refuses_nonreducible():
    d = sw.push_operator(omega(2), nonreducible_two_spin_operator())
    with pytest.raises(sw.ValidationError, match="commute"):
        sw.reduced_wigner_many(d, 1.0, 0.0, 0.0)


def test_wigner_constant_on_fibers_for_reducible():
    d = push_pure(2, basis_vector(2, 0b11))
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=3)
        q1, p1, q2, p2 = hopf_section_arrays(*x)
        t = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(t), math.sin(t)
        a = sw.wigner_4d_many(d, q1, p1, q2, p2)
        b = sw.wigner_4d_many(d, c * q1 + s * p1, -s * q1 + c * p1,
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
