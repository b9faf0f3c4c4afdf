import math

import numpy as np
import pytest

import spinwigner as sw

from helpers import basis_vector, dense_ladder, dense_spin, dense_spin_squared, omega


def test_fock_zero_is_all_down():
    st = sw.fock_state(5, 0)
    assert np.array_equal(st.amplitudes, basis_vector(5, 0))


def test_fock_one_matches_scaled_ladder():
    st = sw.fock_state(5, 1)
    manual = dense_ladder(5, True) @ basis_vector(5, 0) / math.sqrt(5.0)
    assert np.max(np.abs(st.amplitudes - manual)) <= 1e-14


def test_fock_two_normalization_prefactor():
    sp = dense_ladder(5, True)
    raised_twice = sp @ (sp @ basis_vector(5, 0))
    assert np.linalg.norm(raised_twice) == pytest.approx(math.sqrt(40.0), abs=1e-12)
    st = sw.fock_state(5, 2)
    assert np.max(np.abs(st.amplitudes - raised_twice / math.sqrt(40.0))) <= 1e-14


def test_fock_is_s3_eigenstate():
    for n, k in ((4, 1), (5, 3), (6, 6)):
        st = sw.fock_state(n, k)
        s3 = dense_spin(n, 3)
        m = k - n / 2.0
        assert np.max(np.abs(s3 @ st.amplitudes - m * st.amplitudes)) <= 1e-11


def test_fock_range_validation():
    with pytest.raises(sw.ValidationError):
        sw.fock_state(3, 4)
    with pytest.raises(sw.ValidationError):
        sw.fock_state(3, -1)


def test_spin_coherent_poles():
    n = 4
    assert np.allclose(sw.spin_coherent(n, 0.0, 1.23).amplitudes,
                       basis_vector(n, 2**n - 1), atol=1e-15)
    down = sw.spin_coherent(n, math.pi, 0.77).amplitudes
    overlap = abs(np.vdot(basis_vector(n, 0), down))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_spin_coherent_equator_single_spin():
    st = sw.spin_coherent(1, math.pi / 2.0, 0.0)
    expect = (basis_vector(1, 1) + basis_vector(1, 0)) / math.sqrt(2.0)
    assert np.max(np.abs(st.amplitudes - expect)) <= 1e-15


def test_spin_coherent_stays_in_outer_shell():
    for n in (2, 3, 5):
        st = sw.spin_coherent(n, 1.1, 2.2)
        s2 = dense_spin_squared(n)
        l = n / 2.0
        assert np.max(np.abs(s2 @ st.amplitudes - l * (l + 1) * st.amplitudes)) <= 1e-10


def test_cat_amplitudes():
    st = sw.cat_state(5)
    assert st.amplitudes[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert st.amplitudes[-1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert np.max(np.abs(st.amplitudes[1:-1])) == 0.0


def test_cat_single_spin_equals_coherent():
    a = sw.cat_state(1).amplitudes
    b = sw.spin_coherent(1, math.pi / 2.0, 0.0).amplitudes
    assert np.max(np.abs(a - b)) <= 1e-15


def test_cat_and_mixture_differ_off_diagonal_only():
    n = 4
    cat = sw.cat_state(n).density
    mix = sw.mixture([(0.5, sw.spin_coherent(n, 0.0, 0.0)),
                      (0.5, sw.spin_coherent(n, math.pi, 0.0))])
    diff = cat - mix
    assert np.max(np.abs(np.diagonal(diff))) <= 1e-14
    assert np.abs(diff[0, -1]) == pytest.approx(0.5, abs=1e-14)


def test_mixture_singleton_is_projector():
    psi = sw.spin_coherent(2, 0.4, 1.0)
    rho = sw.mixture([(1.0, psi)])
    assert np.max(np.abs(rho - psi.density)) <= 1e-15


def test_mixture_weight_validation():
    psi = sw.cat_state(2)
    with pytest.raises(sw.ValidationError):
        sw.mixture([(0.6, psi), (0.6, psi)])
    with pytest.raises(sw.ValidationError):
        sw.mixture([(-0.2, psi), (1.2, psi)])
    with pytest.raises(sw.ValidationError):
        sw.mixture([])


def test_mixture_reduced_function_is_linear():
    n = 5
    up = sw.spin_coherent(n, 0.0, 0.0)
    dn = sw.spin_coherent(n, math.pi, 0.0)
    om = omega(n)
    d_mix = sw.push_density(om, sw.mixture([(0.5, up), (0.5, dn)]))
    d_up = sw.push_density(om, up.density)
    d_dn = sw.push_density(om, dn.density)
    rng = np.random.default_rng(42)
    x = rng.uniform(-3, 3, size=(3, 30))
    mixed = sw.reduced_wigner_many(d_mix, *x)
    splits = 0.5 * (sw.reduced_wigner_many(d_up, *x) + sw.reduced_wigner_many(d_dn, *x))
    assert np.max(np.abs(mixed - splits)) <= 1e-12


def test_squeezed_zero_beta_is_identity():
    base = sw.spin_coherent(5, 0.0, 0.0)
    st = sw.squeezed_state(5, 0.0, base)
    assert abs(np.vdot(st.amplitudes, base.amplitudes) - 1.0) <= 1e-13


def test_squeezed_preserves_norm_and_shell():
    base = sw.spin_coherent(5, 0.0, 0.0)
    for beta in (0.1, 0.2, 0.15 + 0.1j):
        st = sw.squeezed_state(5, beta, base)
        assert abs(np.linalg.norm(st.amplitudes) - 1.0) <= 1e-12
        s2 = dense_spin_squared(5)
        l = 2.5
        assert np.max(np.abs(s2 @ st.amplitudes - l * (l + 1) * st.amplitudes)) <= 1e-10


def _variance(op: np.ndarray, vec: np.ndarray) -> float:
    mean = np.vdot(vec, op @ vec).real
    return float(np.vdot(vec, op @ (op @ vec)).real - mean * mean)


def test_squeezed_small_beta_squeezes_first_axis():
    n = 5
    base = sw.spin_coherent(n, 0.0, 0.0)
    s1 = dense_spin(n, 1)
    s2 = dense_spin(n, 2)
    coherent_var = n / 4.0
    st = sw.squeezed_state(n, 0.1, base)
    assert _variance(s1, st.amplitudes) < coherent_var
    assert _variance(s2, st.amplitudes) > coherent_var


def test_squeezed_base_mismatch():
    with pytest.raises(sw.ValidationError):
        sw.squeezed_state(4, 0.1, sw.spin_coherent(3, 0.0, 0.0))


def test_realize_state_and_operator():
    spec = sw.StateSpec("cat", 3)
    assert np.array_equal(sw.realize_state(spec).amplitudes, sw.cat_state(3).amplitudes)
    rho = sw.realize_operator(spec)
    assert np.max(np.abs(rho - sw.cat_state(3).density)) == 0.0

    mix_spec = sw.StateSpec("mixture", 2, components=(
        (0.5, sw.StateSpec("coherent", 2, theta=0.0, phi=0.0)),
        (0.5, sw.StateSpec("coherent", 2, theta=math.pi, phi=0.0)),
    ))
    with pytest.raises(sw.ValidationError):
        sw.realize_state(mix_spec)
    rho = sw.realize_operator(mix_spec)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    op_spec = sw.StateSpec("operator", 1, matrix=((0.0, 1.0), (0.0, 0.0)))
    mat = sw.realize_operator(op_spec)
    assert mat[0, 1] == 1.0
