import tracemalloc

import numpy as np
import pytest

import spinwigner as sw

from helpers import (basis_vector, dense_jordan_schwinger, dense_jordan_schwinger_squared,
                     dense_map, dense_tower, fock_density, fock_index, omega, push_pure,
                     reference_intertwining_residual, reference_jordan_schwinger, singlet_vector)


def test_fock_enumeration():
    assert sw.fock_states(2) == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
    assert len(sw.fock_states(5)) == 21


def test_jordan_schwinger_diagonal():
    cutoff = 3
    j3 = dense_jordan_schwinger(cutoff, 3)
    for i, (n1, n2) in enumerate(sw.fock_states(cutoff)):
        col = j3[:, i]
        expect = np.zeros_like(col)
        expect[i] = (n1 - n2) / 2.0
        assert np.allclose(col, expect, atol=1e-15)


def test_jordan_schwinger_casimir():
    cutoff = 3
    j2 = dense_jordan_schwinger_squared(cutoff)
    idx = fock_index(cutoff)
    v = np.zeros(len(idx), dtype=complex)
    v[idx[(1, 0)]] = 1.0
    assert np.allclose(j2 @ v, 0.75 * v, atol=1e-14)
    for i, (n1, n2) in enumerate(sw.fock_states(cutoff)):
        l = (n1 + n2) / 2.0
        col = j2[:, i]
        assert abs(col[i] - l * (l + 1)) <= 1e-13
        assert np.max(np.abs(np.delete(col, i))) <= 1e-13


def test_jordan_schwinger_raise_transfers_quantum():
    cutoff = 2
    jp = dense_jordan_schwinger(cutoff, 1) + 1j * dense_jordan_schwinger(cutoff, 2)
    idx = fock_index(cutoff)
    v = np.zeros(len(idx), dtype=complex)
    v[idx[(0, 1)]] = 1.0
    out = jp @ v
    expect = np.zeros_like(v)
    expect[idx[(1, 0)]] = 1.0
    assert np.allclose(out, expect, atol=1e-14)


@pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
def test_jordan_schwinger_commutators(cutoff):
    j = [dense_jordan_schwinger(cutoff, ax) for ax in (1, 2, 3)]
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        comm = j[a] @ j[b] - j[b] @ j[a]
        assert np.max(np.abs(comm - 1j * j[c])) <= 1e-12


def test_omega_one_spin_mappings_exact():
    om = omega(1)
    idx = fock_index(1)
    img_up = dense_map(om) @ basis_vector(1, 1)
    img_dn = dense_map(om) @ basis_vector(1, 0)
    for img, target in ((img_up, (1, 0)), (img_dn, (0, 1))):
        expect = np.zeros(len(idx), dtype=complex)
        expect[idx[target]] = 1.0
        assert np.max(np.abs(img - expect)) <= 1e-12


def test_omega_two_spin_mappings_exact():
    om = omega(2)
    idx = fock_index(2)
    img = dense_map(om) @ basis_vector(2, 0b11)
    expect = np.zeros(len(idx), dtype=complex)
    expect[idx[(2, 0)]] = 1.0
    assert np.max(np.abs(img - expect)) <= 1e-12

    img = dense_map(om) @ singlet_vector()
    expect = np.zeros(len(idx), dtype=complex)
    expect[idx[(0, 0)]] = 1.0
    assert np.max(np.abs(img - expect)) <= 1e-12


def test_omega_all_up_mapping_exact():
    for n in (3, 5):
        om = omega(n)
        img = dense_map(om) @ basis_vector(n, 2**n - 1)
        expect = np.zeros(len(sw.fock_states(n)), dtype=complex)
        expect[fock_index(n)[(n, 0)]] = 1.0
        assert np.max(np.abs(img - expect)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_omega_projection_and_intertwining(n):
    om = omega(n)
    g = dense_map(om).T @ dense_map(om)
    assert np.max(np.abs(g @ g - g)) <= 1e-12
    assert np.max(np.abs(g - g.conj().T)) <= 1e-12
    rank = int(np.sum(np.linalg.eigvalsh(g) > 0.5))
    assert rank == sum(two_l + 1 for two_l in range(n, (n % 2) - 1, -2))
    assert sw.intertwining_residual(om) <= 1e-10


def test_omega_rank_three_spins():
    assert np.linalg.matrix_rank(dense_map(omega(3))) == 6


def test_omega_norm_preserving_on_outer_shell():
    for n in (2, 3, 4):
        basis = sw.decompose_angular_basis(n)
        om = omega(n)
        for v in basis.towers[n]:
            img = dense_map(om) @ v
            assert abs(np.linalg.norm(img) - 1.0) <= 1e-10


def _corrupted_basis(n, bad_l, corrupt):
    """The basis of n spins with ``corrupt`` applied to a copy of the tower of shell ``bad_l``."""
    towers = dict(sw.decompose_angular_basis(n).towers)
    towers[bad_l] = towers[bad_l].copy()
    corrupt(towers[bad_l])
    return sw.AngularBasis(n, towers)


def _negate_row_1(t):
    t[1] *= -1.0


def _scale_row_2(t):
    t[2] *= 1.001


def _swap_rows_0_1(t):
    t[[0, 1]] = t[[1, 0]]


def _nan_entry(t):
    t[1, np.flatnonzero(t[1])[0]] = np.nan


@pytest.mark.parametrize("n, bad_l, corrupt", [
    (2, 2, _negate_row_1),
    (5, 3, _scale_row_2),
    (4, 4, _swap_rows_0_1),
    (5, 1, _swap_rows_0_1),
    (3, 3, _nan_entry),
], ids=["negated-m0-row", "scaled-row", "swapped-outer-rows", "swapped-inner-rows", "nan-entry"])
def test_construct_omega_rejects_corrupted_basis(n, bad_l, corrupt):
    with pytest.raises(sw.NumericError):
        sw.construct_omega(_corrupted_basis(n, bad_l, corrupt))


def _tower_one_map(n):
    """OmegaMap that represents tower k = 1 of shell 2l = 1 instead of k = 0."""
    towers = dict(sw.construct_omega(sw.decompose_angular_basis(n)).towers)
    towers[1] = dense_tower(n, 1, 1)  # row s holds m = 1/2 - s, Fock state (1 - s, s)
    return sw.OmegaMap(n, towers)


@pytest.mark.parametrize("n, tower", [(n, None) for n in range(1, 11)] + [(3, 1)])
def test_intertwining_residual_matches_dense_reference(n, tower):
    om = sw.construct_omega(sw.decompose_angular_basis(n)) if tower is None else _tower_one_map(n)
    assert sw.intertwining_residual(om) <= 1e-10
    assert abs(sw.intertwining_residual(om) - reference_intertwining_residual(om)) <= 1e-14


def test_omega_coefficients_are_real_and_read_only():
    om = omega(3)
    for tower in om.towers.values():
        assert tower.dtype == np.float64 and not tower.flags.writeable
    given = np.array(om.towers[3])
    held = sw.OmegaMap(3, {3: given}).towers[3]
    assert np.array_equal(held, given) and not np.shares_memory(held, given)
    assert np.array_equal(sw.OmegaMap(3, {3: given.astype(complex)}).towers[3], given)
    for imag in (1e-300, np.nan):
        with pytest.raises(sw.ValidationError, match="imaginary"):
            sw.OmegaMap(3, {3: given + 1j * imag})
    with pytest.raises(TypeError):
        om.towers[3] = given


@pytest.mark.parametrize("total, shape", [(4, (5, 8)), (-1, (0, 8)), (1, (3, 8)), (1, (2, 4))])
def test_omega_map_refuses_a_total_or_shape_off_the_map(total, shape):
    with pytest.raises(sw.ValidationError):
        sw.OmegaMap(3, {total: np.zeros(shape)})


def test_intertwining_residual_checks_totals_of_the_other_parity():
    # construct_omega holds no odd total of an n = 4 map; a block held there
    # must still count
    towers = dict(sw.construct_omega(sw.decompose_angular_basis(4)).towers)
    assert 1 not in towers
    towers[1] = np.zeros((2, 16))
    towers[1][1] = np.linspace(0.1, 1.6, 16)  # total 1, Fock row (0, 1)
    om = sw.OmegaMap(4, towers)
    residual = sw.intertwining_residual(om)
    assert residual > 0.1
    assert abs(residual - reference_intertwining_residual(om)) <= 1e-14


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _dense_map_bytes(n):
    """Bytes of one real (Fock size, 2^n) map, 2.98 MB at n = 12."""
    return len(sw.fock_states(n)) * 2**n * 8


def test_construct_omega_at_twelve_spins_peaks_below_one_dense_map():
    basis = sw.decompose_angular_basis(12)
    assert _traced_peak(lambda: sw.construct_omega(basis)) < _dense_map_bytes(12)


def test_mixture_push_at_twelve_spins_peaks_below_one_dense_map():
    om = sw.construct_omega(sw.decompose_angular_basis(12))
    mix = sw.mixture([(0.5, sw.spin_coherent(12, 1.1, 0.4)), (0.5, sw.cat_state(12))])
    assert _traced_peak(lambda: sw.push_density(om, mix)) < _dense_map_bytes(12)


@pytest.mark.parametrize("n", [1, 4, 7, 12])
def test_construct_omega_shares_the_basis_towers(n):
    basis = sw.decompose_angular_basis(n)
    om = sw.construct_omega(basis)
    assert list(om.towers) == list(basis.towers)
    for total, tower in basis.towers.items():
        assert np.shares_memory(om.towers[total], tower)


@pytest.mark.parametrize("cutoff", range(1, 9))
@pytest.mark.parametrize("axis", [1, 2, 3])
def test_jordan_schwinger_matches_dense_bilinears(cutoff, axis):
    expect = reference_jordan_schwinger(cutoff, axis)
    assert np.max(np.abs(dense_jordan_schwinger(cutoff, axis) - expect)) <= 1e-15


def test_push_one_spin_up():
    d = push_pure(1, basis_vector(1, 1))
    idx = fock_index(1)[(1, 0)]
    expect = np.zeros_like(d.elements)
    expect[idx, idx] = 1.0
    assert np.max(np.abs(d.elements - expect)) <= 1e-14
    assert d.represented_trace == pytest.approx(1.0, abs=1e-10)
    assert d.commutes_with_s2


def test_push_singlet_projector():
    d = push_pure(2, singlet_vector())
    idx = fock_index(2)[(0, 0)]
    assert d.elements[idx, idx] == pytest.approx(1.0, abs=1e-12)
    assert np.sum(np.abs(d.elements) > 1e-12) == 1


def test_push_discarded_tower_gives_zero():
    d = push_pure(3, dense_tower(3, 1, 1)[0])
    assert np.max(np.abs(d.elements)) <= 1e-13
    assert abs(d.represented_trace) <= 1e-12


def test_push_linearity():
    om = omega(2)
    v1 = basis_vector(2, 0b11)
    v2 = singlet_vector()
    rho = 0.3 * np.outer(v1, v1.conj()) + 0.7 * np.outer(v2, v2.conj())
    mixed = sw.push_density(om, rho)
    parts = 0.3 * push_pure(2, v1).elements + 0.7 * push_pure(2, v2).elements
    assert np.max(np.abs(mixed.elements - parts)) <= 1e-14


def test_push_density_validation():
    om = omega(1)
    with pytest.raises(sw.ValidationError):
        sw.push_density(om, np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(sw.ValidationError):
        sw.push_density(om, np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue
    with pytest.raises(sw.ValidationError):
        sw.push_density(om, np.eye(2))  # trace 2
    with pytest.raises(sw.ValidationError):
        sw.push_density(om, np.eye(4) / 4.0)  # wrong dimension


def test_pushed_trace_stays_in_unit_interval():
    rng = np.random.default_rng(11)
    om = omega(3)
    for _ in range(5):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        d = sw.push_density(om, np.outer(v, v.conj()))
        assert -1e-12 <= d.represented_trace <= 1.0 + 1e-12


def test_pushed_hermitian_when_input_hermitian():
    rng = np.random.default_rng(12)
    om = omega(2)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    d = sw.push_density(om, rho)
    assert np.max(np.abs(d.elements - d.elements.conj().T)) <= 1e-12


def test_from_fock_elements_commutation_flag():
    size = len(sw.fock_states(2))
    e = np.zeros((size, size), dtype=complex)
    e[fock_index(2)[(1, 1)], fock_index(2)[(2, 0)]] = 1.0  # same total excitation
    assert fock_density(2, e).commutes_with_s2
    e2 = np.zeros_like(e)
    e2[fock_index(2)[(2, 0)], fock_index(2)[(0, 0)]] = 1.0  # crosses shells
    assert not fock_density(2, e2).commutes_with_s2
