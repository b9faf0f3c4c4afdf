from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

import spinwigner as sw
from spinwigner.omega_map import OscillatorDensity

from helpers import (basis_vector, fock_index, omega, push_pure, reference_intertwining_residual,
                     reference_jordan_schwinger, singlet_vector)


def test_fock_enumeration():
    assert sw.fock_states(2) == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
    assert len(sw.fock_states(5)) == 21


def test_jordan_schwinger_diagonal():
    cutoff = 3
    j3 = sw.jordan_schwinger(cutoff, 3)
    for i, (n1, n2) in enumerate(sw.fock_states(cutoff)):
        col = j3[:, i]
        expect = np.zeros_like(col)
        expect[i] = (n1 - n2) / 2.0
        assert np.allclose(col, expect, atol=1e-15)


def test_jordan_schwinger_casimir():
    cutoff = 3
    j2 = sw.jordan_schwinger_squared(cutoff)
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
    jp = sw.jordan_schwinger(cutoff, 1) + 1j * sw.jordan_schwinger(cutoff, 2)
    idx = fock_index(cutoff)
    v = np.zeros(len(idx), dtype=complex)
    v[idx[(0, 1)]] = 1.0
    out = jp @ v
    expect = np.zeros_like(v)
    expect[idx[(1, 0)]] = 1.0
    assert np.allclose(out, expect, atol=1e-14)


@pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
def test_jordan_schwinger_commutators(cutoff):
    j = [sw.jordan_schwinger(cutoff, ax) for ax in (1, 2, 3)]
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        comm = j[a] @ j[b] - j[b] @ j[a]
        assert np.max(np.abs(comm - 1j * j[c])) <= 1e-12


def test_jordan_schwinger_validation():
    with pytest.raises(sw.ValidationError):
        sw.jordan_schwinger(0, 3)
    with pytest.raises(sw.ValidationError):
        sw.jordan_schwinger(2, 4)


def test_omega_one_spin_mappings_exact():
    om = omega(1)
    idx = fock_index(1)
    img_up = om.coefficients @ basis_vector(1, 1)
    img_dn = om.coefficients @ basis_vector(1, 0)
    for img, target in ((img_up, (1, 0)), (img_dn, (0, 1))):
        expect = np.zeros(len(idx), dtype=complex)
        expect[idx[target]] = 1.0
        assert np.max(np.abs(img - expect)) <= 1e-12


def test_omega_two_spin_mappings_exact():
    om = omega(2)
    idx = fock_index(2)
    img = om.coefficients @ basis_vector(2, 0b11)
    expect = np.zeros(len(idx), dtype=complex)
    expect[idx[(2, 0)]] = 1.0
    assert np.max(np.abs(img - expect)) <= 1e-12

    img = om.coefficients @ singlet_vector()
    expect = np.zeros(len(idx), dtype=complex)
    expect[idx[(0, 0)]] = 1.0
    assert np.max(np.abs(img - expect)) <= 1e-12


def test_omega_all_up_mapping_exact():
    for n in (3, 5):
        om = omega(n)
        img = om.coefficients @ basis_vector(n, 2**n - 1)
        expect = np.zeros(len(sw.fock_states(n)), dtype=complex)
        expect[fock_index(n)[(n, 0)]] = 1.0
        assert np.max(np.abs(img - expect)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_omega_projection_and_intertwining(n):
    om = omega(n)
    g = om.gram()
    assert np.max(np.abs(g @ g - g)) <= 1e-12
    assert np.max(np.abs(g - g.conj().T)) <= 1e-12
    rank = int(np.sum(np.linalg.eigvalsh(g) > 0.5))
    assert rank == om.represented_rank
    assert sw.intertwining_residual(om) <= 1e-10


def test_omega_rank_three_spins():
    assert omega(3).represented_rank == 6


def test_omega_norm_preserving_on_outer_shell():
    for n in (2, 3, 4):
        basis = sw.decompose_angular_basis(n)
        om = omega(n)
        for v in basis.towers(n, 1)[0]:
            img = om.coefficients @ v
            assert abs(np.linalg.norm(img) - 1.0) <= 1e-10


@dataclass(frozen=True)
class _CorruptedBasis(sw.AngularBasis):
    """Applies ``corrupt`` to a copy of the towers of shell ``bad_l``."""

    bad_l: int
    corrupt: Callable[[np.ndarray], None]

    def towers(self, two_l, count):
        towers = super().towers(two_l, count)
        if two_l == self.bad_l:
            towers = towers.copy()
            self.corrupt(towers)
        return towers


def _negate_row_1(t):
    t[:, 1] *= -1.0


def _scale_row_2(t):
    t[:, 2] *= 1.001


def _swap_rows_0_1(t):
    t[:, [0, 1]] = t[:, [1, 0]]


def _nan_entry(t):
    t[0, 1, np.flatnonzero(t[0, 1])[0]] = np.nan


@pytest.mark.parametrize("n, bad_l, corrupt", [
    (2, 2, _negate_row_1),
    (5, 3, _scale_row_2),
    (4, 4, _swap_rows_0_1),
    (5, 1, _swap_rows_0_1),
    (3, 3, _nan_entry),
], ids=["negated-m0-row", "scaled-row", "swapped-outer-rows", "swapped-inner-rows", "nan-entry"])
def test_construct_omega_rejects_corrupted_basis(n, bad_l, corrupt):
    with pytest.raises(sw.NumericError):
        sw.construct_omega(_CorruptedBasis(n, bad_l, corrupt))


@pytest.mark.parametrize("n, mixing", [(n, None) for n in range(1, 11)]
                         + [(3, {1: np.array([[0.0, 1.0], [1.0, 0.0]])})])
def test_intertwining_residual_matches_dense_reference(n, mixing):
    om = sw.construct_omega(sw.decompose_angular_basis(n), shell_mixing=mixing)
    assert abs(sw.intertwining_residual(om) - reference_intertwining_residual(om)) <= 1e-14


def test_intertwining_residual_checks_totals_of_the_other_parity():
    # construct_omega leaves the odd totals of an n = 4 map empty; a row written
    # there must still count, although the check skips all-zero totals
    coeff = np.array(sw.construct_omega(sw.decompose_angular_basis(4)).coefficients)
    assert not coeff[1:3].any()
    coeff[1] = np.linspace(0.1, 1.6, 16)  # total 1, Fock row (0, 1)
    om = sw.OmegaMap(4, coeff)
    residual = sw.intertwining_residual(om)
    assert residual > 0.1
    assert abs(residual - reference_intertwining_residual(om)) <= 1e-14


@pytest.mark.parametrize("cutoff", range(1, 9))
@pytest.mark.parametrize("axis", [1, 2, 3])
def test_jordan_schwinger_matches_dense_bilinears(cutoff, axis):
    expect = reference_jordan_schwinger(cutoff, axis)
    assert np.max(np.abs(sw.jordan_schwinger(cutoff, axis) - expect)) <= 1e-15


def test_shell_mixing_selects_other_tower():
    basis = sw.decompose_angular_basis(3)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    om = sw.construct_omega(basis, shell_mixing={1: swap})
    assert sw.intertwining_residual(om) <= 1e-10
    g = om.gram()
    assert np.max(np.abs(g @ g - g)) <= 1e-12
    k0, k1 = basis.towers(1, 2)[:, 0]
    assert np.linalg.norm(om.coefficients @ k1) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(om.coefficients @ k0) <= 1e-12


def test_shell_mixing_validation():
    basis = sw.decompose_angular_basis(3)
    with pytest.raises(sw.ValidationError):
        sw.construct_omega(basis, shell_mixing={1: np.array([[1.0, 1.0], [0.0, 1.0]])})


def test_shell_mixing_must_match_the_shell():
    # shell 2l = 1 of three spins has two towers; shell 2l = 5 does not exist
    basis = sw.decompose_angular_basis(3)
    for mixing in ({1: np.eye(3)}, {1: np.eye(1)}, {5: np.eye(1)}):
        with pytest.raises(sw.ValidationError):
            sw.construct_omega(basis, shell_mixing=mixing)


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
    basis = sw.decompose_angular_basis(3)
    d = push_pure(3, basis.towers(1, 2)[1, 0])
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
    assert OscillatorDensity.from_fock_elements(2, e).commutes_with_s2
    e2 = np.zeros_like(e)
    e2[fock_index(2)[(2, 0)], fock_index(2)[(0, 0)]] = 1.0  # crosses shells
    assert not OscillatorDensity.from_fock_elements(2, e2).commutes_with_s2
