import numpy as np
import pytest

import spinwigner as sw
from spinwigner.errors import CapacityError

from helpers import (basis_vector, dense_highest_weights, dense_ladder, dense_spin,
                     dense_spin_squared, dense_tower)


def test_single_spin_s3_is_half_pauli():
    s3 = dense_spin(1, 3)
    up = basis_vector(1, 1)
    down = basis_vector(1, 0)
    assert np.allclose(s3 @ up, 0.5 * up, atol=1e-15)
    assert np.allclose(s3 @ down, -0.5 * down, atol=1e-15)


def test_two_spin_all_up_has_unit_s3():
    s3 = dense_spin(2, 3)
    v = basis_vector(2, 0b11)
    assert np.allclose(s3 @ v, 1.0 * v, atol=1e-15)


def test_three_spin_all_up_has_three_halves_s3():
    s3 = dense_spin(3, 3)
    v = basis_vector(3, 0b111)
    assert np.allclose(s3 @ v, 1.5 * v, atol=1e-15)


def test_operators_hermitian():
    for n in (1, 2, 4):
        for axis in (1, 2, 3):
            m = dense_spin(n, axis)
            assert np.max(np.abs(m - m.conj().T)) <= 1e-12
    s2 = dense_spin_squared(3)
    assert np.max(np.abs(s2 - s2.conj().T)) <= 1e-12


def test_total_spin_eigenvalues():
    assert np.allclose(dense_spin_squared(1), 0.75 * np.eye(2))

    ev2 = np.sort(np.linalg.eigvalsh(dense_spin_squared(2)))
    assert np.allclose(ev2, [0.0, 2.0, 2.0, 2.0], atol=1e-12)

    ev3 = np.sort(np.linalg.eigvalsh(dense_spin_squared(3)))
    assert np.allclose(ev3, [0.75] * 4 + [3.75] * 4, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_su2_commutators(n):
    s = [dense_spin(n, ax) for ax in (1, 2, 3)]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        comm = s[i] @ s[j] - s[j] @ s[i]
        assert np.max(np.abs(comm - 1j * s[k])) <= 1e-12
    s2 = dense_spin_squared(n)
    for m in s:
        assert np.max(np.abs(s2 @ m - m @ s2)) <= 1e-12


def test_ladder_annihilates_extremes():
    for n in (1, 3, 5):
        sp = dense_ladder(n, True)
        sm = dense_ladder(n, False)
        top = basis_vector(n, 2**n - 1)
        bottom = basis_vector(n, 0)
        assert np.max(np.abs(sp @ top)) == 0.0
        assert np.max(np.abs(sm @ bottom)) == 0.0


def test_ladder_commutator_with_s3():
    n = 3
    s3 = dense_spin(n, 3)
    for raising, sign in ((True, 1.0), (False, -1.0)):
        sx = dense_ladder(n, raising)
        assert np.max(np.abs(s3 @ sx - sx @ s3 - sign * sx)) <= 1e-12


def test_lower_raise_on_bottom_scales_by_spin_count():
    # l = n/2, m = -n/2: the ladder product eigenvalue l(l+1) - m(m+1) = n,
    # checked against the explicit matrix product
    for n in (2, 4, 5):
        sp = dense_ladder(n, True)
        sm = dense_ladder(n, False)
        bottom = basis_vector(n, 0)
        assert np.allclose(sm @ (sp @ bottom), n * bottom, atol=1e-12)


def test_capacity_errors():
    with pytest.raises(CapacityError):
        sw.decompose_angular_basis(0)
    with pytest.raises(CapacityError):
        sw.decompose_angular_basis(13)


def test_public_names_resolve_once():
    assert len(sw.__all__) == len(set(sw.__all__))
    for name in sw.__all__:
        assert getattr(sw, name) is not None, name
    removed = ("BasisEntry", "PhasePoint3", "PhasePoint4", "wigner_4d", "wigner_4d_complex",
               "reduced_wigner", "ws_numeric", "hopf_forward", "hopf_section", "SphPoint",
               "SpinOperator", "build_collective_spin", "total_spin_squared", "ladder",
               "jordan_schwinger", "jordan_schwinger_squared", "shell_multiplicity",
               "hopf_forward_arrays", "hopf_section_arrays", "wigner_4d_many", "laguerre",
               "moyal_1d")
    for name in removed:
        assert name not in sw.__all__ and not hasattr(sw, name), name
    for name in ("gram", "represented_rank"):
        assert not hasattr(sw.OmegaMap, name), name
    assert not hasattr(sw.OscillatorDensity, "from_fock_elements")


def _shells(n):
    return range(n, n % 2 - 1, -2)


def _labelled(n):
    """(k, 2l, 2m, vector) of every vector of the reference's full basis:
    shells by descending l, then k, then m."""
    for two_l in _shells(n):
        for k in range(len(dense_highest_weights(n, two_l))):
            for step, v in enumerate(dense_tower(n, two_l, k)):
                yield k, two_l, two_l - 2 * step, v


def test_decompose_one_spin_exact():
    towers = sw.decompose_angular_basis(1).towers
    assert list(towers) == [1]
    assert np.array_equal(towers[1][0], basis_vector(1, 1))
    assert np.array_equal(towers[1][1], basis_vector(1, 0))


def test_decompose_shell_structure():
    assert list(sw.decompose_angular_basis(2).towers) == [2, 0]
    assert list(sw.decompose_angular_basis(3).towers) == [3, 1]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_decompose_is_orthonormal_eigenbasis(n):
    entries = list(_labelled(n))
    assert len(entries) == 2**n

    u = np.column_stack([v for *_, v in entries])
    assert np.max(np.abs(u.conj().T @ u - np.eye(2**n))) <= 1e-10

    s2 = dense_spin_squared(n)
    s3 = dense_spin(n, 3)
    for _, two_l, two_m, v in entries:
        l, m = two_l / 2.0, two_m / 2.0
        assert np.max(np.abs(s2 @ v - l * (l + 1) * v)) <= 1e-10
        assert np.max(np.abs(s3 @ v - m * v)) <= 1e-10

    for two_l, tower in sw.decompose_angular_basis(n).towers.items():
        assert np.max(np.abs(tower - dense_tower(n, two_l, 0))) <= 1e-12, two_l


def test_decompose_deterministic():
    a = sw.decompose_angular_basis(4).towers
    b = sw.decompose_angular_basis(4).towers
    assert list(a) == list(b)
    for two_l in a:
        assert np.array_equal(a[two_l], b[two_l])


def test_decompose_phase_convention():
    # each tower's top is led, in lexicographic ("up" string) order, by a
    # positive amplitude on its sector's first basis state, ups on the
    # leading sites: nothing before it is non-zero, so no sign needs fixing
    for n in range(2, 13):
        for two_l, tower in sw.decompose_angular_basis(n).towers.items():
            ups = (n + two_l) // 2
            first = (2**ups - 1) << (n - ups)
            assert not tower[0, first + 1:].any(), (n, two_l)
            assert tower[0, first] > 1e-12, (n, two_l)


def test_spin_state_validation():
    with pytest.raises(sw.ValidationError):
        sw.SpinState(2, np.array([1.0, 0.0]))  # wrong length
    with pytest.raises(sw.ValidationError):
        sw.SpinState(1, np.array([1.0, 1.0]))  # not normalized

