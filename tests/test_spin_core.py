import numpy as np
import pytest

import spinwigner as sw
from spinwigner.errors import CapacityError

from helpers import basis_vector, dense_ladder, dense_spin, dense_spin_squared


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
               "jordan_schwinger", "jordan_schwinger_squared")
    for name in removed:
        assert name not in sw.__all__ and not hasattr(sw, name), name
    for name in ("gram", "represented_rank"):
        assert not hasattr(sw.OmegaMap, name), name
    assert {"hopf_forward_arrays", "hopf_section_arrays"} <= set(sw.__all__)


def _labelled(basis):
    """(k, 2l, 2m, vector) of every basis vector: shells by descending l, then k, then m."""
    n = basis.n
    for two_l in range(n, n % 2 - 1, -2):
        for k, tower in enumerate(basis.towers(two_l, sw.shell_multiplicity(n, two_l))):
            for step, v in enumerate(tower):
                yield k, two_l, two_l - 2 * step, v


def _shell_counts(basis) -> dict[int, int]:
    return {two_l: k + 1 for k, two_l, two_m, _ in _labelled(basis) if two_m == two_l}


def test_decompose_one_spin_exact():
    entries = list(_labelled(sw.decompose_angular_basis(1)))
    assert [(k, two_l, two_m) for k, two_l, two_m, _ in entries] == [(0, 1, 1), (0, 1, -1)]
    assert np.array_equal(entries[0][3], basis_vector(1, 1))
    assert np.array_equal(entries[1][3], basis_vector(1, 0))


def test_decompose_shell_structure():
    assert _shell_counts(sw.decompose_angular_basis(2)) == {2: 1, 0: 1}
    assert _shell_counts(sw.decompose_angular_basis(3)) == {3: 1, 1: 2}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_decompose_is_orthonormal_eigenbasis(n):
    basis = sw.decompose_angular_basis(n)
    entries = list(_labelled(basis))
    assert len(entries) == 2**n

    u = np.column_stack([v for *_, v in entries])
    assert np.max(np.abs(u.conj().T @ u - np.eye(2**n))) <= 1e-10

    s2 = dense_spin_squared(n)
    s3 = dense_spin(n, 3)
    for _, two_l, two_m, v in entries:
        l, m = two_l / 2.0, two_m / 2.0
        assert np.max(np.abs(s2 @ v - l * (l + 1) * v)) <= 1e-10
        assert np.max(np.abs(s3 @ v - m * v)) <= 1e-10

    counts = _shell_counts(basis)
    for two_l, k_count in counts.items():
        assert k_count == sw.shell_multiplicity(n, two_l)
    assert sum(k * (two_l + 1) for two_l, k in counts.items()) == 2**n


def test_decompose_deterministic():
    a = _labelled(sw.decompose_angular_basis(4))
    b = _labelled(sw.decompose_angular_basis(4))
    for (*la, va), (*lb, vb) in zip(a, b):
        assert la == lb
        assert np.array_equal(va, vb)


def test_decompose_phase_convention():
    # every highest-weight vector has its lexicographically first nonzero
    # amplitude real positive ("up" string order = descending index)
    for n in (2, 3, 4):
        for _, two_l, two_m, amps in _labelled(sw.decompose_angular_basis(n)):
            if two_m != two_l:
                continue
            for idx in range(2**n - 1, -1, -1):
                if abs(amps[idx]) > 1e-12:
                    assert amps[idx].real > 0
                    assert abs(amps[idx].imag) <= 1e-12
                    break


def test_spin_state_validation():
    with pytest.raises(sw.ValidationError):
        sw.SpinState(2, np.array([1.0, 0.0]))  # wrong length
    with pytest.raises(sw.ValidationError):
        sw.SpinState(1, np.array([1.0, 1.0]))  # not normalized

