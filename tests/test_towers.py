"""The represented shell towers against an independent dense construction."""

import tracemalloc

import numpy as np
import pytest

import spinwigner as sw
from spinwigner import spin_core

from helpers import dense_highest_weights, dense_map, dense_tower


def _shells(n):
    return range(n, (n % 2) - 1, -2)


@pytest.mark.parametrize("n", range(1, 9))
def test_highest_weights_match_dense_projector(n):
    basis = sw.decompose_angular_basis(n)
    for two_l in _shells(n):
        top, expect = basis.towers[two_l][0], dense_highest_weights(n, two_l)
        assert np.max(np.abs(top - expect[0])) <= 1e-12, (n, two_l)
        # orthogonal to the highest weights of the towers the library discards
        assert np.max(np.abs(expect[1:] @ top), initial=0.0) <= 1e-12, (n, two_l)


@pytest.mark.parametrize("n", range(1, 11))
def test_first_tower_does_not_depend_on_count(n):
    # the library builds one tower per shell, the reference sweeps the whole
    # sector for all of them; tower 0 is the same either way
    basis = sw.decompose_angular_basis(n)
    for two_l in _shells(n):
        assert np.max(np.abs(basis.towers[two_l] - dense_tower(n, two_l, 0))) <= 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_basis_holds_the_represented_towers(n):
    basis = sw.decompose_angular_basis(n)
    assert list(basis.towers) == list(_shells(n))
    coeff = dense_map(sw.construct_omega(basis))
    for two_l, tower in basis.towers.items():
        assert tower.dtype == np.float64 and tower.shape == (two_l + 1, 2**n)
        assert not tower.flags.writeable
        lo = two_l * (two_l + 1) // 2
        assert np.array_equal(coeff[lo:lo + two_l + 1], tower[::-1])
    with pytest.raises(TypeError):
        basis.towers[n] = basis.towers[n]


def test_construct_omega_builds_no_tower(monkeypatch):
    calls = []
    apply_s2 = spin_core._apply_s2

    def counted(x):
        calls.append(x.shape)
        return apply_s2(x)

    monkeypatch.setattr(spin_core, "_apply_s2", counted)
    basis = sw.decompose_angular_basis(6)
    assert calls  # the counter sees the towers being built
    calls.clear()
    sw.construct_omega(basis)
    assert calls == []


def test_embedding_at_twelve_spins_builds_no_full_basis():
    # the full labelled basis at n = 12 is 134 MB real
    tracemalloc.start()
    try:
        sw.construct_omega(sw.decompose_angular_basis(12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6  # the map itself is the towers, 1.6 MB of real float64
