"""The on-demand shell towers against an independent dense construction."""

import tracemalloc

import numpy as np
import pytest

import spinwigner as sw

from helpers import dense_spin_squared


def _shells(n):
    return range(n, (n % 2) - 1, -2)


def _dense_highest_weights(n, two_l):
    """Highest weights of shell two_l from the dense spectral projector of S^2.

    The projector's block on the S_3 = l sector is orthonormalized column by
    column in lexicographic order (descending index), and each vector's first
    non-negligible amplitude in that order is made positive. Returned as rows
    in full 2^n coordinates.
    """
    evals, evecs = np.linalg.eigh(dense_spin_squared(n))
    l = two_l / 2.0
    keep = np.abs(evals - l * (l + 1.0)) < 0.25
    proj = evecs[:, keep] @ evecs[:, keep].conj().T
    assert np.max(np.abs(proj.imag)) <= 1e-12
    popcount = np.array([bin(i).count("1") for i in range(2**n)])
    sector = np.flatnonzero(popcount == (n + two_l) // 2)[::-1]
    block = proj.real[np.ix_(sector, sector)]
    vectors = []
    for col in block.T:
        w = col.copy()
        for _ in range(2):
            for q in vectors:
                w -= (q @ w) * q
        if np.linalg.norm(w) > 1e-7:
            vectors.append(w / np.linalg.norm(w))
    assert len(vectors) == sw.shell_multiplicity(n, two_l)
    out = np.zeros((len(vectors), 2**n))
    for k, q in enumerate(vectors):
        lead = q[np.flatnonzero(np.abs(q) > 1e-12)[0]]
        out[k, sector] = q * np.sign(lead)
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_highest_weights_match_dense_projector(n):
    basis = sw.decompose_angular_basis(n)
    for two_l in _shells(n):
        expect = _dense_highest_weights(n, two_l)
        tops = basis.towers(two_l, sw.shell_multiplicity(n, two_l))[:, 0]
        assert len(tops) == len(expect)
        for k, top in enumerate(tops):
            assert np.max(np.abs(top - expect[k])) <= 1e-12, (n, two_l, k)


@pytest.mark.parametrize("n", range(1, 11))
def test_first_tower_does_not_depend_on_count(n):
    basis = sw.decompose_angular_basis(n)
    for two_l in _shells(n):
        mult = sw.shell_multiplicity(n, two_l)
        assert np.array_equal(basis.towers(two_l, 1), basis.towers(two_l, mult)[:1])


def test_towers_refuse_counts_outside_the_shell():
    basis = sw.decompose_angular_basis(4)
    for two_l, count in ((2, 0), (2, 4), (3, 1), (6, 1)):
        with pytest.raises(sw.ValidationError):
            basis.towers(two_l, count)


def test_embedding_at_twelve_spins_builds_no_full_basis():
    # the full labelled basis at n = 12 is 268 MB complex
    tracemalloc.start()
    try:
        sw.construct_omega(sw.decompose_angular_basis(12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6  # the map itself is 6 MB complex
