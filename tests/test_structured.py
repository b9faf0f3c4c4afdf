"""Structured (bit-flip) spin algebra against dense references built here.

The reference total spin squared uses the swap identity
sigma_i . sigma_j = 2 P_ij - 1, so S^2 = n (4 - n) / 4 + sum_{i<j} P_ij with
P_ij the permutation exchanging bits i and j; it shares no code with the
bit-flip ladder the library applies.
"""

import math
import tracemalloc

import numpy as np
import pytest

import spinwigner as sw

from helpers import dense_map, dense_spin_squared, omega, state_families


def _swap_s2(n):
    dim = 2**n
    idx = np.arange(dim)
    s2 = np.eye(dim, dtype=complex) * (n * (4 - n) / 4.0)
    for i in range(n):
        for j in range(i + 1, n):
            differ = ((idx >> i) ^ (idx >> j)) & 1
            swapped = idx ^ (differ * ((1 << i) | (1 << j)))
            s2[swapped, idx] += 1.0
    return s2


@pytest.mark.parametrize("n", range(1, 11))
def test_structured_push_matches_dense_reference(n):
    s2 = _swap_s2(n)
    assert np.array_equal(s2, dense_spin_squared(n))
    c = dense_map(omega(n))
    for name, mix in state_families(n).items():
        rho = np.asarray(mix)
        elements = c @ rho @ c.conj().T
        residual = float(np.max(np.abs(rho @ s2 - s2 @ rho)))
        pushed = [sw.push_density(omega(n), mix)]
        if n <= 8:  # the dense route runs eigvalsh on the 2^n matrix
            pushed.append(sw.push_density(omega(n), rho))
        for d in pushed:
            assert np.max(np.abs(d.elements - elements)) <= 1e-12, name
            assert abs(d.represented_trace - np.trace(elements).real) <= 1e-12, name
            assert abs(d.s2_residual - residual) <= 1e-12, name
        if name == "raw" and n > 1:
            assert residual > 1e-3  # crosses shells: the residual is exercised


def _cross_shell_pair(n):
    """Unit vectors a (top of the outer shell) and b (top of the next shell)."""
    towers = sw.decompose_angular_basis(n).towers
    return towers[n][0], towers[n - 2][0]


def test_mixture_of_non_commuting_components_commutes():
    n = 5
    a, b = _cross_shell_pair(n)
    plus = sw.SpinState(n, (a + b) / math.sqrt(2.0))
    minus = sw.SpinState(n, (a - b) / math.sqrt(2.0))
    for part in (plus, minus):
        assert not sw.push_density(omega(n), sw.mixture([(1.0, part)])).commutes_with_s2
    mix = sw.mixture([(0.5, plus), (0.5, minus)])
    assert sw.push_density(omega(n), mix).s2_residual <= 1e-9
    assert sw.push_density(omega(n), np.asarray(mix)).s2_residual <= 1e-9


def test_spin_mixture_validation():
    psi = sw.cat_state(2)
    with pytest.raises(sw.ValidationError):
        sw.SpinMixture(2, [1.0], np.ones((4, 1)))  # column not normalized
    with pytest.raises(sw.ValidationError):
        sw.SpinMixture(2, [1.0], psi.amplitudes[:, None][:2])  # wrong dimension
    with pytest.raises(sw.ValidationError):
        sw.mixture([(1.0, psi), (0.0, sw.cat_state(3))])  # spin counts differ
    with pytest.raises(sw.ValidationError):
        sw.push_density(omega(3), sw.mixture([(1.0, psi)]))  # map acts on 3 spins


def test_constructors_copy_the_callers_arrays():
    tower = np.array(omega(1).towers[1])
    elements = np.eye(3, dtype=complex)
    amps = sw.cat_state(1).amplitudes.copy()
    weights, columns = np.array([0.25, 0.75]), np.eye(2, dtype=complex)
    mix = sw.SpinMixture(1, weights, columns)
    for held, given in [(sw.OmegaMap(1, {1: tower}).towers[1], tower),
                        (sw.OscillatorDensity.from_fock_elements(1, elements).elements, elements),
                        (sw.SpinState(1, amps).amplitudes, amps),
                        (mix.weights, weights), (mix.amplitudes, columns)]:
        kept = held.copy()
        assert given.flags.writeable and not held.flags.writeable
        given[...] = 0.0  # editing the caller's array leaves the object as it was
        assert np.array_equal(held, kept)


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="np.asarray takes copy= from NumPy 2")
def test_mixture_refuses_asarray_without_copy():
    mix = sw.mixture([(0.5, sw.cat_state(2)), (0.5, sw.SpinState(2, np.eye(4)[0]))])
    with pytest.raises(ValueError, match="SpinMixture"):
        np.asarray(mix, copy=False)
    assert np.array_equal(np.asarray(mix), np.array(mix, copy=True))



def test_validators_refuse_non_finite_values():
    # every check compares "not within tolerance", so NaN cannot slip through
    cat = sw.cat_state(2).amplitudes
    for bad in (math.nan, math.inf):
        amps = cat.copy()
        amps[0] = bad
        with pytest.raises(sw.ValidationError):
            sw.SpinState(2, amps)
        with pytest.raises(sw.ValidationError):
            sw.SpinMixture(2, [bad], cat[:, None])
        with pytest.raises(sw.ValidationError):
            sw.SpinMixture(2, [0.5, 0.5], np.column_stack([cat, amps]))
        for i, j in ((0, 0), (0, 3)):
            rho = np.outer(cat, cat.conj())
            rho[i, j] = bad
            with pytest.raises(sw.ValidationError, match="non-finite entry"):
                sw.push_density(omega(2), rho)
            with pytest.raises(sw.ValidationError, match="non-finite entry"):
                sw.push_operator(omega(2), rho)

def test_cat_realize_and_push_memory():
    # realize + basis + embedding + push at n = 10 holds no 2^n x 2^n matrix;
    # one such complex array is 16.8 MB and the dense route peaked near 130 MB
    sw.push_density(omega(3), sw.realize_operator(sw.StateSpec("cat", 3)))
    tracemalloc.start()
    try:
        rho = sw.realize_operator(sw.StateSpec("cat", 10))
        om = sw.construct_omega(sw.decompose_angular_basis(10))
        d = sw.push_density(om, rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d.represented_trace == pytest.approx(1.0, abs=1e-12)
    assert peak < 48e6
