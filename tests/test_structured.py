"""Structured (bit-flip) spin algebra against dense references built here.

The reference total spin squared uses the swap identity
sigma_i . sigma_j = 2 P_ij - 1, so S^2 = n (4 - n) / 4 + sum_{i<j} P_ij with
P_ij the permutation exchanging bits i and j; it shares no code with the
library's ladder helpers.
"""

import math
import tracemalloc

import numpy as np
import pytest

import spinwigner as sw

from helpers import omega, state_families


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
    assert np.array_equal(s2, sw.total_spin_squared(n).matrix)
    c = omega(n).coefficients
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
    basis = sw.decompose_angular_basis(n)
    return basis.towers(n, 1)[0, 0], basis.towers(n - 2, 1)[0, 0]


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
