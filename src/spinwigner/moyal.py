"""Oscillator Moyal functions and the four-dimensional Wigner sum.

The one-mode Moyal function W_{n n'}(q, p) used here is the phase-space
transform of |n'><n| for oscillator eigenstates, in natural units. It has
two branches; for n <= n' it reads

    (-1)^n / pi * sqrt(2^(n'-n) n! / n'!) * (q - i p)^(n'-n)
        * exp(-(q^2 + p^2)) * L_n^(n'-n)(2 (q^2 + p^2))

and the opposite ordering is fixed by hermiticity, W_{n n'} = conj W_{n' n}.
The four-dimensional function of a pushed operator is the double sum of
matrix elements times products of one-mode Moyal functions, one per mode.

Factorial ratios are taken in log space and the complex monomial is built
by repeated multiplication, which keeps the axes exactly real/imaginary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .omega_map import OscillatorDensity, fock_states

_IMAG_TOL = 1e-8
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class PhasePoint4:
    """Point in the two-mode phase space (oscillator natural units)."""

    q1: float
    p1: float
    q2: float
    p2: float

    def __post_init__(self):
        for name in ("q1", "p1", "q2", "p2"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValidationError(f"{name} = {v!r} is not finite")
            object.__setattr__(self, name, v)


def laguerre(degree: int, order: int | float, x):
    """Generalized Laguerre polynomial by the three-term recurrence in degree.

    Accepts a scalar or array argument; the recurrence is stable upward in
    the degree for the non-negative orders used here.
    """
    if degree < 0:
        raise ValidationError(f"degree must be >= 0, got {degree}")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if degree == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 + order - x
    for k in range(2, degree + 1):
        prev, cur = cur, ((2.0 * k - 1.0 + order - x) * cur - (k - 1.0 + order) * prev) / k
    return cur if cur.ndim else float(cur)


def moyal_1d(n: int, n_prime: int, q, p):
    """One-mode Moyal function W_{n n'}(q, p); scalar or elementwise on arrays."""
    if n < 0 or n_prime < 0:
        raise ValidationError("Moyal indices must be >= 0")
    if n > n_prime:
        return np.conjugate(moyal_1d(n_prime, n, q, p))
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    d = n_prime - n
    rho = q * q + p * p
    pref = (-1.0) ** n / math.pi * math.exp(
        0.5 * (d * _LN2 + math.lgamma(n + 1) - math.lgamma(n_prime + 1))
    )
    mono = np.ones_like(q, dtype=complex)
    zbar = q - 1j * p
    for _ in range(d):
        mono = mono * zbar
    out = pref * mono * np.exp(-rho) * laguerre(n, d, 2.0 * rho)
    return out if out.ndim else complex(out)


def wigner_complex_many(density: OscillatorDensity, q1, p1, q2, p2) -> np.ndarray:
    """Moyal-sum evaluation of the two-mode function, kept complex.

    For Hermitian densities the result is real up to roundoff; general
    pushed operators legitimately produce complex values.
    """
    q1, p1, q2, p2 = np.broadcast_arrays(
        np.asarray(q1, float), np.asarray(p1, float),
        np.asarray(q2, float), np.asarray(p2, float),
    )
    states = fock_states(density.n)
    elems = density.elements
    cache1: dict[tuple[int, int], np.ndarray] = {}
    cache2: dict[tuple[int, int], np.ndarray] = {}

    def mode1(n, npr):
        key = (n, npr)
        if key not in cache1:
            cache1[key] = np.asarray(moyal_1d(n, npr, q1, p1))
        return cache1[key]

    def mode2(n, npr):
        key = (n, npr)
        if key not in cache2:
            cache2[key] = np.asarray(moyal_1d(n, npr, q2, p2))
        return cache2[key]

    total = np.zeros(q1.shape, dtype=complex)
    rows, cols = np.nonzero(elems)
    for f, g in zip(rows, cols):
        b1, b2 = states[f]  # bra side
        k1, k2 = states[g]  # ket side
        total += elems[f, g] * mode1(k1, b1) * mode2(k2, b2)
    return total


def wigner_4d_many(density: OscillatorDensity, q1, p1, q2, p2) -> np.ndarray:
    """Real-valued Wigner values on arrays of phase-space points."""
    vals = wigner_complex_many(density, q1, p1, q2, p2)
    worst = float(np.max(np.abs(vals.imag), initial=0.0))
    if worst > _IMAG_TOL:
        raise NumericError(
            f"imaginary residual {worst:.3e} exceeds {_IMAG_TOL:.0e}; "
            "the pushed operator is not Hermitian"
        )
    return vals.real


def wigner_4d(density: OscillatorDensity, pt: PhasePoint4) -> float:
    """Wigner function of a pushed Hermitian operator at one point."""
    return float(wigner_4d_many(density, pt.q1, pt.p1, pt.q2, pt.p2))


def wigner_4d_complex(density: OscillatorDensity, pt: PhasePoint4) -> complex:
    """Complex-valued variant for non-Hermitian pushed operators."""
    return complex(wigner_complex_many(density, pt.q1, pt.p1, pt.q2, pt.p2))
