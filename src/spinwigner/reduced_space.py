"""Three-variable reduction of the two-mode Wigner function.

Phase-space points map to R^3 through the Hopf contraction x_i = z* s_i z
with z = (q1 + i p1, q2 + i p2) and s_i the Pauli matrices. The radial
variable of every closed form in this package is |x|, which equals the
squared four-dimensional radius q1^2 + p1^2 + q2^2 + p2^2, not a length.

An operator commuting with total spin squared has a Wigner function
constant along the circular fibers of the contraction, so any section
point represents the fiber; the canonical section below takes z1 real
non-negative. Every other operator is reduced by its fiber average
(``fiber_average``), its same-total Fock blocks. The coherences between
totals that the average drops show only in four dimensions.

Both maps, ``hopf_forward_arrays`` and ``hopf_section_arrays``, act
elementwise on coordinate arrays (0-d scalars included) and refuse a NaN
or inf coordinate by name, which covers ``reduced_wigner_many`` too.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .errors import ValidationError
from .moyal import _finite, wigner_complex_many, wigner_4d_many
from .omega_map import OscillatorDensity

_SECTION_EPS = 1e-12
_FIBER_SEED = 0
_FIBER_RADIUS = 1.5


def hopf_forward_arrays(q1, p1, q2, p2):
    """Pauli contraction of (q1 + i p1, q2 + i p2), elementwise."""
    q1, p1, q2, p2 = _finite(q1=q1, p1=p1, q2=q2, p2=p2)
    z1 = q1 + 1j * p1
    z2 = q2 + 1j * p2
    cross = z1.conj() * z2
    x1 = 2.0 * cross.real
    x2 = 2.0 * cross.imag
    x3 = (z1.conj() * z1 - z2.conj() * z2).real
    return x1, x2, x3


def hopf_section_arrays(x1, x2, x3):
    """Canonical fiber point over each (x1, x2, x3), elementwise.

    Away from the negative x3 axis: z1 = sqrt((r + x3) / 2) real, and
    z2 = (x1 + i x2) / (2 z1). For x3 < 0 the sum r + x3 is formed as
    (x1^2 + x2^2) / (r - x3), which has no cancellation, so the round trip
    through the forward contraction stays at machine precision everywhere.
    Points within a relative transverse distance of 1e-12 of the negative
    axis snap onto it, where the limit z1 = 0, z2 = sqrt(r) applies; the
    switch is invisible for fiber-constant integrands.
    """
    x1, x2, x3 = _finite(x1=x1, x2=x2, x3=x3)
    # points beyond 2^500 are scaled to order 1 so the squares stay finite;
    # every other point divides by exactly 1.0 and is unchanged
    scale = np.maximum(np.maximum(np.abs(x1), np.abs(x2)), np.abs(x3))
    scale = np.where(scale > 2.0**500, scale, 1.0)
    root = np.sqrt(scale)
    x1, x2, x3 = x1 / scale, x2 / scale, x3 / scale
    t2 = x1 * x1 + x2 * x2
    r = np.sqrt(t2 + x3 * x3)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(x3 < 0.0, t2 / np.where(r - x3 > 0.0, r - x3, 1.0), r + x3)
    pole = (x3 <= 0.0) & (t2 <= (_SECTION_EPS * (1.0 + r)) ** 2)
    z1 = np.sqrt(np.where(pole, 0.0, s) / 2.0) * root
    safe = np.where(pole, 1.0, 2.0 * np.where(z1 > 0.0, z1, 1.0) / scale)
    z2 = (x1 + 1j * x2) / safe
    z2 = np.where(pole, (np.sqrt(r) * root).astype(complex), z2)
    q1 = z1
    p1 = np.zeros_like(z1)
    return q1, p1, z2.real, z2.imag


def fiber_average(density: OscillatorDensity) -> OscillatorDensity:
    """The operator that the three-variable functions evaluate.

    A rotation by chi along the fibers multiplies the (T, T') Fock block by
    exp(i chi (T' - T)), so the average of the four-dimensional function
    over each fiber is the function of the same-total blocks alone. An
    operator passing the commutation test is returned itself, cross-shell
    terms below ``S2_COMMUTE_TOL`` included. Any other is returned with
    every T != T' block zeroed: its S^2 residual is 0 and its trace is kept.
    """
    if density.commutes_with_s2:
        return density
    totals = np.repeat(np.arange(density.n + 1), np.arange(1, density.n + 2))
    same = totals[:, None] == totals[None, :]
    return OscillatorDensity.from_fock_elements(density.n, np.where(same, density.elements, 0.0))


def reduced_wigner_many(density: OscillatorDensity, x1, x2, x3) -> np.ndarray:
    """Reduced function of ``fiber_average(density)`` on arrays of R^3 points."""
    return wigner_4d_many(fiber_average(density), *hopf_section_arrays(x1, x2, x3))


def check_fiber_invariance(density: OscillatorDensity, samples: int) -> float:
    """Largest relative change of W under random fiber rotations.

    Samples phase-space points uniformly in a box of half-width
    ``_FIBER_RADIUS`` and fiber angles uniformly on the circle; returns
    max |W(rotated) - W| / (|W| + 1e-12).
    Values near machine precision certify fiber constancy, order-one values
    certify its absence: they measure what ``fiber_average`` discards.
    Deterministic: the uniforms are the 53-bit values of the standard
    library's ``random.Random(_FIBER_SEED)``, which needs no import of
    ``numpy.random`` (about 10 ms per process); at 1,000,000 samples the
    draw takes about 0.25 s.
    """
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    raw = random.Random(_FIBER_SEED).randbytes(40 * samples)
    u = (np.frombuffer(raw, dtype="<u8") >> 11) * 2.0**-53
    pts = (2.0 * _FIBER_RADIUS * u[:4 * samples] - _FIBER_RADIUS).reshape(samples, 4)
    angles = 2.0 * math.pi * u[4 * samples:]
    q1, p1, q2, p2 = pts.T
    c, s = np.cos(angles), np.sin(angles)
    rotated = [c * q1 + s * p1, -s * q1 + c * p1, c * q2 + s * p2, -s * q2 + c * p2]
    base, rot = wigner_complex_many(
        density, *np.concatenate([pts.T, rotated], axis=1)).reshape(2, samples)
    return float(np.max(np.abs(rot - base) / (np.abs(base) + 1e-12)))
