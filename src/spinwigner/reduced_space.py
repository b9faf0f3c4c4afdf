"""Three-variable reduction of the two-mode Wigner function.

Phase-space points map to R^3 through the Hopf contraction x_i = z* s_i z
with z = (q1 + i p1, q2 + i p2) and s_i the Pauli matrices. The radial
variable of every closed form in this package is |x|, which equals the
squared four-dimensional radius q1^2 + p1^2 + q2^2 + p2^2, not a length.

Operators compatible with the reduction are exactly those commuting with
total spin squared; their Wigner function is constant along the circular
fibers of the contraction, so any section point represents the fiber. The
canonical section below takes z1 real non-negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .moyal import PhasePoint4, wigner_complex_many, wigner_4d_many
from .omega_map import S2_COMMUTE_TOL, OscillatorDensity

_SECTION_EPS = 1e-12
_FIBER_SEED = 0
_FIBER_RADIUS = 1.5


@dataclass(frozen=True)
class PhasePoint3:
    """Point in the reduced three-dimensional space."""

    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        for name in ("x1", "x2", "x3"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValidationError(f"{name} = {v!r} is not finite")
            object.__setattr__(self, name, v)

    @property
    def r(self) -> float:
        return math.sqrt(self.x1**2 + self.x2**2 + self.x3**2)


def hopf_forward_arrays(q1, p1, q2, p2):
    """Pauli contraction of (q1 + i p1, q2 + i p2), elementwise."""
    z1 = np.asarray(q1, float) + 1j * np.asarray(p1, float)
    z2 = np.asarray(q2, float) + 1j * np.asarray(p2, float)
    cross = z1.conj() * z2
    x1 = 2.0 * cross.real
    x2 = 2.0 * cross.imag
    x3 = (z1.conj() * z1 - z2.conj() * z2).real
    return x1, x2, x3


def hopf_forward(pt: PhasePoint4) -> PhasePoint3:
    x1, x2, x3 = hopf_forward_arrays(pt.q1, pt.p1, pt.q2, pt.p2)
    return PhasePoint3(float(x1), float(x2), float(x3))


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
    x1 = np.asarray(x1, float)
    x2 = np.asarray(x2, float)
    x3 = np.asarray(x3, float)
    t2 = x1 * x1 + x2 * x2
    r = np.sqrt(t2 + x3 * x3)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(x3 < 0.0, t2 / np.where(r - x3 > 0.0, r - x3, 1.0), r + x3)
    pole = (x3 <= 0.0) & (t2 <= (_SECTION_EPS * (1.0 + r)) ** 2)
    z1 = np.sqrt(np.where(pole, 0.0, s) / 2.0)
    safe = np.where(pole, 1.0, 2.0 * np.where(z1 > 0.0, z1, 1.0))
    z2 = (x1 + 1j * x2) / safe
    z2 = np.where(pole, np.sqrt(r).astype(complex), z2)
    q1 = z1
    p1 = np.zeros_like(z1)
    return q1, p1, z2.real, z2.imag


def hopf_section(pt3: PhasePoint3) -> PhasePoint4:
    q1, p1, q2, p2 = hopf_section_arrays(pt3.x1, pt3.x2, pt3.x3)
    return PhasePoint4(float(q1), float(p1), float(q2), float(p2))


def _require_commuting(density: OscillatorDensity) -> None:
    if not density.commutes_with_s2:
        raise ValidationError(
            "operator does not commute with total spin squared "
            f"(commutator residual {density.s2_residual:.3e} > {S2_COMMUTE_TOL:.0e}); "
            "its Wigner function is not constant on fibers and cannot be "
            "reduced to three variables"
        )


def reduced_wigner_many(density: OscillatorDensity, x1, x2, x3) -> np.ndarray:
    """Reduced function on arrays of R^3 points."""
    _require_commuting(density)
    return wigner_4d_many(density, *hopf_section_arrays(x1, x2, x3))


def reduced_wigner(density: OscillatorDensity, pt3: PhasePoint3) -> float:
    """Reduced function at one point; refuses non-reducible operators."""
    return float(reduced_wigner_many(density, pt3.x1, pt3.x2, pt3.x3))


def check_fiber_invariance(density: OscillatorDensity, samples: int) -> float:
    """Largest relative change of W under random fiber rotations.

    Samples phase-space points uniformly in a box of half-width
    ``_FIBER_RADIUS`` and fiber angles uniformly on the circle; returns
    max |W(rotated) - W| / (|W| + 1e-12).
    Values near machine precision certify fiber constancy, order-one values
    certify its absence. Deterministic: the generator seed is fixed.
    """
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    rng = np.random.default_rng(_FIBER_SEED)
    pts = rng.uniform(-_FIBER_RADIUS, _FIBER_RADIUS, size=(samples, 4))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=samples)
    q1, p1, q2, p2 = pts.T
    c, s = np.cos(angles), np.sin(angles)
    rq1 = c * q1 + s * p1
    rp1 = -s * q1 + c * p1
    rq2 = c * q2 + s * p2
    rp2 = -s * q2 + c * p2
    base = wigner_complex_many(density, q1, p1, q2, p2)
    rot = wigner_complex_many(density, rq1, rp1, rq2, rp2)
    return float(np.max(np.abs(rot - base) / (np.abs(base) + 1e-12)))
