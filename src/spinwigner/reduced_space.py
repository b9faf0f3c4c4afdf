"""Three-variable reduction of the two-mode Wigner function.

Phase-space points map to R^3 through the Hopf contraction x_i = z* s_i z
with z = (q1 + i p1, q2 + i p2) and s_i the Pauli matrices. The radial
variable of every closed form in this package is |x|, which equals the
squared four-dimensional radius q1^2 + p1^2 + q2^2 + p2^2, not a length.

Every operator is reduced by its average over the contraction's circular
fibers, the function of its same-total Fock blocks (``fiber_average``),
which ``reduced_wigner_many`` evaluates in closed form from x with the
Moyal-sum kernel of ``moyal``, restricted to those blocks. The coherences
between totals that the average drops show only in four dimensions.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .errors import NumericError, ValidationError
from .moyal import _finite, _order_groups, _order_sum, wigner_complex_many
from .omega_map import OscillatorDensity

_HERMITIAN_TOL = 1e-10
_FIBER_SEED = 0
_FIBER_RADIUS = 1.5


def _same_total_blocks(n: int, matrix: np.ndarray) -> list[np.ndarray]:
    """Views of the block of each Fock total T = 0..n, [T(T+1)/2, (T+1)(T+2)/2)."""
    rows = (slice(t * (t + 1) // 2, (t + 1) * (t + 2) // 2) for t in range(n + 1))
    return [matrix[r, r] for r in rows]


def _check_hermitian(blocks) -> None:
    """The package's one test that the three-variable functions of same-total
    blocks are real: max |E - E^H| over the blocks above ``_HERMITIAN_TOL``
    times max(1, their largest |element|) is a NumericError naming it."""
    skew, scale = 0.0, 1.0
    for block in blocks:
        skew = max(skew, float(np.max(np.abs(block - block.conj().T))))
        scale = max(scale, float(np.max(np.abs(block))))
    if skew > _HERMITIAN_TOL * scale:
        raise NumericError(f"operator is not Hermitian (max |E - E^H| = {skew:.3e})")


def fiber_average(density: OscillatorDensity) -> OscillatorDensity:
    """The operator that the three-variable functions evaluate: ``density``
    with every T != T' Fock block zeroed, since a rotation by chi along the
    fibers turns that block by exp(i chi (T' - T)). Its S^2 residual is 0,
    and its trace is that of ``density``."""
    e = np.zeros_like(density.elements)
    for average, block in zip(_same_total_blocks(density.n, e),
                              _same_total_blocks(density.n, density.elements)):
        average[...] = block
    return OscillatorDensity(density.n, e, float(np.trace(e).real), 0.0)


def _reduced_inputs(x1, x2, x3):
    """Laguerre arguments r + x3 and r - x3, phases w and 1, damping exp(-r)."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf / inf where exp(-r) underflows
        t2 = x1 * x1 + x2 * x2
        r = np.sqrt(t2 + x3 * x3)
        big = r + np.abs(x3)
        small = t2 / np.where(big > 0.0, big, 1.0)
    return ((np.where(x3 < 0.0, small, big), np.where(x3 < 0.0, big, small)),
            (0.5 * (x1 + 1j * x2), 1.0), np.exp(-r))


def reduced_wigner_many(density: OscillatorDensity, x1, x2, x3) -> np.ndarray:
    """Reduced function of ``fiber_average(density)`` on arrays of R^3 points.

    The Moyal sum of ``moyal`` on the same-total blocks, with the Laguerre
    arguments 2 |z_j|^2 = r +- x3 and the two phases joined into
    w = (x1 + i x2) / 2 = conj(z1) z2: the element on bra (b1, T - b1) and
    ket (k1, T - k1) carries w^(b1 - k1), conj(w)^(k1 - b1) when b1 < k1.
    The smaller of r +- x3 is formed as (x1^2 + x2^2) / (r + |x3|), so
    nothing cancels near the x3 axis; where exp(-r) underflows the point
    gives 0, also at a huge finite coordinate. Non-Hermitian same-total
    blocks, as ``_check_hermitian`` decides, are a NumericError.
    """
    x1, x2, x3 = np.broadcast_arrays(*_finite(x1=x1, x2=x2, x3=x3))
    _check_hermitian(_same_total_blocks(density.n, density.elements))
    out = np.empty(x1.size)
    for s, vals in _order_sum(_order_groups(density, same_total=True), density.n,
                              _reduced_inputs, x1, x2, x3):
        out[s] = vals.real
    return out.reshape(x1.shape)


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
