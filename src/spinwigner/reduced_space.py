"""Three-variable reduction of the two-mode Wigner function.

Phase-space points map to R^3 through the Hopf contraction x_i = z* s_i z
with z = (q1 + i p1, q2 + i p2) and s_i the Pauli matrices. The radial
variable of every closed form in this package is |x|, which equals the
squared four-dimensional radius q1^2 + p1^2 + q2^2 + p2^2, not a length.

Every operator is reduced by its average over the contraction's circular
fibers, the function of its same-total Fock blocks (``fiber_average``),
which ``reduced_wigner_many`` evaluates in closed form from x. The
coherences between totals that the average drops show only in four
dimensions.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .errors import NumericError, ValidationError
from .moyal import (_BLOCK, _TABLE_BYTES, _finite, _laguerre_rows, _moyal_prefactor,
                    wigner_complex_many)
from .omega_map import OscillatorDensity

_IMAG_TOL = 1e-8
_FIBER_SEED = 0
_FIBER_RADIUS = 1.5


def fiber_average(density: OscillatorDensity) -> OscillatorDensity:
    """The operator that the three-variable functions evaluate: ``density``
    with every T != T' Fock block zeroed, since a rotation by chi along the
    fibers turns that block by exp(i chi (T' - T)). Its S^2 residual is 0,
    and its trace is that of ``density``."""
    totals = np.repeat(np.arange(density.n + 1), np.arange(1, density.n + 2))
    same = totals[:, None] == totals[None, :]
    return OscillatorDensity.from_fock_elements(density.n, np.where(same, density.elements, 0.0))


def _order_groups(density: OscillatorDensity) -> dict[int, tuple]:
    """The same-total elements as {order a: (m1, m2, coefficients)}.

    Element e on bra (b1, T - b1) and ket (k1, T - k1) has order
    a = |b1 - k1| and degrees m1 = min(b1, k1), m2 = T - a - m1. The two
    elements of one (T, a, m1), with b1 > k1 and with b1 < k1, share a
    column: the real parts of e p(m1, a) p(m2, a), p the Moyal prefactor,
    then the imaginary parts. Columns of two zero elements are left out.
    """
    n = density.n
    pref = np.array([[_moyal_prefactor(m, a) for a in range(n + 1)] for m in range(n + 1)])
    groups = {}
    for a in range(n + 1):
        cols = []
        for total in range(a, n + 1):
            lo = total * (total + 1) // 2  # rows are bras; row n1 is Fock state (n1, T - n1)
            block = density.elements[lo:lo + total + 1, lo:lo + total + 1]
            m1 = np.arange(total - a + 1)
            c = (np.stack([block.diagonal(-a), (a > 0) * block.diagonal(a)])  # diagonal once
                 * pref[m1, a] * pref[m1[::-1], a])
            keep = c.any(axis=0)
            cols.append((m1[keep], total - a - m1[keep], c[:, keep]))
        m1, m2, c = (np.concatenate(x, axis=-1) for x in zip(*cols))
        if m1.size:
            groups[a] = (m1, m2, np.concatenate([c.real, c.imag]))
    return groups


def reduced_wigner_many(density: OscillatorDensity, x1, x2, x3) -> np.ndarray:
    """Reduced function of ``fiber_average(density)`` on arrays of R^3 points.

    At every point of the fiber over x, an element of ``_order_groups`` adds
    c w^a exp(-r) L_m1^a(r + x3) L_m2^a(r - x3), w = (x1 + i x2) / 2, with
    conj(w) for w when b1 < k1. The smaller of r +- x3 is formed as
    (x1^2 + x2^2) / (r + |x3|), so nothing cancels near the x3 axis; where
    exp(-r) underflows the point is taken as the origin, so a huge finite
    coordinate gives 0. Per block of points one Laguerre recurrence runs
    for all orders at once on each of r +- x3, and each order's elements
    are summed from their gathered rows: O(n) numpy calls and no BLAS
    product, with memory within ``moyal._TABLE_BYTES``. An imaginary part
    above 1e-8 (a non-Hermitian average) is a NumericError.
    """
    x1, x2, x3 = np.broadcast_arrays(*_finite(x1=x1, x2=x2, x3=x3))
    groups = _order_groups(density)
    out = np.zeros(x1.size)
    n = density.n
    widest = max((m1.size for m1, _, _ in groups.values()), default=0)
    block = max(1, min(_BLOCK, _TABLE_BYTES // (16 * (n + 1) ** 2 + 24 * widest)))
    worst = 0.0
    for start in range(0, x1.size, block):
        s = slice(start, start + block)
        c1, c2, c3 = (c.flat[s] for c in (x1, x2, x3))
        with np.errstate(over="ignore"):
            t2 = c1 * c1 + c2 * c2
            r = np.sqrt(t2 + c3 * c3)
        damp = np.exp(-r)  # where it underflows the value is 0: zero the inputs there
        c1, c2, c3, t2, r = (np.where(damp == 0.0, 0.0, c) for c in (c1, c2, c3, t2, r))
        big = r + np.abs(c3)
        small = t2 / np.where(big > 0.0, big, 1.0)
        up, down = np.empty((2, n + 1, n + 1, r.size))
        for table, arg in ((up, np.where(c3 < 0.0, small, big)),
                           (down, np.where(c3 < 0.0, big, small))):
            for m, row in enumerate(_laguerre_rows(n, np.arange(n + 1)[:, None], arg)):
                table[:, m] = row
        w = 0.5 * (c1 + 1j * c2)
        plus = minus = 0.0
        for a in range(n, -1, -1):  # Horner in w and conj(w)
            plus, minus = plus * w, minus * np.conj(w)
            if a in groups:
                m1, m2, coef = groups[a]
                re, re_c, im, im_c = np.einsum("ke,ep->kp", coef, up[a][m1] * down[a][m2])
                plus, minus = plus + (re + 1j * im), minus + (re_c + 1j * im_c)
        vals = (plus + minus) * damp
        worst = max(worst, float(np.max(np.abs(vals.imag), initial=0.0)))
        out[s] = vals.real
    if worst > _IMAG_TOL:
        raise NumericError(f"imaginary residual {worst:.3e} exceeds {_IMAG_TOL:.0e}; "
                           "the pushed operator is not Hermitian")
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
