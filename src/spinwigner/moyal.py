"""Oscillator Moyal functions and the four-dimensional Wigner sum.

The one-mode Moyal function W_{n n'}(q, p) used here is the phase-space
transform of |n'><n| for oscillator eigenstates, in natural units. It has
two branches; for n <= n' it reads

    (-1)^n / pi * sqrt(2^(n'-n) n! / n'!) * (q - i p)^(n'-n)
        * exp(-(q^2 + p^2)) * L_n^(n'-n)(2 (q^2 + p^2))

and the opposite ordering is fixed by hermiticity, W_{n n'} = conj W_{n' n}.
The four-dimensional function of a pushed operator is the double sum of
matrix elements times products of one-mode Moyal functions, one per mode.
``wigner_complex_many`` and ``wigner_4d_many`` evaluate it on coordinate
arrays (0-d scalars included) that broadcast together; a NaN or inf
coordinate is refused with a ValidationError naming it.

Factorial ratios are taken in log space and the complex monomial is built
by repeated multiplication, which keeps the axes exactly real/imaginary.

The sum runs over blocks of points. Each mode's orders and degrees are
grouped once per call; per block, one walk over the orders forms each needed
entry from one exp(-rho), the powers of q - ip and one Laguerre recurrence
per order, and its mirror row is the conjugate. Pairs add up in
``np.nonzero`` order as out-of-place products with no scratch rows, the same
operations as a per-pair sum over all points, so values are bit-identical
whatever the block size. The two modes' tables hold 2 (n + 1)^2 complex
entries per point of a block, so a block has at most ``_BLOCK`` points and
at most as many as keep the tables within ``_TABLE_BYTES``: every n <= 12
uses full blocks, and memory stays bounded at any point count and any n.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, ValidationError
from .omega_map import OscillatorDensity, fock_states

_IMAG_TOL = 1e-8
_LN2 = math.log(2.0)
_BLOCK = 4096  # most points per kernel block; see the module docstring
_TABLE_BYTES = 2 * 13**2 * _BLOCK * 16  # both modes' tables at n = 12 (22 MB)


def _finite(**coords) -> list[np.ndarray]:
    """Each named coordinate as a float array; a NaN or inf is refused by name."""
    out = []
    for name, value in coords.items():
        a = np.asarray(value, dtype=float)
        finite = np.isfinite(a)
        if not finite.all():
            raise ValidationError(f"{name} = {float(a[~finite][0])!r} is not finite")
        out.append(a)
    return out


def _laguerre_rows(degree: int, order, x):
    """Yield L_0^order(x), ..., L_degree^order(x) by the upward recurrence."""
    prev, cur = np.zeros_like(x), np.ones_like(x)  # L_{-1} = 0: step 1 is 1 + order - x
    yield cur
    for k in range(1, degree + 1):
        prev, cur = cur, ((2.0 * k - 1.0 + order - x) * cur - (k - 1.0 + order) * prev) / k
        yield cur


def laguerre(degree: int, order: int | float, x):
    """Generalized Laguerre polynomial by the three-term recurrence in degree.

    Accepts a scalar or array argument; the recurrence is stable upward in
    the degree for the non-negative orders used here.
    """
    if degree < 0:
        raise ValidationError(f"degree must be >= 0, got {degree}")
    for cur in _laguerre_rows(degree, order, np.asarray(x, dtype=float)):
        pass
    return cur if cur.ndim else float(cur)


def _moyal_entries(need, q, p):
    """Yield (n, d, W_{n, n+d}(q, p)) for each order d and degree n in need[d].

    Each entry is ((pref * zbar^d) * exp(-rho)) * L_n^d(2 rho); one Laguerre
    recurrence per order runs up to its largest needed degree. Where
    exp(-rho) underflows to 0, q, p and rho are taken as 0, so a huge finite
    coordinate gives a zero entry instead of inf * 0.
    """
    with np.errstate(over="ignore"):
        rho = q * q + p * p
    damp = np.exp(-rho)
    far = damp == 0.0
    if np.any(far):  # the entry is 0 there; zero the inputs so nothing overflows
        q, p, rho = (np.where(far, 0.0, a) for a in (q, p, rho))
    damp = damp.astype(complex)
    zbar = q - 1j * p
    mono = np.ones_like(q, dtype=complex)
    for d in range(max(need, default=-1) + 1):
        degrees = need.get(d, ())
        for n, lag in enumerate(_laguerre_rows(max(degrees, default=0), d, 2.0 * rho)):
            if n in degrees:
                pref = (-1.0) ** n / math.pi * math.exp(
                    0.5 * (d * _LN2 + math.lgamma(n + 1) - math.lgamma(n + d + 1)))
                yield n, d, pref * mono * damp * lag
        mono = mono * zbar


def moyal_1d(n: int, n_prime: int, q, p):
    """One-mode Moyal function W_{n n'}(q, p); scalar or elementwise on arrays."""
    if n < 0 or n_prime < 0:
        raise ValidationError("Moyal indices must be >= 0")
    q, p = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(p, dtype=float))
    ((_, _, entry),) = _moyal_entries({abs(n_prime - n): {min(n, n_prime)}}, q, p)
    entry = np.conjugate(entry) if n > n_prime else entry
    return entry if q.ndim else complex(entry)


def wigner_complex_many(density: OscillatorDensity, q1, p1, q2, p2) -> np.ndarray:
    """Moyal-sum evaluation of the two-mode function, kept complex.

    For Hermitian densities the result is real up to roundoff; general
    pushed operators legitimately produce complex values.
    """
    q1, p1, q2, p2 = np.broadcast_arrays(*_finite(q1=q1, p1=p1, q2=q2, p2=p2))
    width = density.n + 1
    states = np.array(fock_states(density.n))
    rows, cols = np.nonzero(density.elements)
    # mode -> pair -> ket * width + bra, the pair's row in that mode's table
    codes = (states[cols] * width + states[rows]).T.tolist()
    pairs = list(zip(density.elements[rows, cols], *codes))
    needs = [{}, {}]  # mode -> order d -> degrees n of the entries W_{n, n+d} it reads
    for mode, need in zip(codes, needs):
        for n, n_prime in (divmod(c, width) for c in set(mode)):
            need.setdefault(abs(n_prime - n), set()).add(min(n, n_prime))
    block = max(1, min(_BLOCK, _TABLE_BYTES // (2 * width**2 * 16)))
    tables = np.empty((2, width**2, min(q1.size, block)), dtype=complex)
    out = np.zeros(q1.size, dtype=complex)
    for start in range(0, q1.size, block):
        s = slice(start, start + block)
        total = out[s]
        table1, table2 = tables[:, :, :total.size]
        for need, q, p, table in zip(needs, (q1, q2), (p1, p2), (table1, table2)):
            # a 0-d point keeps numpy's scalar arithmetic, as the per-pair sum had it
            for n, d, entry in _moyal_entries(need, q.flat[s] if q.ndim else q,
                                              p.flat[s] if p.ndim else p):
                table[n * width + n + d] = entry
                if d:
                    table[(n + d) * width + n] = np.conjugate(entry)
        for e, i, j in pairs:  # products out of place, as the per-pair sum formed them
            total += e * table1[i] * table2[j]
    return out.reshape(q1.shape)


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
