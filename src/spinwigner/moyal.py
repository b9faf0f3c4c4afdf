"""Oscillator Moyal functions and the one kernel of the Moyal sum.

The one-mode Moyal function W_{n n'}(q, p) used here is the phase-space
transform of |n'><n| for oscillator eigenstates, in natural units. It has
two branches; for n <= n' it reads

    (-1)^n / pi * sqrt(2^(n'-n) n! / n'!) * (q - i p)^(n'-n)
        * exp(-(q^2 + p^2)) * L_n^(n'-n)(2 (q^2 + p^2))

and the opposite ordering is fixed by hermiticity, W_{n n'} = conj W_{n' n}.
Factorial ratios are taken in log space and the complex monomial is built
by repeated multiplication, which keeps the axes exactly real/imaginary.

The four-dimensional function of a pushed operator is the double sum of
matrix elements times one-mode Moyal functions, one per mode. With rows as
bras, the element e on bra (b1, b2) and ket (k1, k2) has orders
d_j = b_j - k_j and degrees m_j = min(b_j, k_j), and adds

    e p(m1, |d1|) p(m2, |d2|) zbar1^d1 zbar2^d2 D L_m1^|d1|(u1) L_m2^|d2|(u2),

with p the prefactor above and zbar^d = conj(zbar)^|d| for d < 0. Per
point, ``wigner_complex_many`` takes the Laguerre arguments u_j = 2 rho_j,
the phases zbar_j = q_j - i p_j and D = exp(-rho1 - rho2), where
rho_j = q_j^2 + p_j^2; ``reduced_space`` evaluates the same sum on the
same-total blocks from x. Both take coordinate arrays (0-d scalars
included) that broadcast together; a NaN or inf coordinate is refused with
a ValidationError naming it.

``_order_groups`` collects the elements by order pair once per call, and
``_order_sum`` evaluates them per block of points with one Laguerre table
per mode and one real ``einsum`` per order pair: numpy's own loop, not
BLAS. A value does not depend on the other points of its call, bit for
bit. A block has at most ``_BLOCK`` points, and its scratch stays within
``_TABLE_BYTES`` at any n, so every n <= 12 uses full blocks.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .errors import ValidationError
from .omega_map import OscillatorDensity, fock_states

_LN2 = math.log(2.0)
_BLOCK = 4096  # most points per kernel block; see the module docstring
_TABLE_BYTES = 2 * 13**2 * _BLOCK * 16  # scratch budget of one block (22 MB)


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


def laguerre(degree: int, order: int | float, x):
    """Generalized Laguerre polynomial by the three-term recurrence in degree.

    Accepts a scalar or array argument; the recurrence is stable upward in
    the degree for the non-negative orders used here.
    """
    if degree < 0:
        raise ValidationError(f"degree must be >= 0, got {degree}")
    x = np.asarray(x, dtype=float)
    prev, cur = np.zeros_like(x), np.ones_like(x)  # L_{-1} = 0: step 1 is 1 + order - x
    for k in range(1, degree + 1):
        prev, cur = cur, ((2.0 * k - 1.0 + order - x) * cur - (k - 1.0 + order) * prev) / k
    return cur if cur.ndim else float(cur)


def _moyal_prefactor(n: int, d: int) -> float:
    """(-1)^n / pi * sqrt(2^d n! / (n + d)!), the factor of W_{n, n+d}."""
    return (-1.0) ** n / math.pi * math.exp(
        0.5 * (d * _LN2 + math.lgamma(n + 1) - math.lgamma(n + d + 1)))


def moyal_1d(n: int, n_prime: int, q, p):
    """One-mode Moyal function W_{n n'}(q, p); scalar or elementwise on arrays."""
    if n < 0 or n_prime < 0:
        raise ValidationError("Moyal indices must be >= 0")
    q, p = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(p, dtype=float))
    d, m = abs(n_prime - n), min(n, n_prime)
    with np.errstate(over="ignore"):
        rho = q * q + p * p
    damp = np.exp(-rho)
    q, p, rho = (np.where(damp == 0.0, 0.0, c) for c in (q, p, rho))  # 0 there, not inf * 0
    zbar = q - 1j * p
    mono = np.ones_like(q, dtype=complex)
    for _ in range(d):
        mono = mono * zbar
    entry = _moyal_prefactor(m, d) * mono * damp * laguerre(m, d, 2.0 * rho)
    entry = np.conjugate(entry) if n > n_prime else entry
    return entry if q.ndim else complex(entry)


def _order_groups(density: OscillatorDensity, same_total: bool = False) -> dict:
    """The non-zero elements as {(d1, d2): (rows1, rows2, coefficients)}.

    An element and its transpose share one column, under the order pair
    with d1 > 0, or with d1 = 0 and d2 >= 0, in the order of the keyed
    element's (bra, ket); rows_j holds the column's row of L_mj^|dj| in
    ``_laguerre_table``. With c = e p(m1, |d1|) p(m2, |d2|) of the keyed
    element and c' that of its transpose (0 on the diagonal), the column is
    (Re c + Re c', Im c - Im c', Im c + Im c', Re c - Re c'), so that
    c zeta + c' conj(zeta) = (r1 x - r2 y) + i (r3 x + r4 y), zeta = x + i y.
    ``same_total`` keeps the d1 + d2 = 0 elements: the blocks of ``fiber_average``.
    """
    e, n, states = density.elements, density.n, np.array(fock_states(density.n)).reshape(-1, 2)
    bra, ket = np.nonzero((e != 0) | (e.T != 0))
    d = states[bra] - states[ket]
    key = d @ [2 * n + 1, 1]  # (d1, d2) as one integer, in the same order
    keep = key >= 0  # the keyed element: d1 > 0, or d1 = 0 and d2 >= 0
    if same_total:
        keep &= d.sum(axis=1) == 0
    order = np.flatnonzero(keep)[np.argsort(key[keep], kind="stable")]  # (bra, ket) within a key
    bra, ket, d, key = bra[order], ket[order], d[order], key[order]
    m, a = np.minimum(states[bra], states[ket]), np.abs(d)
    pref = np.array([[_moyal_prefactor(k, j) for j in range(n + 1)] for k in range(n + 1)])
    scale = pref[m[:, 0], a[:, 0]] * pref[m[:, 1], a[:, 1]]
    c, ct = e[bra, ket] * scale, np.where(bra == ket, 0.0, e[ket, bra] * scale)
    coef = np.stack([c.real + ct.real, c.imag - ct.imag, c.imag + ct.imag, c.real - ct.real])
    rows = m * (2 * n + 3 - m) // 2 + a
    return {tuple(d[i[0]].tolist()): (rows[i, 0], rows[i, 1], coef[:, i])
            for i in np.split(np.arange(key.size), np.flatnonzero(np.diff(key)) + 1) if i.size}


def _laguerre_table(n: int, x: np.ndarray) -> np.ndarray:
    """L_k^a(x) at row first[k] + a = k (2n + 3 - k) / 2 + a for a + k <= n, by one
    recurrence in the degree k for all orders a at once, each up to degree n - a."""
    first = [k * (2 * n + 3 - k) // 2 for k in range(n + 2)]
    table = np.empty((first[-1], x.size))
    orders = np.arange(n + 1.0)[:, None]
    table[:n + 1] = 1.0
    for k in range(1, n + 1):
        top = n + 1 - k
        cur, last = table[first[k]:first[k] + top], table[first[k - 1]:first[k - 1] + top]
        np.subtract(2.0 * k - 1.0 + orders[:top], x, out=cur)
        cur *= last
        if k > 1:
            cur -= (k - 1.0 + orders[:top]) * table[first[k - 2]:first[k - 2] + top]
        cur /= k
    return table


def _order_sum(groups: dict, n: int, prepare, *coords):
    """Yield (slice, complex values) for each block of the flat points.

    ``prepare`` maps a block's coordinates to each mode's Laguerre argument
    and phase zbar_j (a phase may be a scalar) and the damping factor. Per
    order pair (d1, d2), one ``einsum`` sums the columns' gathered products
    of Laguerre rows, which then take the phase zbar1^d1 zbar2^d2.
    """
    widest = max((r1.size for r1, _, _ in groups.values()), default=0)
    # bytes per point: two tables, phase powers, a recurrence row, gathered rows, block arrays
    per_point = 8 * (n + 1) * (n + 2) + 40 * (n + 1) + 24 * widest + 256
    block = max(2, min(_BLOCK, _TABLE_BYTES // per_point))
    for start in range(0, coords[0].size, block):
        pts = [c.flat[start:start + block] for c in coords]
        count = pts[0].size
        if count == 1:  # einsum sums a lone point's columns in another order
            pts = [np.repeat(c, 2) for c in pts]
        args, phases, damp = prepare(*pts)
        # where the damping underflows the value is 0: zero the inputs so nothing overflows
        u1, u2, z1, z2 = (np.where(damp == 0.0, 0.0, v) for v in (*args, *phases))
        table1, table2 = _laguerre_table(n, u1), _laguerre_table(n, u2)
        pow1, pow2 = (list(accumulate([z] * n, np.multiply, initial=1.0)) for z in (z1, z2))
        re, im = np.zeros((2, damp.size))
        for (d1, d2), (r1, r2, coef) in groups.items():
            a, b, c, d = np.einsum("ke,ep->kp", coef, table1[r1] * table2[r2])
            phase = pow1[d1] * (pow2[d2] if d2 >= 0 else np.conj(pow2[-d2]))
            re += a * phase.real - b * phase.imag
            im += c * phase.real + d * phase.imag
        del table1, table2, pow1, pow2  # free this block's tables before the next one's
        yield slice(start, start + count), ((re + 1j * im) * damp)[:count]


def _phase_space_inputs(q1, p1, q2, p2):  # see the module docstring
    with np.errstate(over="ignore"):
        rho1, rho2 = q1 * q1 + p1 * p1, q2 * q2 + p2 * p2
    return (2.0 * rho1, 2.0 * rho2), (q1 - 1j * p1, q2 - 1j * p2), np.exp(-(rho1 + rho2))


def wigner_complex_many(density: OscillatorDensity, q1, p1, q2, p2) -> np.ndarray:
    """Moyal-sum evaluation of the two-mode function, kept complex.

    For Hermitian densities the result is real up to roundoff; general
    pushed operators legitimately produce complex values.
    """
    q1, p1, q2, p2 = np.broadcast_arrays(*_finite(q1=q1, p1=p1, q2=q2, p2=p2))
    out = np.empty(q1.size, dtype=complex)
    for s, vals in _order_sum(_order_groups(density), density.n, _phase_space_inputs,
                              q1, p1, q2, p2):
        out[s] = vals
    return out.reshape(q1.shape)
