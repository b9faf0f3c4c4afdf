"""Spherical Wigner-like function: radial integration and closed forms.

The spherical function is pi/4 times the radial integral of the reduced
function along each direction, taken with weight r dr. That weight makes
its sphere integral the phase-space integral of the state's function, the
trace of the represented part. Only the Fock diagonal, with no azimuth,
survives it, so ``sphere_normalization`` takes one azimuth times 2 pi.

Two evaluation routes are provided. The numeric route integrates
``reduced_wigner_many``, the closed form of the same-total blocks, by
Gauss-Laguerre quadrature, exact because every reduced function is exp(-r)
times a polynomial. The analytic route takes, per angular-momentum shell,
the closed form of each diagonal element at the pole and rotates it to
each direction; both agree on ``fiber_average(d)`` for every operator d.
At the pole the paper's radial factor

    I(i, j, alpha; c) = integral_0^inf exp(-r) r^(1+alpha)
        L_j^alpha((1+c) r) L_i^alpha((1-c) r) dr

has c = 1, where it is the integer (-1)^a (2a + 1) for i = 2l - a, j = a,
alpha = 0, so the route calls no radial integral. ``radial_integral_I``
stays as the paper's closed form for any c, summed exactly; the tests check
the pole identity against it. Coherences between different shells have no
closed form here and are refused by the analytic route.

Both routes take angle arrays that broadcast together (0-d scalars
included) and refuse a NaN or inf angle by name. Any finite (theta, phi)
names the direction (sin theta cos phi, sin theta sin phi, cos theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericError, ValidationError
from .omega_map import OscillatorDensity, fock_states
from .moyal import _finite, wigner_complex_many
from .spin_core import _readonly
from .reduced_space import _check_hermitian, _same_total_blocks, reduced_wigner_many

_LM_CUT = 1e-13


@lru_cache(maxsize=32)
def _gauss_laguerre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.laguerre.laggauss(nodes)
    return _readonly(x), _readonly(w * np.exp(x))  # weights of integral_0^inf f(r) dr


def ws_numeric_many(density: OscillatorDensity, theta, phi) -> np.ndarray:
    """Spherical function on arrays of angles, by radial Gauss-Laguerre.

    Integrates ``reduced_wigner_many``, so every operator gives the values
    of its fiber average, its same-total blocks. Along each ray
    the reduced function is exp(-r) times a polynomial of degree at most n
    in r, so with the weight r the integrand has degree at most n + 1. The
    rule is (n + 3) // 2 Gauss-Laguerre nodes, the fewest k with
    2k - 1 >= n + 1, so every value is the exact radial integral up to
    rounding.
    """
    theta, phi = np.broadcast_arrays(*_finite(theta=theta, phi=phi))
    r, w = _gauss_laguerre((density.n + 3) // 2)
    st = np.sin(theta)[..., None]
    vals = reduced_wigner_many(density, r * (st * np.cos(phi)[..., None]),
                               r * (st * np.sin(phi)[..., None]), r * np.cos(theta)[..., None])
    return (math.pi / 4.0) * np.sum(vals * (w * r), axis=-1)


def radial_integral_I(i: int, j: int, alpha: int, c: float) -> float:
    """Closed form of the exponential-weighted cross-Laguerre radial integral.

    Evaluated from the terminating-series form that stays finite on the
    whole interval c in [-1, 1], including c = 0; the c^(-1) term that
    formally appears at i = j carries a zero coefficient and is dropped.
    The Gauss series 2F1(-i, 1 + j + alpha; 1 + d; c^2) is summed with a
    running term ratio. All factors are exact rationals, rounded once on
    return, so the alternating, near-cancelling sums at |c| close to 1 cost
    no precision.
    """
    from fractions import Fraction  # only this function needs it; a CLI start does not

    if i < 0 or j < 0 or alpha < 0:
        raise ValidationError("indices must be >= 0")
    if i > j:
        # I(i, j, alpha; c) = I(j, i, alpha; -c): swap the Laguerre factors
        i, j, c = j, i, -c
    cf = Fraction(c)
    d = j - i
    pref = Fraction(math.factorial(j + alpha), math.factorial(i) * math.factorial(d))
    x = cf * cf
    series = term = Fraction(1)
    for t in range(i):  # the denominator (1 + d + t) (t + 1) never vanishes
        term *= Fraction(t - i) * (1 + j + alpha + t) / ((1 + d + t) * (t + 1)) * x
        series += term
    bracket = Fraction(i + j + alpha + 1) * cf**d
    if d > 0:
        bracket += d * cf ** (d - 1)
    return float((-1) ** d * pref * series * bracket)


@dataclass(frozen=True)
class LmDensity:
    """Operator coefficients against the labelled eigenbasis.

    Shell 2l of the embedding is exactly the Fock rows of total T = 2l, so
    ``same_shell[2l]`` is the pushed operator's diagonal block on those rows:
    row a holds m = a - l, and entry (a, a') multiplies |l, m><l, m'|.
    Coherences between different shells are carried separately, as
    (two_l_ket, two_m_ket, two_l_bra, two_m_bra, coefficient), because only
    same-shell terms have a closed spherical form.
    """

    n: int
    same_shell: dict[int, np.ndarray]
    cross_shell: tuple[tuple[int, int, int, int, complex], ...]

    @classmethod
    def from_density(cls, density: OscillatorDensity) -> "LmDensity":
        """Read each shell's block off the Fock rows of its total.

        Entries at or below ``_LM_CUT`` times the largest element (at least 1)
        are zeroed, so that push roundoff never masquerades as a cross-shell
        coherence; shells left all zero are omitted.
        """
        e = density.elements
        mag = np.abs(e)
        kept = mag > _LM_CUT * max(1.0, float(np.max(mag, initial=0.0)))
        same: dict[int, np.ndarray] = {}
        for total, (block, rho) in enumerate(zip(_same_total_blocks(density.n, kept),
                                                 _same_total_blocks(density.n, e))):
            if block.any():
                same[total] = _readonly(np.where(block, rho, 0.0))
            block[...] = False
        f, g = np.nonzero(kept)
        n1, n2 = np.array(fock_states(density.n)).T
        # elements[f, g] multiplies |f><g|: ket labels from f, bra from g
        cross = zip((n1 + n2)[f].tolist(), (n1 - n2)[f].tolist(), (n1 + n2)[g].tolist(),
                    (n1 - n2)[g].tolist(), e[f, g].tolist())
        return cls(density.n, same, tuple(cross))


def ws_analytic(lm_density: LmDensity, theta, phi) -> np.ndarray:
    """Spherical function from the per-shell closed forms, on arrays of angles.

    Only same-shell terms are supported; cross-shell coherences are refused
    with the offending terms named. An operator has none once averaged:
    ``LmDensity.from_density(fiber_average(d))`` gives the values of
    ``ws_numeric_many(d)``. The function is rotation covariant, so each
    shell 2l is its value at the pole rotated to the direction:

        W = sum_m delta_m(l) <l, m; theta, phi| rho_l |l, m; theta, phi>,
        |l, m; theta, phi> = exp(-i phi J3) exp(-i theta J2) |l, m>,

    where rho_l is the shell's block and delta_m(l) the exact closed form of
    |l, m><l, m| at theta = 0. The rotation comes from one eigendecomposition
    of J2 per shell. Each distinct theta of the call forms the rotated
    diagonal once; each point then adds its azimuthal harmonics elementwise,
    so a value does not depend on the other points of the call. Non-Hermitian
    shell blocks, as ``_check_hermitian`` decides, are a NumericError.
    """
    if lm_density.cross_shell:
        labels = ", ".join(
            f"|l={tl/2:g},m={tm/2:g}><l={bl/2:g},m={bm/2:g}|"
            for tl, tm, bl, bm, _ in lm_density.cross_shell[:8]
        )
        more = len(lm_density.cross_shell) - 8
        if more > 0:
            labels += f", and {more} more"
        raise ValidationError(
            f"no closed spherical form for cross-shell coherences: {labels}; "
            "use the numeric route for these terms"
        )
    theta, phi = np.broadcast_arrays(*_finite(theta=theta, phi=phi))
    _check_hermitian(lm_density.same_shell.values())
    # Per shell: the block rho_l (row a holds m = a - l), the eigenpairs of
    # J2 = (J+ - J-) / 2i, where J+ = a1^dag a2 raises row a - 1 to row a by
    # sqrt(a (2l + 1 - a)), delta_m(l), and the harmonic a - a' of each entry.
    top = lm_density.n
    shells = []
    for two_l, rho in lm_density.same_shell.items():
        a = np.arange(two_l + 1)
        upper = 0.5j * np.sqrt(a[1:] * (two_l + 1 - a[1:]))
        mu, vec = np.linalg.eigh(np.diag(upper, 1) + np.diag(upper.conj(), -1))
        # at the pole (c = 1) the radial factor radial_integral_I(2l - a, a, 0, 1.0)
        # is the integer (-1)^a (2a + 1)
        delta = np.where((two_l + a) % 2, -1.0, 1.0) / (4.0 * math.pi) * (2 * a + 1)
        shells.append((rho, mu, vec, delta, (top + a[:, None] - a[None, :]).ravel()))
    phis = phi.ravel()
    values = np.zeros(theta.size, dtype=complex)
    thetas, inverse, counts = np.unique(theta, return_inverse=True, return_counts=True)
    order = np.argsort(inverse.ravel(), kind="stable")
    for t, points in zip(thetas.tolist(), np.split(order, np.cumsum(counts)[:-1])):
        g = np.zeros(2 * top + 1, dtype=complex)
        for rho, mu, vec, delta, harmonic in shells:
            d = ((vec * np.exp(-1j * t * mu)) @ vec.conj().T).real
            # G = d diag(delta) d^T is symmetric, so rho * G pairs rho[a, a'] with G[a', a]
            np.add.at(g, harmonic, (rho * ((d * delta) @ d.T)).ravel())
        ph = phis[points]
        harmonics = np.flatnonzero(g).tolist()
        values[points] = sum(g[k] * np.exp(1j * (k - top) * ph) for k in harmonics)
    return values.real.reshape(theta.shape)


def sphere_normalization(density: OscillatorDensity) -> float:
    """Integral of the spherical function over the sphere, checked in phase space.

    Only the Fock diagonal contributes: any other element varies as
    exp(i a phi), a != 0, about the x3 axis (as a phase of q_j + i p_j in
    four dimensions) and integrates to zero, while the diagonal has no
    phase, so one azimuth times 2 pi is exact. With weight r dr the radial
    integral is a polynomial of degree <= n in cos(theta), so n//2 + 1 (at
    least 2) Gauss-Legendre nodes in cos(theta), or Gauss-Laguerre nodes in
    each |q_j + i p_j|^2 for the Moyal sum, are exact. A gap above 1e-10
    between the two integrals, or non-Hermitian same-total blocks as
    ``_check_hermitian`` decides, is a NumericError. Both equal the
    represented trace.
    """
    e, n = density.elements, density.n
    _check_hermitian(_same_total_blocks(n, e))
    diagonal = OscillatorDensity(n, np.diag(np.diag(e)), float(np.trace(e).real), 0.0)
    nodes = max(2, n // 2 + 1)
    cos_nodes, cos_weights = np.polynomial.legendre.leggauss(nodes)
    total = 2.0 * math.pi * float(ws_numeric_many(diagonal, np.arccos(cos_nodes), 0.0) @ cos_weights)
    # d^4q = drho1 drho2 dalpha1 dalpha2 / 4, and the two phase integrals give (2 pi)^2
    rho, w = _gauss_laguerre(nodes)
    vals = wigner_complex_many(diagonal, np.sqrt(rho)[:, None], 0.0, np.sqrt(rho), 0.0)
    phase_space = float(math.pi**2 * (w @ vals.real @ w))
    if abs(total - phase_space) > 1e-10 * max(1.0, abs(phase_space)):
        raise NumericError(f"sphere integral {total!r} differs from the phase-space "
                           f"integral {phase_space!r} of the Moyal sum")
    return total
