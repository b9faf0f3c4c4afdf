"""Spherical Wigner-like function: radial integration and closed forms.

The spherical function is pi/4 times the radial integral of the reduced
function along each direction, taken with weight r dr. That weight makes
the sphere integral of the result equal the trace of the represented part
of the state, so normalized fully-represented states integrate to 1.

Two evaluation routes are provided. The numeric route uses Gauss-Laguerre
quadrature, exact here because every reduced function is exp(-r) times a
polynomial. The analytic route evaluates, per matrix element within one
angular-momentum shell, a closed form built from terminating Gauss series;
the radial factor is

    I(i, j, alpha; c) = integral_0^inf exp(-r) r^(1+alpha)
        L_j^alpha((1+c) r) L_i^alpha((1-c) r) dr

computed without quadrature. Coherences between different shells have no
closed form here and are refused by the analytic route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import NumericError, ValidationError
from .omega_map import OscillatorDensity, fock_states
from .moyal import wigner_complex_many, wigner_4d_many
from .reduced_space import _require_commuting, hopf_section_arrays

_IMAG_TOL = 1e-10
_LM_CUT = 1e-13


@dataclass(frozen=True)
class SphPoint:
    """Direction on the sphere: polar angle theta, azimuth phi.

    theta must lie in [0, pi]; phi is reduced modulo 2 pi.
    """

    theta: float
    phi: float

    def __post_init__(self):
        th = float(self.theta)
        ph = float(self.phi)
        if not (math.isfinite(th) and math.isfinite(ph)):
            raise ValidationError("angles must be finite")
        if th < -1e-12 or th > math.pi + 1e-12:
            raise ValidationError(f"theta = {th!r} outside [0, pi]")
        object.__setattr__(self, "theta", min(max(th, 0.0), math.pi))
        object.__setattr__(self, "phi", ph % (2.0 * math.pi))


@lru_cache(maxsize=32)
def _gauss_laguerre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.laguerre.laggauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def default_radial_nodes(n: int) -> int:
    """Fewest Gauss-Laguerre nodes exact for n spins: n + 2 nodes integrate
    exp(-r) times any polynomial of degree up to 2n + 3."""
    return n + 2


def ws_numeric_many(density: OscillatorDensity, theta, phi, nodes: int | None = None, *,
                    force_section: bool = False) -> np.ndarray:
    """Spherical function on arrays of angles, by radial Gauss-Laguerre.

    ``force_section`` evaluates along the canonical fiber section even for
    operators failing the commutation test; the result is then
    section-dependent and its real part is returned without the
    imaginary-residual assertion.
    """
    n = density.n
    if nodes is None:
        nodes = default_radial_nodes(n)
    if nodes < n + 2:
        raise ValidationError(
            f"{nodes} radial nodes cannot integrate a degree-{2 * n + 1} "
            f"polynomial exactly; need at least {n + 2}"
        )
    if not force_section:
        _require_commuting(density)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    theta, phi = np.broadcast_arrays(theta, phi)
    r, w = _gauss_laguerre(nodes)
    st = np.sin(theta)[..., None]
    nx = st * np.cos(phi)[..., None]
    ny = st * np.sin(phi)[..., None]
    nz = np.cos(theta)[..., None]
    x1 = r * nx
    x2 = r * ny
    x3 = r * nz
    q1, p1, q2, p2 = hopf_section_arrays(x1, x2, x3)
    if force_section:
        vals = wigner_complex_many(density, q1, p1, q2, p2).real
    else:
        vals = wigner_4d_many(density, q1, p1, q2, p2)
    radial = w * np.exp(r) * r
    return (math.pi / 4.0) * np.sum(vals * radial, axis=-1)


def ws_numeric(density: OscillatorDensity, pt: SphPoint, nodes: int | None = None, *,
               force_section: bool = False) -> float:
    """Spherical function at one direction by radial quadrature."""
    return float(ws_numeric_many(density, pt.theta, pt.phi, nodes,
                                 force_section=force_section))


def _gauss_series_exact(neg_int_a: int, b: Fraction, c: Fraction, x: Fraction) -> Fraction:
    """Terminating Gauss series summed with a running term ratio.

    Every quantity is an exact rational, so alternating-term cancellation
    near |x| -> 1 costs no precision; the caller rounds once at the end.
    """
    terms = -neg_int_a
    total = Fraction(1)
    term = Fraction(1)
    for t in range(terms):
        term *= Fraction(neg_int_a + t) * (b + t) / ((c + t) * (t + 1)) * x
        total += term
    return total


def hypergeom_terminating(neg_int_a: int, b: float, c: float, x: float) -> float:
    """Gauss series F(a, b; c; x) with a a non-positive integer.

    The series terminates after |a| + 1 terms. If c hits a non-positive
    integer before termination the series is undefined and a domain error
    is raised. Floating inputs are promoted to exact rationals, so the
    only rounding is the final one.
    """
    if neg_int_a > 0 or int(neg_int_a) != neg_int_a:
        raise ValidationError(f"first parameter must be a non-positive integer, got {neg_int_a!r}")
    terms = -int(neg_int_a)
    if float(c).is_integer() and c <= 0 and -c < terms:
        raise ValidationError(
            f"series pole: denominator parameter {c} reaches zero before termination"
        )
    return float(_gauss_series_exact(int(neg_int_a), Fraction(b), Fraction(c), Fraction(x)))


def radial_integral_I(i: int, j: int, alpha: int, c: float) -> float:
    """Closed form of the exponential-weighted cross-Laguerre radial integral.

    Evaluated from the terminating-series form that stays finite on the
    whole interval c in [-1, 1], including c = 0; the c^(-1) term that
    formally appears at i = j carries a zero coefficient and is dropped.
    All factors are exact rationals, rounded once on return, which keeps
    the large near-cancelling sums at |c| close to 1 at full precision.
    """
    if i < 0 or j < 0 or alpha < 0:
        raise ValidationError("indices must be >= 0")
    cf = Fraction(c)
    x = cf * cf
    if i <= j:
        sign = (-1) ** (j - i)
        pref = Fraction(math.factorial(j + alpha),
                        math.factorial(i) * math.factorial(j - i))
        series = _gauss_series_exact(-i, Fraction(1 + j + alpha), Fraction(1 + j - i), x)
    else:
        sign = 1
        pref = Fraction(math.factorial(i + alpha),
                        math.factorial(j) * math.factorial(i - j))
        series = _gauss_series_exact(-j, Fraction(1 + i + alpha), Fraction(1 + i - j), x)
    d = abs(i - j)
    bracket = Fraction(i + j + alpha + 1) * cf**d
    if d > 0:
        bracket += Fraction(j - i) * cf ** (d - 1)
    return float(sign * pref * series * bracket)


# The radial factor depends on theta alone, and grids sweep phi at fixed
# theta: each distinct (i, j, alpha, cos theta) is summed in exact
# arithmetic once. A theta row has at most (n+1)(n+2)(n+3)/6 distinct
# keys (455 at n = 12), so the bound holds several rows.
_radial_memo = lru_cache(maxsize=4096)(radial_integral_I)


@dataclass(frozen=True)
class LmDensity:
    """Operator coefficients against the labelled eigenbasis.

    Same-shell entries are (two_l, two_m_ket, two_m_bra, coefficient) for
    the operator |l, m_ket><l, m_bra|. Coherences between different shells
    are carried separately because only same-shell terms have a closed
    spherical form.
    """

    n: int
    same_shell: tuple[tuple[int, int, int, complex], ...]
    cross_shell: tuple[tuple[int, int, int, int, complex], ...]

    @classmethod
    def from_density(cls, density: OscillatorDensity) -> "LmDensity":
        """Relabel Fock matrix elements by their shell quantum numbers.

        Entries below ``_LM_CUT`` times the largest element (at least 1) are
        dropped, so that push roundoff never masquerades as a cross-shell
        coherence.
        """
        tol = _LM_CUT * max(1.0, float(np.max(np.abs(density.elements), initial=0.0)))
        states = fock_states(density.n)
        same: list[tuple[int, int, int, complex]] = []
        cross: list[tuple[int, int, int, int, complex]] = []
        rows, cols = np.nonzero(np.abs(density.elements) > tol)
        for f, g in zip(rows, cols):
            v = complex(density.elements[f, g])
            bl, bm = states[f][0] + states[f][1], states[f][0] - states[f][1]
            kl, km = states[g][0] + states[g][1], states[g][0] - states[g][1]
            # elements[f, g] multiplies |f><g|: ket labels from f, bra from g
            if bl == kl:
                same.append((bl, bm, km, v))
            else:
                cross.append((bl, bm, kl, km, v))
        return cls(density.n, tuple(same), tuple(cross))

    @cached_property
    def _terms(self) -> tuple[tuple[complex, int, int, int, int], ...]:
        """Point-independent parts of each same-shell closed form.

        Per term: the coefficient v (-1)^(2l) / (4 pi) times the factorial
        ratio, the sign of the azimuth in its phase, the power dm of that
        phase, and the indices (i, j) of its radial factor I(i, j, dm; c).
        """
        terms = []
        for two_l, two_m, two_mp, v in self.same_shell:
            parity = -1.0 if two_l % 2 else 1.0
            lpm = (two_l + two_m) // 2
            lmm = (two_l - two_m) // 2
            lpmp = (two_l + two_mp) // 2
            lmmp = (two_l - two_mp) // 2
            if two_m <= two_mp:
                ratio = math.exp(0.5 * (math.lgamma(lpm + 1) + math.lgamma(lmmp + 1)
                                        - math.lgamma(lpmp + 1) - math.lgamma(lmm + 1)))
                term = (-1, (two_mp - two_m) // 2, lmmp, lpm)
            else:
                ratio = math.exp(0.5 * (math.lgamma(lpmp + 1) + math.lgamma(lmm + 1)
                                        - math.lgamma(lpm + 1) - math.lgamma(lmmp + 1)))
                term = (+1, (two_m - two_mp) // 2, lmm, lpmp)
            terms.append((v * parity / (4.0 * math.pi) * ratio, *term))
        return tuple(terms)


def _phase_powers(sin_theta: float, phi: float, sign: int, top: int) -> list[complex]:
    """Powers 0..top of -sin(theta) e^(i sign phi), by repeated multiplication."""
    base = -sin_theta * complex(math.cos(sign * phi), math.sin(sign * phi))
    out = [1.0 + 0.0j]
    for _ in range(top):
        out.append(out[-1] * base)
    return out


def ws_analytic(lm_density: LmDensity, pt: SphPoint) -> float:
    """Spherical function from the per-element closed forms.

    Only same-shell terms are supported; cross-shell coherences are refused
    with the offending terms named, so callers can fall back to the numeric
    route explicitly.
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
    cos_t = math.cos(pt.theta)
    sin_t = math.sin(pt.theta)
    # |m - m'| <= 2l <= n bounds every term's phase power
    powers = {sign: _phase_powers(sin_t, pt.phi, sign, lm_density.n) for sign in (-1, 1)}
    total = 0.0 + 0.0j
    for coef, sign, dm, i, j in lm_density._terms:
        total += coef * powers[sign][dm] * _radial_memo(i, j, dm, cos_t)
    if abs(total.imag) > _IMAG_TOL:
        raise NumericError(
            f"imaginary residual {abs(total.imag):.3e} exceeds {_IMAG_TOL:.0e} "
            "in the closed-form spherical sum"
        )
    return total.real


def sphere_normalization(density: OscillatorDensity,
                         resolution: tuple[int, int] | None = None,
                         nodes: int | None = None) -> float:
    """Integral of the spherical function over the sphere.

    Along each ray the reduced function is exp(-r) times a polynomial of
    degree at most n in r, so its radial integral with weight r dr is a
    polynomial of degree at most n in the direction cosines. Gauss-Legendre
    with n//2 + 1 nodes in cos(theta), crossed with n + 1 uniform azimuths
    (at least 2 of each), integrates such a polynomial exactly; that rule
    is the default. An explicit ``resolution`` (n_theta, n_phi) replaces it.
    Equals 1 for normalized pure states inside the represented subspace.
    """
    if resolution is None:
        resolution = (max(2, density.n // 2 + 1), max(2, density.n + 1))
    n_theta, n_phi = resolution
    if n_theta < 2 or n_phi < 2:
        raise ValidationError("resolution must be at least 2 nodes per angle")
    cos_nodes, cos_weights = np.polynomial.legendre.leggauss(n_theta)
    thetas = np.arccos(cos_nodes)
    phis = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    grid_theta = np.repeat(thetas, n_phi)
    grid_phi = np.tile(phis, n_theta)
    vals = ws_numeric_many(density, grid_theta, grid_phi, nodes).reshape(n_theta, n_phi)
    return float(np.sum(vals.sum(axis=1) * cos_weights) * (2.0 * math.pi / n_phi))
