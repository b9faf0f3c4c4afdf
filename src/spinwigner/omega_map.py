"""Canonical map from the N-spin space into a truncated two-mode Fock space.

The truncated Fock basis enumerates pairs (n1, n2) with n1 + n2 <= cutoff,
ordered by total excitation and then by n1, so index 0 is (0, 0) and the
rows of total T are [T(T+1)/2, (T+1)(T+2)/2). A basis vector |k, l, m> from
the selected degeneracy tower of each shell is sent to |l+m, l-m>; all
other towers are annihilated. The embedding intertwines the collective spin
components with their two-mode bilinears, which keep the total: J_+ =
a1^dag a2 is a weighted one-row shift inside each total, so the check runs
one total at a time. The Gram matrix is an orthogonal projector onto the
represented subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericError, ValidationError
from .spin_core import (AngularBasis, SpinMixture, _apply_ladder, _apply_s2, _readonly,
                        _s3_diagonal, shell_multiplicity)

_HERM_TOL = 1e-10
_PSD_TOL = 1e-10
_TRACE_TOL = 1e-10
_INTERTWINE_TOL = 1e-9
#: Entries of one row block of the commutator residual (4 MB complex).
_RESIDUAL_BLOCK = 1 << 18
#: Spin-space commutator threshold below which an operator counts as
#: compatible with the three-variable reduction.
S2_COMMUTE_TOL = 1e-9


@lru_cache(maxsize=64)
def fock_states(cutoff: int) -> tuple[tuple[int, int], ...]:
    """Ordered truncated basis: (n1, n2) with n1 + n2 <= cutoff."""
    return tuple((n1, total - n1) for total in range(cutoff + 1) for n1 in range(total + 1))


def _raise_weights(cutoff: int) -> np.ndarray:
    """sqrt(n1 (n2 + 1)) per Fock row: the J_+ element from the row before,
    (n1 - 1, n2 + 1), to (n1, n2). It is 0 on each total's first row (n1 = 0),
    so a one-row shift never crosses totals."""
    n1, n2 = np.array(fock_states(cutoff)).T
    return np.sqrt(n1 * (n2 + 1.0))


def jordan_schwinger(fock_cutoff: int, axis: int) -> np.ndarray:
    """Angular-momentum component as a two-mode ladder bilinear.

    J_+ = a1^dag a2 is ``_raise_weights`` on the first sub-diagonal, J_- its
    transpose, J_3 the diagonal (n1 - n2) / 2. None changes the total
    excitation, so the su(2) relations hold to machine precision on the
    truncated basis.
    """
    if fock_cutoff < 1:
        raise ValidationError(f"fock_cutoff must be >= 1, got {fock_cutoff}")
    if axis not in (1, 2, 3):
        raise ValidationError(f"axis must be 1, 2 or 3, got {axis!r}")
    jp = np.diag(_raise_weights(fock_cutoff)[1:], -1).astype(complex)
    if axis == 1:
        return (jp + jp.T) / 2.0
    if axis == 2:
        return (jp - jp.T) / 2.0j
    n1, n2 = np.array(fock_states(fock_cutoff)).T
    return np.diag((n1 - n2) / 2.0).astype(complex)


def jordan_schwinger_squared(fock_cutoff: int) -> np.ndarray:
    """Two-mode counterpart of total spin squared."""
    j1, j2, j3 = (jordan_schwinger(fock_cutoff, ax) for ax in (1, 2, 3))
    return j1 @ j1 + j2 @ j2 + j3 @ j3


@dataclass(frozen=True)
class OmegaMap:
    """Linear map coefficients against the truncated Fock basis.

    ``coefficients[f, j]`` is the amplitude of Fock basis state f in the
    image of computational basis state j.
    """

    n: int
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        expect = (len(fock_states(self.n)), 2**self.n)
        if c.shape != expect:
            raise ValidationError(f"coefficient shape {c.shape}, expected {expect}")
        object.__setattr__(self, "coefficients", _readonly(c))

    @property
    def represented_rank(self) -> int:
        """Rank of the Gram projector: one (2l+1) block per distinct shell."""
        return sum(two_l + 1 for two_l in range(self.n, (self.n % 2) - 1, -2))

    def gram(self) -> np.ndarray:
        return self.coefficients.conj().T @ self.coefficients


@dataclass(frozen=True)
class OscillatorDensity:
    """Operator pushed onto the truncated Fock basis.

    ``elements[f, g]`` holds <f| (pushed operator) |g>. The spin-space
    commutator with S^2 is checked before pushing; its residual and the
    represented trace travel with the object so downstream code can refuse
    or report without re-deriving them.
    """

    n: int
    elements: np.ndarray
    represented_trace: float
    s2_residual: float

    def __post_init__(self):
        e = np.asarray(self.elements, dtype=complex)
        size = len(fock_states(self.n))
        if e.shape != (size, size):
            raise ValidationError(f"element matrix shape {e.shape}, expected ({size}, {size})")
        object.__setattr__(self, "elements", _readonly(e))

    @property
    def commutes_with_s2(self) -> bool:
        return self.s2_residual <= S2_COMMUTE_TOL

    @classmethod
    def from_fock_elements(cls, n: int, elements: np.ndarray) -> "OscillatorDensity":
        """Wrap a raw Fock-basis matrix, deriving the compatibility residual.

        An operator commutes with total spin squared exactly when it is
        block diagonal in total excitation, so the residual can be read off
        the cross-block entries directly.
        """
        e = np.asarray(elements, dtype=complex)
        states = fock_states(n)
        totals = np.array([a + b for a, b in states], dtype=float)
        lvals = totals / 2.0
        casimir = lvals * (lvals + 1.0)
        residual = float(np.max(np.abs((casimir[:, None] - casimir[None, :]) * e), initial=0.0))
        return cls(n, e, float(np.trace(e).real), residual)


def construct_omega(basis: AngularBasis,
                    shell_mixing: dict[int, np.ndarray] | None = None) -> OmegaMap:
    """Build the canonical embedding from a labelled eigenbasis.

    By default the first degeneracy tower (k = 0) of each shell is the one
    represented, and only that tower is built. ``shell_mixing`` optionally
    supplies, per doubled shell label, a unitary of the shell's multiplicity
    that remixes its towers first; row 0 of the unitary then defines the
    represented tower, and every tower of that shell is built. The
    intertwining property is verified before returning.
    """
    n = basis.n
    coeff = np.zeros((len(fock_states(n)), 2**n), dtype=complex)

    mixing = {}
    for two_l, u in (shell_mixing or {}).items():
        u = np.asarray(u, dtype=complex)
        d = shell_multiplicity(n, two_l)
        if d == 0 or u.shape != (d, d) or np.max(np.abs(u.conj().T @ u - np.eye(d))) > 1e-12:
            raise ValidationError(f"shell_mixing[{two_l}] is not a unitary on the shell's "
                                  f"{d} towers")
        mixing[two_l] = u

    for two_l in range(n, (n % 2) - 1, -2):
        u = mixing.get(two_l)
        tower = (basis.towers(two_l, 1)[0] if u is None
                 else np.tensordot(u[0], basis.towers(two_l, len(u)), axes=1))
        lo = two_l * (two_l + 1) // 2
        coeff[lo:lo + two_l + 1] = tower[::-1].conj()  # row lo + n1 holds m = n1 - l

    omega = OmegaMap(n, coeff)
    residual = intertwining_residual(omega)
    if not residual <= _INTERTWINE_TOL:
        raise NumericError(
            f"intertwining residual {residual:.3e} exceeds {_INTERTWINE_TOL:.0e}; "
            "the supplied basis is inconsistent"
        )
    return omega


def intertwining_residual(omega: OmegaMap) -> float:
    """Max entrywise deviation between mapped spin action and ladder action.

    The spin side acts on the rows of the map: ``c @ S_+`` is S_- applied
    to the columns of ``c.T`` (and vice versa), and ``c @ S_3`` scales
    column j by its S_3 eigenvalue. The two-mode side acts on each total's
    rows alone: J_+ c and J_- c shift them by one row with the weights of
    ``_raise_weights``, and J_3 c scales row (n1, n2) by (n1 - n2) / 2.
    """
    c, w, s3 = omega.coefficients, _raise_weights(omega.n), _s3_diagonal(omega.n)
    worst = []
    for total in range(omega.n + 1):
        lo = total * (total + 1) // 2
        block, weight = c[lo:lo + total + 1], w[lo + 1:lo + total + 1, None]
        if not block.any():  # zero residual: ω fills no total of the other parity to n
            continue
        d_plus = _apply_ladder(block.T, False).T  # c S_+ - J_+ c
        d_plus[1:] -= weight * block[:-1]
        d_minus = _apply_ladder(block.T, True).T  # c S_- - J_- c
        d_minus[:-1] -= weight * block[1:]
        m = np.arange(total + 1)[:, None] - total / 2.0
        worst += [np.abs(d_plus + d_minus).max() / 2.0, np.abs(d_plus - d_minus).max() / 2.0,
                  np.abs(block * (s3 - m)).max()]
    return float(np.max(worst, initial=0.0))


def _commutator_residual(p: np.ndarray, q: np.ndarray) -> float:
    """Max entry of P Q^H - Q P^H, formed a block of rows at a time."""
    rows = max(1, _RESIDUAL_BLOCK // p.shape[0])
    return max(float(np.max(np.abs(p[i:i + rows] @ q.conj().T - q[i:i + rows] @ p.conj().T)))
               for i in range(0, p.shape[0], rows))


def _pushed(omega: OmegaMap, elements: np.ndarray, residual: float) -> OscillatorDensity:
    return OscillatorDensity(omega.n, elements, float(np.trace(elements).real), residual)


def _push_dense(omega: OmegaMap, op: np.ndarray) -> OscillatorDensity:
    # op S^2 - S^2 op, with op S^2 = (S^2 op^T)^T since S^2 is real symmetric
    residual = float(np.max(np.abs(_apply_s2(op.T).T - _apply_s2(op))))
    c = omega.coefficients
    return _pushed(omega, c @ op @ c.conj().T, residual)


def _dense_operator(omega: OmegaMap, op: np.ndarray, what: str) -> np.ndarray:
    """``op`` as a complex 2^n x 2^n array with finite entries."""
    op = np.asarray(op, dtype=complex)
    dim = 2**omega.n
    if op.shape != (dim, dim):
        raise ValidationError(f"{what} shape {op.shape}, expected ({dim}, {dim})")
    if not np.isfinite(op).all():
        raise ValidationError(f"{what} has a non-finite entry")
    return op


def push_operator(omega: OmegaMap, op: np.ndarray) -> OscillatorDensity:
    """Push an arbitrary spin-space operator through the embedding."""
    return _push_dense(omega, _dense_operator(omega, op, "operator"))


def push_density(omega: OmegaMap, rho: np.ndarray | SpinMixture) -> OscillatorDensity:
    """Push a density operator, validating hermiticity, positivity and trace.

    A ``SpinMixture`` (weights w_i, states psi_i) is pushed without forming
    the 2^n x 2^n matrix: the result is sum_i w_i (omega psi_i)(omega psi_i)^H.
    It is Hermitian and positive by construction, so only its trace is
    checked. The residual of [rho, S^2] is the largest entry of
    P Q^H - Q P^H with P = psi w and Q = S^2 psi.

    The represented trace of the result may be below 1: weight carried by
    discarded degeneracy towers is lost, and callers should inspect
    ``represented_trace`` to detect that.
    """
    if isinstance(rho, SpinMixture):
        if rho.n != omega.n:
            raise ValidationError(f"mixture acts on {rho.n} spins, the map on {omega.n}")
        tr = rho.trace
        if not abs(tr - 1.0) <= _TRACE_TOL:
            raise ValidationError(f"density trace {tr!r} is not 1 within {_TRACE_TOL}")
        psi, w = rho.amplitudes, rho.weights
        residual = _commutator_residual(psi * w, _apply_s2(psi))
        image = omega.coefficients @ psi
        return _pushed(omega, (image * w) @ image.conj().T, residual)
    rho = _dense_operator(omega, rho, "density")
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if not herm <= _HERM_TOL:
        raise ValidationError(f"density is not Hermitian (max deviation {herm:.3e})")
    tr = complex(np.trace(rho))
    if not abs(tr - 1.0) <= _TRACE_TOL:
        raise ValidationError(f"density trace {tr!r} is not 1 within {_TRACE_TOL}")
    lowest = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0])
    if not lowest >= -_PSD_TOL:
        raise ValidationError(f"density has negative eigenvalue {lowest:.3e}")
    return _push_dense(omega, rho)
