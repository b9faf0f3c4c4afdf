"""Canonical map from the N-spin space into a truncated two-mode Fock space.

The truncated Fock basis enumerates pairs (n1, n2) with n1 + n2 <= cutoff,
ordered by total excitation and then by n1, so index 0 is (0, 0) and the
rows of total T are [T(T+1)/2, (T+1)(T+2)/2). A basis vector |0, l, m> of
the first degeneracy tower of each shell is sent to |l+m, l-m>, so shell 2l
fills exactly the rows of total T = 2l; all other towers are annihilated.
So the map is one real block per total, the tower itself. It intertwines
the collective spin components with their two-mode bilinears, which keep
the total: J_+ = a1^dag a2 is a weighted one-row shift inside each total,
so the check and the push run one total at a time.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import NumericError, ValidationError
from .spin_core import AngularBasis, SpinMixture, _apply_ladder, _apply_s2, _readonly, _s3_diagonal

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


@dataclass(frozen=True)
class OmegaMap:
    """The linear map as one block per Fock total T: ``towers[T][s, j]`` is the
    amplitude of Fock state (T - s, s) in the image of computational basis
    state j; a total not held maps to zero. Blocks are read-only float64 (a
    complex one is accepted only when its imaginary part is zero), copied
    only when writable or not float64, so the basis's towers are shared.
    """

    n: int
    towers: Mapping[int, np.ndarray]

    def __post_init__(self):
        held = {}
        for total, t in self.towers.items():
            t = np.asarray(t)
            if total not in range(self.n + 1) or t.shape != (total + 1, 2**self.n):
                raise ValidationError(f"block of shape {t.shape} at Fock total {total!r}; "
                                      f"a total T in 0..{self.n} takes (T + 1, {2**self.n})")
            if np.iscomplexobj(t) and np.any(t.imag):
                raise ValidationError(f"block of total {total} has a non-zero imaginary part")
            if t.flags.writeable or t.dtype != np.float64:
                t = _readonly(np.array(t.real, dtype=float))
            held[int(total)] = t
        object.__setattr__(self, "towers", MappingProxyType(held))


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
        e = np.array(self.elements, dtype=complex)  # a copy: the caller's array stays writable
        size = len(fock_states(self.n))
        if e.shape != (size, size):
            raise ValidationError(f"element matrix shape {e.shape}, expected ({size}, {size})")
        object.__setattr__(self, "elements", _readonly(e))

    @property
    def commutes_with_s2(self) -> bool:
        return self.s2_residual <= S2_COMMUTE_TOL


def construct_omega(basis: AngularBasis) -> OmegaMap:
    """The canonical embedding, whose block of total 2l is ``basis.towers[2l]``,
    shared; the intertwining property is verified before returning."""
    omega = OmegaMap(basis.n, basis.towers)
    residual = intertwining_residual(omega)
    if not residual <= _INTERTWINE_TOL:
        raise NumericError(
            f"intertwining residual {residual:.3e} exceeds {_INTERTWINE_TOL:.0e}; "
            "the supplied basis is inconsistent"
        )
    return omega


def intertwining_residual(omega: OmegaMap) -> float:
    """Max entrywise deviation between mapped spin action and ladder action.

    The spin side acts on the rows of each held block c (row n1 first):
    ``c @ S_+`` is S_- applied to the columns of ``c.T`` (and vice versa),
    and ``c @ S_3`` scales column j by its S_3 eigenvalue. The two-mode side
    shifts the rows by one (J_+ c, J_- c), J_+ = a1^dag a2 taking row
    (n1 - 1, n2 + 1) to (n1, n2) with weight sqrt(n1 (n2 + 1)), and scales
    row (n1, n2) by (n1 - n2) / 2 (J_3 c).
    """
    s3 = _s3_diagonal(omega.n)
    worst = []
    for total, t in omega.towers.items():
        n1 = np.arange(total + 1)[:, None]
        block, weight = t[::-1], np.sqrt(n1[1:] * (total - n1[1:] + 1.0))
        d_plus = _apply_ladder(block.T, False).T  # c S_+ - J_+ c
        d_plus[1:] -= weight * block[:-1]
        d_minus = _apply_ladder(block.T, True).T  # c S_- - J_- c
        d_minus[:-1] -= weight * block[1:]
        m = n1 - total / 2.0
        worst += [np.abs(d_plus + d_minus).max() / 2.0, np.abs(d_plus - d_minus).max() / 2.0,
                  np.abs(block * (s3 - m)).max()]
    return float(np.max(worst, initial=0.0))


def _image(omega: OmegaMap, x: np.ndarray) -> np.ndarray:
    """c x for a (2^n, k) array x: per held total, one real product of the
    block with x's interleaved real and imaginary parts, so neither is made
    complex. Rows of totals not held stay zero."""
    x = np.ascontiguousarray(x, dtype=complex)
    parts = x.view(float)
    out = np.zeros((len(fock_states(omega.n)), x.shape[1]), dtype=complex)
    for total, t in omega.towers.items():
        lo = total * (total + 1) // 2
        out[lo:lo + total + 1] = (t @ parts).view(complex)[::-1]
    return out


def _commutator_residual(p: np.ndarray, q: np.ndarray) -> float:
    """Residual of P Q^H - Q P^H, without forming it when it is small.

    With the thin QR [P, Q] = Z [R_p, R_q], the difference is
    Z (R_p R_q^H - R_q R_p^H) Z^H and Z has orthonormal columns, so its
    Frobenius norm is that of the small core; it bounds the max entry from
    above. When the bound is within ``S2_COMMUTE_TOL`` it is returned, so a
    commuting operator's ``s2_residual`` holds the bound (no output line
    shows it); otherwise the max entry is formed a block of rows at a time.
    """
    k = p.shape[1]
    r = np.linalg.qr(np.hstack([p, q]), mode="r")
    bound = float(np.linalg.norm(r[:, :k] @ r[:, k:].conj().T - r[:, k:] @ r[:, :k].conj().T))
    if bound <= S2_COMMUTE_TOL:
        return bound
    rows = max(1, _RESIDUAL_BLOCK // p.shape[0])
    return max(float(np.max(np.abs(p[i:i + rows] @ q.conj().T - q[i:i + rows] @ p.conj().T)))
               for i in range(0, p.shape[0], rows))


def _pushed(omega: OmegaMap, elements: np.ndarray, residual: float) -> OscillatorDensity:
    return OscillatorDensity(omega.n, elements, float(np.trace(elements).real), residual)


def _push_dense(omega: OmegaMap, op: np.ndarray) -> OscillatorDensity:
    # op S^2 - S^2 op, with op S^2 = (S^2 op^T)^T since S^2 is real symmetric
    residual = float(np.max(np.abs(_apply_s2(op.T).T - _apply_s2(op))))
    # c op c^T = (c (c op)^H)^H, since c is real
    return _pushed(omega, _image(omega, _image(omega, op).conj().T).conj().T, residual)


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
    the 2^n x 2^n matrix, one total at a time: the result is sum_i w_i
    (omega psi_i)(omega psi_i)^H, Hermitian and positive by construction,
    so only its trace is checked. The residual of [rho, S^2] is taken from
    P Q^H - Q P^H with P = psi w and Q = S^2 psi (see ``_commutator_residual``).

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
        image = _image(omega, psi)
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
