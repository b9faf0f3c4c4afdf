"""Collective spin algebra by bit flips and the represented part of the
labelled (S^2, S_3) eigenbasis: tower k = 0 of each shell, in
``AngularBasis.towers``.

Conventions used throughout the package:

* The N-spin Hilbert space is indexed by bit-strings of length N. Bit = 1
  means "up" on that site and the most significant bit belongs to spin 1,
  so for two spins index 3 = 0b11 is |up,up> and index 0 is |down,down>.
* "Lexicographic order" of basis states means the order of their arrow
  strings with "up" sorting before "down". Numerically that is descending
  integer index: |up..up> first, |down..down> last. Each tower's top is
  projected from the first basis state of its S_3 sector in this order.
* Half-integer quantum numbers are stored doubled (``two_l = 2l``,
  ``two_m = 2m``) so labels compare exactly.

Everything returned here is immutable: arrays are marked read-only, so a
cached array (``_s3_diagonal``), a validated one (a state's amplitudes) or
a built tower cannot be changed after it was checked or shared.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import CapacityError, ValidationError

#: Largest spin count accepted, for every kind. States and the towers, which
#: are the map, take O(n^2 2^n) memory; what stays dense (4^n memory, 268 MB
#: complex at n = 12) is the ``operator`` kind's matrix.
DEFAULT_MAX_SPINS = 12

_NORM_TOL = 1e-9
_WEIGHT_TOL = 1e-12


def _check_capacity(n: int) -> None:
    if n < 1 or n > DEFAULT_MAX_SPINS:
        raise CapacityError(
            f"spin count {n} outside supported range 1..{DEFAULT_MAX_SPINS} "
            "(the operator kind takes 4^n memory)"
        )


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SpinState:
    """Pure state of ``n`` spin-half particles as a normalized amplitude vector."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)  # a copy: the caller's array stays writable
        if amps.shape != (2**self.n,):
            raise ValidationError(
                f"amplitude vector has shape {amps.shape}, expected ({2**self.n},)"
            )
        nrm2 = float(np.vdot(amps, amps).real)
        if not abs(nrm2 - 1.0) <= _NORM_TOL:  # written so that NaN fails
            raise ValidationError(f"state norm^2 = {nrm2!r} is not 1 within {_NORM_TOL}")
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @property
    def density(self) -> np.ndarray:
        """Rank-one density matrix |psi><psi|."""
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True)
class SpinMixture:
    """Convex mixture sum_i w_i |psi_i><psi_i| kept in factored form.

    ``amplitudes[:, i]`` is the normalized state psi_i and ``weights[i]``
    its weight. Weights are non-negative and sum to 1, so the density is
    positive semidefinite with unit trace by construction. ``np.asarray``
    gives the dense 2^n x 2^n matrix.
    """

    n: int
    weights: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)  # copies: the caller's arrays stay writable
        amps = np.array(self.amplitudes, dtype=complex)
        if w.ndim != 1 or w.size == 0:
            raise ValidationError("mixture needs at least one component")
        if amps.shape != (2**self.n, w.size):
            raise ValidationError(
                f"amplitude columns have shape {amps.shape}, expected ({2**self.n}, {w.size})"
            )
        # Each test is written so that NaN fails it.
        if not np.all(w >= -_WEIGHT_TOL):
            raise ValidationError(f"mixture weights {w.tolist()!r} are not all non-negative")
        total = sum(w.tolist())
        if not abs(total - 1.0) <= _WEIGHT_TOL:
            raise ValidationError(f"mixture weights sum to {total!r}, not 1")
        nrm2 = np.sum(np.abs(amps) ** 2, axis=0)
        if not np.all(np.abs(nrm2 - 1.0) <= _NORM_TOL):
            raise ValidationError(f"component norms^2 {nrm2!r} are not 1 within {_NORM_TOL}")
        object.__setattr__(self, "weights", _readonly(w))
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @property
    def trace(self) -> float:
        return float(np.sum(self.weights * np.sum(np.abs(self.amplitudes) ** 2, axis=0)))

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a SpinMixture has no dense matrix to share; it is built anew")
        rho = np.zeros((2**self.n, 2**self.n), dtype=complex)
        for w, psi in zip(self.weights, self.amplitudes.T):
            rho += w * np.outer(psi, psi.conj())
        return rho if dtype is None else rho.astype(dtype, copy=False)


@dataclass(frozen=True)
class AngularBasis:
    """The represented part of the (S^2, S_3) eigenbasis of n spins: tower
    k = 0 of every shell. ``towers[2l]`` is a read-only real (2l + 1, 2^n)
    array whose row s is the vector (0, l, l - s)."""

    n: int
    towers: Mapping[int, np.ndarray]


def _apply_ladder(x: np.ndarray, raising: bool) -> np.ndarray:
    """Apply S_+ (``raising``) or S_- along axis 0 of a (2^n, ...) array.

    Site ``bit`` contributes |up><down| on that bit: S_+ adds the amplitude
    of every index with the bit clear onto the index with it set. Viewing
    axis 0 as (high bits, this bit, low bits) makes that one slice addition
    per site, O(n 2^n) per column and no 2^n x 2^n matrix.
    """
    x = np.ascontiguousarray(x)
    dim = x.shape[0]
    src, dst = (0, 1) if raising else (1, 0)
    out = np.zeros(x.shape, dtype=np.result_type(x.dtype, float))
    for bit in range(dim.bit_length() - 1):
        shape = (dim >> (bit + 1), 2, 1 << bit, -1)
        out.reshape(shape)[:, dst] += x.reshape(shape)[:, src]
    return out


def _apply_s2(x: np.ndarray) -> np.ndarray:
    """Total spin squared along axis 0, as S_- S_+ + S_3 (S_3 + 1)."""
    s3 = _s3_diagonal(x.shape[0].bit_length() - 1).reshape((-1,) + (1,) * (x.ndim - 1))
    return _apply_ladder(_apply_ladder(x, True), False) + (s3 * (s3 + 1.0)) * x


@lru_cache(maxsize=64)
def _s3_diagonal(n: int) -> np.ndarray:
    counts = np.array([bin(i).count("1") for i in range(2**n)], dtype=float)
    return _readonly(counts - n / 2.0)


def _first_tower(n: int, two_l: int) -> np.ndarray:
    """Read-only real (two_l + 1, 2^n) array: tower k = 0 of shell ``two_l``.

    In the S_3 = l sector only shells l' >= l occur, so
    P_l = prod_{l' > l} (S^2 - l'(l'+1)) / (l(l+1) - l'(l'+1)) projects it
    onto the shell's highest weights. The top of the tower is P_l e_j for
    the sector's lexicographically first index j (ups on the leading sites),
    normalized. It needs no sign fix: <e_j|P_l e_j> = |P_l e_j|^2 > 0 and no
    sector index precedes j. S_- then fills the tower downward (row s has
    m = l - s).
    """
    ups = (n + two_l) // 2
    casimir = [t * (t + 2) / 4.0 for t in range(two_l, n + 1, 2)]
    w = np.zeros(2**n)
    w[(2**ups - 1) << (n - ups)] = 1.0
    for c in casimir[1:]:
        w = (_apply_s2(w) - c * w) / (casimir[0] - c)
    tower = np.empty((two_l + 1, 2**n))
    tower[0] = w / np.linalg.norm(w)
    for step in range(1, two_l + 1):
        # an axis norm of a (1, 2^n) row, as the map has always been built;
        # a 1-D norm reduces in another order
        w = _apply_ladder(tower[step - 1], False)[None]
        tower[step] = w / np.linalg.norm(w, axis=1)
    return _readonly(tower)


def decompose_angular_basis(n: int) -> AngularBasis:
    """The represented towers of n spins after a capacity check: tower k = 0
    of each shell 2l = n, n - 2, ..., built once here.

    The other towers of a degenerate shell are never built; the embedding
    annihilates them. Repeated builds return bit-identical vectors.
    """
    _check_capacity(n)
    shells = range(n, n % 2 - 1, -2)
    return AngularBasis(n, MappingProxyType({two_l: _first_tower(n, two_l) for two_l in shells}))
