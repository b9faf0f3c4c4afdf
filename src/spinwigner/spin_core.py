"""Collective spin operators and the labelled (S^2, S_3) eigenbasis, which
is read one shell at a time through ``AngularBasis.towers``.

Conventions used throughout the package:

* The N-spin Hilbert space is indexed by bit-strings of length N. Bit = 1
  means "up" on that site and the most significant bit belongs to spin 1,
  so for two spins index 3 = 0b11 is |up,up> and index 0 is |down,down>.
* "Lexicographic order" of basis states means the order of their arrow
  strings with "up" sorting before "down". Numerically that is descending
  integer index: |up..up> first, |down..down> last. Canonical phases and
  the Gram-Schmidt sweep below both use this order.
* Half-integer quantum numbers are stored doubled (``two_l = 2l``,
  ``two_m = 2m``) so labels compare exactly.

Everything returned here is immutable: arrays are marked read-only, so a
cached array (``_s3_diagonal``) or a validated one (a state's amplitudes, an
operator's matrix) cannot be changed after it was checked or shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .errors import CapacityError, NumericError, ValidationError

#: Largest spin count accepted by default. States, the embedding's towers
#: and the push are handled by O(n 2^n) bit flips; what stays dense (4^n
#: memory, 268 MB complex at n = 12) is the ``operator`` kind's matrix and
#: the dense operator builders.
DEFAULT_MAX_SPINS = 12

_NORM_TOL = 1e-9
_WEIGHT_TOL = 1e-12
_GS_TOL = 1e-7


def _check_capacity(n: int, max_spins: int | None) -> None:
    limit = DEFAULT_MAX_SPINS if max_spins is None else max_spins
    if n < 1 or n > limit:
        raise CapacityError(
            f"spin count {n} outside supported range 1..{limit} "
            "(raise max_spins to allow more; the operator kind and the dense "
            "builders take 4^n memory)"
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
        amps = np.asarray(self.amplitudes, dtype=complex)
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
        w = np.asarray(self.weights, dtype=float)
        amps = np.asarray(self.amplitudes, dtype=complex)
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
        rho = np.zeros((2**self.n, 2**self.n), dtype=complex)
        for w, psi in zip(self.weights, self.amplitudes.T):
            rho += w * np.outer(psi, psi.conj())
        return rho if dtype is None else rho.astype(dtype, copy=False)


@dataclass(frozen=True)
class SpinOperator:
    """Dense operator on the 2^n dimensional spin space."""

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        dim = 2**self.n
        if mat.shape != (dim, dim):
            raise ValidationError(f"operator shape {mat.shape}, expected ({dim}, {dim})")
        object.__setattr__(self, "matrix", _readonly(mat))


@dataclass(frozen=True)
class AngularBasis:
    """Orthonormal simultaneous eigenbasis of (S^2, S_3), labelled (k, l, m):
    vector (k, l, m) is row l - m of tower k of shell 2l, built on demand."""

    n: int

    def towers(self, two_l: int, count: int) -> np.ndarray:
        """The first ``count`` towers of shell ``two_l``, shape
        (count, two_l + 1, 2^n); row s of a tower has m = l - s."""
        mult = shell_multiplicity(self.n, two_l)
        if not 1 <= count <= mult:
            raise ValidationError(
                f"shell 2l = {two_l} of {self.n} spins has {mult} towers, {count} requested")
        return _shell_towers(self.n, two_l, count)


def shell_multiplicity(n: int, two_l: int) -> int:
    """Multiplicity of the spin-l irrep in n spin halves (Catalan triangle)."""
    d = (n - two_l) // 2
    if two_l < 0 or two_l > n or (n - two_l) % 2 != 0:
        return 0
    return comb(n, d) - (comb(n, d - 1) if d >= 1 else 0)


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


def _ladder_plus(n: int) -> np.ndarray:
    """Collective raising operator: sum over sites of |up><down|."""
    return _apply_ladder(np.eye(2**n, dtype=complex), True)


@lru_cache(maxsize=64)
def _s3_diagonal(n: int) -> np.ndarray:
    counts = np.array([bin(i).count("1") for i in range(2**n)], dtype=float)
    return _readonly(counts - n / 2.0)


def _collective(n: int, axis: int) -> np.ndarray:
    sp = _ladder_plus(n)
    sm = sp.conj().T
    if axis == 1:
        return (sp + sm) / 2.0
    if axis == 2:
        return (sp - sm) / 2.0j
    return np.diag(_s3_diagonal(n)).astype(complex)


def build_collective_spin(n: int, axis: int, *, max_spins: int | None = None) -> SpinOperator:
    """Collective spin component: half the sum of single-site Pauli matrices.

    ``axis`` is 1, 2 or 3 for the x, y, z components.
    """
    _check_capacity(n, max_spins)
    if axis not in (1, 2, 3):
        raise ValidationError(f"axis must be 1, 2 or 3, got {axis!r}")
    return SpinOperator(n, _collective(n, axis))


def total_spin_squared(n: int, *, max_spins: int | None = None) -> SpinOperator:
    """Total spin squared S^2 = S_1^2 + S_2^2 + S_3^2."""
    _check_capacity(n, max_spins)
    return SpinOperator(n, _apply_s2(np.eye(2**n, dtype=complex)))


def ladder(n: int, direction: str, *, max_spins: int | None = None) -> SpinOperator:
    """Collective ladder operator S_+ ("raise") or S_- ("lower")."""
    _check_capacity(n, max_spins)
    if direction == "raise":
        return SpinOperator(n, _ladder_plus(n))
    if direction == "lower":
        return SpinOperator(n, _ladder_plus(n).conj().T)
    raise ValidationError(f'direction must be "raise" or "lower", got {direction!r}')


def _shell_towers(n: int, two_l: int, count: int) -> np.ndarray:
    """Read-only real (count, two_l + 1, 2^n) array of a shell's first towers.

    In the S_3 = l sector only shells l' >= l occur, so the highest weights
    span the image of P_l = prod_{l' > l} (S^2 - l'(l'+1)) / (l(l+1) - l'(l'+1)).
    Gram-Schmidt over P_l e_j, one sector index j at a time in lexicographic
    order, makes them depend only on the subspace and not on ``count``; each
    gets its lex-first non-negligible amplitude positive, and S_- then fills
    each tower downward (row s has m = l - s).
    """
    dim = 2**n
    casimir = [t * (t + 2) / 4.0 for t in range(two_l, n + 1, 2)]
    sector = np.flatnonzero(_s3_diagonal(n) == two_l / 2.0)[::-1]  # lex order
    top = np.zeros((count, dim))
    found = 0
    for j in sector:
        w = np.zeros(dim)
        w[j] = 1.0
        for c in casimir[1:]:
            w = (_apply_s2(w) - c * w) / (casimir[0] - c)
        for _ in range(2):  # re-orthogonalize once for stability
            w -= top[:found].T @ (top[:found] @ w)
        nrm = np.linalg.norm(w)
        if nrm > _GS_TOL:
            top[found] = w / nrm
            found += 1
            if found == count:
                break
    if found != count:
        raise NumericError(f"Gram-Schmidt recovered {found} of {count} highest weights")

    lead = dim - 1 - np.argmax(np.abs(top[:, ::-1]) > 1e-12, axis=1)
    top *= np.sign(top[np.arange(count), lead])[:, None]
    towers = np.empty((count, two_l + 1, dim))
    towers[:, 0] = top
    for step in range(1, two_l + 1):
        # contiguous rows: each norm is reduced the same way whatever ``count`` is
        w = np.ascontiguousarray(_apply_ladder(towers[:, step - 1].T, False).T)
        towers[:, step] = w / np.linalg.norm(w, axis=1, keepdims=True)
    return _readonly(towers)


def decompose_angular_basis(n: int, *, max_spins: int | None = None) -> AngularBasis:
    """The (k, l, m) eigenbasis of n spins after a capacity check.

    No tower is built here: ``AngularBasis.towers`` builds the ones a caller
    asks for. Repeated builds return bit-identical vectors.
    """
    _check_capacity(n, max_spins)
    return AngularBasis(n)
