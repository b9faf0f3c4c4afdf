"""Collective spin operators and the labelled (S^2, S_3) eigenbasis.

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

Everything returned here is immutable: arrays are marked read-only, so
values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .errors import CapacityError, NumericError, ValidationError

#: Largest spin count accepted by default. States are handled by O(n 2^n)
#: bit flips; what stays dense is the labelled basis (2^n vectors of length
#: 2^n: 4^n memory, 268 MB at n = 12) and the ``operator`` kind's matrix.
DEFAULT_MAX_SPINS = 12

_NORM_TOL = 1e-9
_WEIGHT_TOL = 1e-12
_SVD_TOL = 1e-10
_GS_TOL = 1e-7


def _check_capacity(n: int, max_spins: int | None) -> None:
    limit = DEFAULT_MAX_SPINS if max_spins is None else max_spins
    if n < 1 or n > limit:
        raise CapacityError(
            f"spin count {n} outside supported range 1..{limit} "
            "(raise max_spins to allow more; the labelled basis and the operator "
            "kind take 4^n memory)"
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
class BasisEntry:
    """One labelled eigenvector: degeneracy index k and doubled (l, m)."""

    k: int
    two_l: int
    two_m: int
    state: SpinState

    @property
    def l(self) -> float:
        return self.two_l / 2.0

    @property
    def m(self) -> float:
        return self.two_m / 2.0


@dataclass(frozen=True)
class AngularBasis:
    """Orthonormal simultaneous eigenbasis of (S^2, S_3), labelled (k, l, m)."""

    n: int
    entries: tuple[BasisEntry, ...]

    def matrix(self) -> np.ndarray:
        """Columns are the basis vectors, in entry order."""
        return np.column_stack([e.state.amplitudes for e in self.entries])

    def shell_multiplicities(self) -> dict[int, int]:
        """Number of degenerate towers per doubled total-spin label."""
        counts: dict[int, int] = {}
        for e in self.entries:
            if e.two_m == e.two_l:
                counts[e.two_l] = counts.get(e.two_l, 0) + 1
        return counts


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


@lru_cache(maxsize=64)
def _ladder_plus(n: int) -> np.ndarray:
    """Collective raising operator: sum over sites of |up><down|."""
    return _readonly(_apply_ladder(np.eye(2**n, dtype=complex), True))


@lru_cache(maxsize=64)
def _s3_diagonal(n: int) -> np.ndarray:
    counts = np.array([bin(i).count("1") for i in range(2**n)], dtype=float)
    return _readonly(counts - n / 2.0)


@lru_cache(maxsize=64)
def _collective(n: int, axis: int) -> np.ndarray:
    sp = _ladder_plus(n)
    sm = sp.conj().T
    if axis == 1:
        mat = (sp + sm) / 2.0
    elif axis == 2:
        mat = (sp - sm) / 2.0j
    else:
        mat = np.diag(_s3_diagonal(n)).astype(complex)
    return _readonly(mat)


@lru_cache(maxsize=64)
def _total_squared(n: int) -> np.ndarray:
    return _readonly(_apply_s2(np.eye(2**n, dtype=complex)))


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
    return SpinOperator(n, _total_squared(n))


def ladder(n: int, direction: str, *, max_spins: int | None = None) -> SpinOperator:
    """Collective ladder operator S_+ ("raise") or S_- ("lower")."""
    _check_capacity(n, max_spins)
    if direction == "raise":
        return SpinOperator(n, _ladder_plus(n))
    if direction == "lower":
        return SpinOperator(n, _ladder_plus(n).conj().T)
    raise ValidationError(f'direction must be "raise" or "lower", got {direction!r}')


def _lex_order(indices: np.ndarray) -> np.ndarray:
    """Sector indices in lexicographic (up-before-down) order."""
    return np.sort(indices)[::-1]


def _highest_weight_vectors(n: int, sector: np.ndarray, upper: np.ndarray,
                            expected: int) -> np.ndarray:
    """Orthonormal kernel of S_+ restricted to one S_3 sector.

    Returns the kernel vectors as the columns of a (2^n, expected) array.
    The S_+ block from ``sector`` to ``upper`` is read off the bit structure.
    The kernel is canonicalized by Gram-Schmidt over its projector columns,
    swept in lexicographic order, so the result depends only on the subspace;
    each vector's first non-negligible amplitude (lex order) is then made
    positive.
    """
    order = _lex_order(sector)
    if upper.size == 0:
        kernel = np.eye(len(order))
    else:
        # one entry 1 per (sector index, clear bit): S_+ sets that bit
        bits = 1 << np.arange(n)[:, None]
        clear = (order & bits) == 0
        cols = np.broadcast_to(np.arange(len(order)), clear.shape)[clear]
        block = np.zeros((len(upper), len(order)))
        block[np.searchsorted(upper, (order | bits)[clear]), cols] = 1.0
        _, s, vh = np.linalg.svd(block)
        rank = len(order) - expected
        small = s[rank:] if rank < len(s) else np.array([])
        if (rank > 0 and len(s) >= rank and s[rank - 1] < 1e-6) or np.any(small > _SVD_TOL):
            raise NumericError(
                f"ladder kernel extraction did not separate: singular values {s!r}, "
                f"expected kernel dimension {expected}"
            )
        kernel = vh[rank:, :].T  # len(order) x expected, in lex coordinates
    proj = kernel @ kernel.T

    q = np.zeros((len(order), expected))
    found = 0
    for col in range(len(order)):
        w = proj[:, col].copy()
        for _ in range(2):  # re-orthogonalize once for stability
            w -= q[:, :found] @ (q[:, :found].T @ w)
        nrm = np.linalg.norm(w)
        if nrm > _GS_TOL:
            q[:, found] = w / nrm
            found += 1
            if found == expected:
                break
    if found != expected:
        raise NumericError(f"Gram-Schmidt recovered {found} of {expected} kernel vectors")

    lead = np.argmax(np.abs(q) > 1e-12, axis=0)
    q *= np.sign(q[lead, np.arange(expected)])
    tower = np.zeros((2**n, expected))
    tower[order] = q
    return tower


def decompose_angular_basis(n: int, *, max_spins: int | None = None) -> AngularBasis:
    """Build the full (k, l, m) eigenbasis by ladder descent.

    Highest-weight vectors (the kernel of S_+ in each S_3 sector) are
    canonically orthonormalized and phase-fixed; all towers of a shell are
    then filled downward together by applying S_- and normalizing. The
    construction is deterministic: repeated calls return bit-identical
    vectors.
    """
    _check_capacity(n, max_spins)
    dim = 2**n
    popcount = np.array([bin(i).count("1") for i in range(dim)])
    sectors = {two_m: np.where(popcount == (two_m + n) // 2)[0]
               for two_m in range(n, -(n % 2) - 1, -2)}

    entries: list[BasisEntry] = []
    for two_l in range(n, (n % 2) - 1, -2):
        expected = shell_multiplicity(n, two_l)
        upper = sectors.get(two_l + 2, np.array([], dtype=int))
        levels = [_highest_weight_vectors(n, sectors[two_l], upper, expected)]
        for _ in range(two_l):
            w = _apply_ladder(levels[-1], False)
            levels.append(w / np.linalg.norm(w, axis=0))
        rows = [level.T.astype(complex) for level in levels]  # row k: tower k
        for k in range(expected):
            for step, level in enumerate(rows):
                entries.append(BasisEntry(k, two_l, two_l - 2 * step, SpinState(n, level[k])))
    if len(entries) != dim:
        raise NumericError(f"basis has {len(entries)} entries, expected {dim}")
    return AngularBasis(n, tuple(entries))
