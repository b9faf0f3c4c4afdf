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

#: Largest spin count accepted by default (dense 2^n matrices).
DEFAULT_MAX_SPINS = 12

_NORM_TOL = 1e-9
_SVD_TOL = 1e-10
_GS_TOL = 1e-7


def _check_capacity(n: int, max_spins: int | None) -> None:
    limit = DEFAULT_MAX_SPINS if max_spins is None else max_spins
    if n < 1 or n > limit:
        raise CapacityError(
            f"spin count {n} outside supported range 1..{limit} "
            "(raise max_spins to allow larger dense matrices)"
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
        if abs(nrm2 - 1.0) > _NORM_TOL:
            raise ValidationError(f"state norm^2 = {nrm2!r} is not 1 within {_NORM_TOL}")
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @property
    def density(self) -> np.ndarray:
        """Rank-one density matrix |psi><psi|."""
        return np.outer(self.amplitudes, self.amplitudes.conj())


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


@lru_cache(maxsize=64)
def _ladder_plus(n: int) -> np.ndarray:
    """Collective raising operator: sum over sites of |up><down|."""
    dim = 2**n
    sp = np.zeros((dim, dim), dtype=complex)
    for bit in range(n):
        mask = 1 << bit
        src = np.array([i for i in range(dim) if not i & mask])
        sp[src + mask, src] += 1.0
    return _readonly(sp)


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
    s1, s2, s3 = (_collective(n, ax) for ax in (1, 2, 3))
    return _readonly(s1 @ s1 + s2 @ s2 + s3 @ s3)


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


def _fix_phase(vec: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Make the first (lex order) non-negligible amplitude real positive."""
    for idx in order:
        a = vec[idx]
        if abs(a) > 1e-12:
            return vec * (a.conjugate() / abs(a))
    raise NumericError("cannot phase-fix an (almost) zero vector")


def _highest_weight_vectors(sp: np.ndarray, sector: np.ndarray, upper: np.ndarray,
                            expected: int) -> list[np.ndarray]:
    """Orthonormal kernel of S_+ restricted to one S_3 sector.

    The kernel is canonicalized by Gram-Schmidt over its projector columns,
    swept in lexicographic order, so the result depends only on the subspace.
    """
    dim = sp.shape[0]
    order = _lex_order(sector)
    if upper.size == 0:
        kernel = np.eye(len(sector), dtype=complex)
    else:
        block = sp[np.ix_(upper, order)]
        u, s, vh = np.linalg.svd(block)
        rank = len(order) - expected
        small = s[rank:] if rank < len(s) else np.array([])
        if (rank > 0 and len(s) >= rank and s[rank - 1] < 1e-6) or np.any(small > _SVD_TOL):
            raise NumericError(
                f"ladder kernel extraction did not separate: singular values {s!r}, "
                f"expected kernel dimension {expected}"
            )
        kernel = vh[rank:, :].conj().T  # len(order) x expected, in lex coordinates
    proj = kernel @ kernel.conj().T

    accepted: list[np.ndarray] = []
    for col in range(len(order)):
        w = proj[:, col].copy()
        for _ in range(2):  # re-orthogonalize once for stability
            for a in accepted:
                w -= np.vdot(a, w) * a
        nrm = np.linalg.norm(w)
        if nrm > _GS_TOL:
            accepted.append(w / nrm)
        if len(accepted) == expected:
            break
    if len(accepted) != expected:
        raise NumericError(
            f"Gram-Schmidt recovered {len(accepted)} of {expected} kernel vectors"
        )

    out = []
    for w in accepted:
        full = np.zeros(dim, dtype=complex)
        full[order] = w
        out.append(_fix_phase(full, np.arange(dim)[::-1]))
    return out


def decompose_angular_basis(n: int, *, max_spins: int | None = None) -> AngularBasis:
    """Build the full (k, l, m) eigenbasis by ladder descent.

    Highest-weight vectors (the kernel of S_+ in each S_3 sector) are
    canonically orthonormalized and phase-fixed; each tower is then filled
    downward by applying S_- and normalizing. The construction is
    deterministic: repeated calls return bit-identical vectors.
    """
    _check_capacity(n, max_spins)
    dim = 2**n
    sp = _ladder_plus(n)
    sm = sp.conj().T
    popcount = np.array([bin(i).count("1") for i in range(dim)])
    sectors = {two_m: np.where(popcount == (two_m + n) // 2)[0]
               for two_m in range(n, -(n % 2) - 1, -2)}

    entries: list[BasisEntry] = []
    for two_l in range(n, (n % 2) - 1, -2):
        expected = shell_multiplicity(n, two_l)
        if expected == 0:
            continue
        upper = sectors.get(two_l + 2, np.array([], dtype=int))
        highest = _highest_weight_vectors(sp, sectors[two_l], upper, expected)
        for k, vec in enumerate(highest):
            v = vec
            for two_m in range(two_l, -two_l - 1, -2):
                entries.append(BasisEntry(k, two_l, two_m, SpinState(n, v)))
                if two_m > -two_l:
                    w = sm @ v
                    v = w / np.linalg.norm(w)
    if len(entries) != dim:
        raise NumericError(f"basis has {len(entries)} entries, expected {dim}")
    return AngularBasis(n, tuple(entries))
