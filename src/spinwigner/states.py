"""Builders for the state families used throughout: Fock-like ladder
states, spin-coherent states, cat states, statistical mixtures and
squeezed states.

Spin-coherent convention: the single-site state is
cos(theta/2)|up> + exp(i phi) sin(theta/2)|down>, tensored over all sites.
Only relative phases of superpositions depend on this choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, NumericError, ValidationError
from .spin_core import SpinMixture, SpinState, _apply_ladder

#: Most Taylor steps ``_expm_apply`` takes: a squeezing step costs 2.7 ms at
#: n = 5 and 15-17 ms at n = 12, so about 17 s there (|beta| <= 48).
_MAX_EXPM_STEPS = 1024


def fock_state(n: int, k: int) -> SpinState:
    """Normalized k-fold raised all-down state; an S_3 eigenstate with
    m = k - n/2 in the outer shell."""
    if not 0 <= k <= n:
        raise ValidationError(f"excitation count {k} outside 0..{n}")
    vec = np.zeros(2**n, dtype=complex)
    vec[0] = 1.0  # all spins down
    for _ in range(k):
        vec = _apply_ladder(vec, True)
    return SpinState(n, vec / np.linalg.norm(vec))


def spin_coherent(n: int, theta: float, phi: float) -> SpinState:
    """Tensor power of one rotated spin; lives in the outer shell."""
    if n < 1:
        raise ValidationError(f"spin count must be >= 1, got {n}")
    single = np.array([np.exp(1j * phi) * np.sin(theta / 2.0), np.cos(theta / 2.0)],
                      dtype=complex)  # index 0 = down, 1 = up
    amps = np.array([1.0 + 0.0j])
    for _ in range(n):
        amps = np.kron(amps, single)
    return SpinState(n, amps / np.linalg.norm(amps))


def cat_state(n: int) -> SpinState:
    """Equal superposition of all-up and all-down."""
    if n < 1:
        raise ValidationError(f"spin count must be >= 1, got {n}")
    vec = np.zeros(2**n, dtype=complex)
    vec[0] = vec[-1] = 1.0 / np.sqrt(2.0)
    return SpinState(n, vec)


def mixture(components: list[tuple[float, SpinState]]) -> SpinMixture:
    """Convex mixture of pure states, kept factored; ``np.asarray`` of the
    result is the density matrix."""
    if not components:
        raise ValidationError("mixture needs at least one component")
    n = components[0][1].n
    if any(state.n != n for _, state in components):
        raise ValidationError("mixture components act on different spin counts")
    return SpinMixture(n, [w for w, _ in components],
                       np.column_stack([state.amplitudes for _, state in components]))


def _expm_apply(gen, vec: np.ndarray, norm_bound: float) -> np.ndarray:
    """exp(G) vec for a linear map ``gen`` with ||G||_2 <= ``norm_bound``.

    The exponent is split into s steps with ||G|| / s <= 4, and each step
    sums its Taylor series until a term no longer changes the result; a
    step's largest term is then 4^4 / 4! ~ 11 times its sum, which costs
    about one digit. More than ``_MAX_EXPM_STEPS`` steps is refused up front.
    """
    steps = max(1.0, np.ceil(norm_bound / 4.0))
    if not steps <= _MAX_EXPM_STEPS:  # written so that inf and NaN fail
        raise CapacityError(f"the exponential needs {steps:.4g} Taylor steps, above the "
                            f"limit of {_MAX_EXPM_STEPS}; reduce |beta|")
    for _ in range(int(steps)):
        term, total = vec, vec.copy()
        for k in range(1, 60):
            term = gen(term) / (k * steps)
            total += term
            if np.linalg.norm(term) <= np.finfo(float).eps * np.linalg.norm(total):
                break
        vec = total
    return vec


def squeezed_state(n: int, beta: complex, base: SpinState) -> SpinState:
    """Unitary squeezing of a base state.

    Applies the exponential of beta S_+^2 - conj(beta) S_-^2 to the
    amplitude vector, with the ladder operators applied by bit flips. The
    generator is anti-Hermitian, so the result stays normalized; since the
    ladder operators commute with total spin squared, an outer-shell base
    stays in the outer shell. The cost grows as |beta| (n + 1)^2.
    """
    if base.n != n:
        raise ValidationError(f"base state has {base.n} spins, expected {n}")

    def gen(v):
        twice_up = _apply_ladder(_apply_ladder(v, True), True)
        twice_down = _apply_ladder(_apply_ladder(v, False), False)
        return beta * twice_up - np.conjugate(beta) * twice_down

    # ||S_+^2||_2 <= ||S_+||_2^2 = (n/2)(n/2 + 1) + 1/4
    vec = _expm_apply(gen, base.amplitudes, 2.0 * abs(beta) * (n + 1) ** 2 / 4.0)
    nrm = np.linalg.norm(vec)
    if abs(nrm - 1.0) > 1e-10:
        raise NumericError(f"squeezing exponential drifted the norm to {nrm!r}")
    return SpinState(n, vec / nrm)


@dataclass(frozen=True)
class StateSpec:
    """Parsed description of a state or operator to evaluate.

    ``kind`` is one of fock, coherent, cat, mixture, squeezed, raw or
    operator; the remaining fields are kind-specific. ``operator`` carries
    a raw matrix and is the only kind that may describe something other
    than a density operator.
    """

    kind: str
    n: int
    excitations: int | None = None
    theta: float | None = None
    phi: float | None = None
    beta: complex | None = None
    base_theta: float = 0.0
    base_phi: float = 0.0
    components: tuple[tuple[float, "StateSpec"], ...] = field(default=())
    amplitudes: tuple[complex, ...] = field(default=())
    matrix: tuple[tuple[complex, ...], ...] = field(default=())

    def describe(self) -> str:
        """Stable one-line summary used in output headers."""
        bits = [f"kind={self.kind}", f"spins={self.n}"]
        if self.kind == "fock":
            bits.append(f"excitations={self.excitations}")
        elif self.kind == "coherent":
            bits.append(f"theta={self.theta:.12g} phi={self.phi:.12g}")
        elif self.kind == "squeezed":
            bits.append(f"beta={self.beta.real:.12g}{self.beta.imag:+.12g}j "
                        f"base_theta={self.base_theta:.12g} base_phi={self.base_phi:.12g}")
        elif self.kind == "mixture":
            inner = "; ".join(f"{w:.12g}*({c.describe()})" for w, c in self.components)
            bits.append(f"components=[{inner}]")
        elif self.kind == "raw":
            bits.append(f"amplitudes={len(self.amplitudes)}")
        elif self.kind == "operator":
            bits.append(f"rows={len(self.matrix)}")
        return " ".join(bits)


def realize_state(spec: StateSpec) -> SpinState:
    """Build the pure state a spec describes; mixtures and operators refuse."""
    if spec.kind == "fock":
        return fock_state(spec.n, spec.excitations)
    if spec.kind == "coherent":
        return spin_coherent(spec.n, spec.theta, spec.phi)
    if spec.kind == "cat":
        return cat_state(spec.n)
    if spec.kind == "squeezed":
        base = spin_coherent(spec.n, spec.base_theta, spec.base_phi)
        return squeezed_state(spec.n, spec.beta, base)
    if spec.kind == "raw":
        return SpinState(spec.n, np.array(spec.amplitudes, dtype=complex))
    raise ValidationError(f"spec kind {spec.kind!r} does not describe a pure state")


def realize_operator(spec: StateSpec) -> SpinMixture | np.ndarray:
    """Build the operator a spec describes: a factored ``SpinMixture`` for
    state kinds (``np.asarray`` gives its density matrix), the raw matrix
    for the operator kind."""
    if spec.kind == "mixture":
        return mixture([(w, realize_state(c)) for w, c in spec.components])
    if spec.kind == "operator":
        mat = np.array(spec.matrix, dtype=complex)
        dim = 2**spec.n
        if mat.shape != (dim, dim):
            raise ValidationError(f"operator matrix shape {mat.shape}, expected ({dim}, {dim})")
        return mat
    return mixture([(1.0, realize_state(spec))])
