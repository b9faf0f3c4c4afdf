"""Shared fixtures-by-function for the test suite."""

import math
from functools import lru_cache

import numpy as np

import spinwigner as sw
from spinwigner.moyal import _finite
from spinwigner.spin_core import _apply_ladder, _apply_s2, _s3_diagonal

_OMEGA_CACHE: dict[int, sw.OmegaMap] = {}


def omega(n: int) -> sw.OmegaMap:
    if n not in _OMEGA_CACHE:
        _OMEGA_CACHE[n] = sw.construct_omega(sw.decompose_angular_basis(n))
    return _OMEGA_CACHE[n]


def dense_map(om: sw.OmegaMap) -> np.ndarray:
    """The map as one real (Fock size, 2^n) matrix assembled from ``om.towers``:
    row T(T+1)/2 + n1 is the spin-space row of Fock state (n1, T - n1), which
    is row T - n1 of ``om.towers[T]``; the rows of totals not held are zero."""
    index = fock_index(om.n)
    c = np.zeros((len(index), 2**om.n))
    for total, tower in om.towers.items():
        for s, row in enumerate(tower):
            c[index[(total - s, s)]] = row
    return c


def fock_index(cutoff: int) -> dict[tuple[int, int], int]:
    """Position of each (n1, n2) in the truncated Fock basis."""
    return {pair: i for i, pair in enumerate(sw.fock_states(cutoff))}


def dense_ladder(n: int, raising: bool) -> np.ndarray:
    """Collective S_+ (``raising``) or S_- as a 2^n x 2^n matrix: the bit
    flips the pipeline applies, acting on the identity."""
    return _apply_ladder(np.eye(2**n, dtype=complex), raising)


def dense_spin(n: int, axis: int) -> np.ndarray:
    """Collective spin component S_1, S_2 or S_3 (``axis`` 1, 2, 3) as a matrix."""
    if axis == 3:
        return np.diag(_s3_diagonal(n)).astype(complex)
    sp, sm = dense_ladder(n, True), dense_ladder(n, False)
    return (sp + sm) / 2.0 if axis == 1 else (sp - sm) / 2.0j


def dense_spin_squared(n: int) -> np.ndarray:
    """Total spin squared as the pipeline applies it, acting on the identity."""
    return _apply_s2(np.eye(2**n, dtype=complex))


@lru_cache(maxsize=None)
def _dense_s2_eigh(n: int) -> tuple[np.ndarray, np.ndarray]:
    s2 = dense_spin_squared(n)
    assert not s2.imag.any()
    evals, evecs = np.linalg.eigh(s2.real)
    evals.setflags(write=False)
    evecs.setflags(write=False)
    return evals, evecs


@lru_cache(maxsize=None)
def dense_highest_weights(n: int, two_l: int) -> np.ndarray:
    """Highest weights of shell two_l from the dense spectral projector of S^2.

    The projector's block on the S_3 = l sector is orthonormalized column by
    column in lexicographic order (descending index), and each vector's first
    non-negligible amplitude in that order is made positive. Returned as
    read-only rows in full 2^n coordinates, one per tower k.
    """
    evals, evecs = _dense_s2_eigh(n)
    l = two_l / 2.0
    keep = np.abs(evals - l * (l + 1.0)) < 0.25
    proj = evecs[:, keep] @ evecs[:, keep].T
    popcount = np.array([bin(i).count("1") for i in range(2**n)])
    ups = (n + two_l) // 2
    sector = np.flatnonzero(popcount == ups)[::-1]
    block = proj[np.ix_(sector, sector)]
    vectors = []
    for col in block.T:
        w = col.copy()
        for _ in range(2):
            for q in vectors:
                w -= (q @ w) * q
        if np.linalg.norm(w) > 1e-7:
            vectors.append(w / np.linalg.norm(w))
    # the Catalan triangle: sector l holds one highest weight per tower of shell l
    assert len(vectors) == math.comb(n, ups) - math.comb(n, ups + 1)
    out = np.zeros((len(vectors), 2**n))
    for k, q in enumerate(vectors):
        lead = q[np.flatnonzero(np.abs(q) > 1e-12)[0]]
        out[k, sector] = q * np.sign(lead)
    out.setflags(write=False)
    return out


def dense_tower(n: int, two_l: int, k: int) -> np.ndarray:
    """Tower k of shell two_l as a real (two_l + 1, 2^n) array: highest weight
    k of ``dense_highest_weights`` filled downward with the dense S_-, each
    row normalized; row s has m = l - s."""
    sm = dense_ladder(n, False).real
    rows = [dense_highest_weights(n, two_l)[k]]
    for _ in range(two_l):
        w = sm @ rows[-1]
        rows.append(w / np.linalg.norm(w))
    return np.array(rows)


def dense_jordan_schwinger(cutoff: int, axis: int) -> np.ndarray:
    """Two-mode bilinear J_1, J_2 or J_3 from the row weights the pipeline
    shifts by: J_+ = a1^dag a2 takes row (n1 - 1, n2 + 1) to (n1, n2) with
    weight sqrt(n1 (n2 + 1)), on its first sub-diagonal; the weight is 0 on
    each total's first row, so the shift never crosses totals."""
    n1, n2 = np.array(sw.fock_states(cutoff)).T
    if axis == 3:
        return np.diag((n1 - n2) / 2.0).astype(complex)
    jp = np.diag(np.sqrt(n1 * (n2 + 1.0))[1:], -1).astype(complex)
    return (jp + jp.T) / 2.0 if axis == 1 else (jp - jp.T) / 2.0j


def dense_jordan_schwinger_squared(cutoff: int) -> np.ndarray:
    j1, j2, j3 = (dense_jordan_schwinger(cutoff, ax) for ax in (1, 2, 3))
    return j1 @ j1 + j2 @ j2 + j3 @ j3


def reference_lowering(cutoff: int, mode: int) -> np.ndarray:
    """Annihilation matrix for one mode on the truncated basis."""
    states = sw.fock_states(cutoff)
    index = fock_index(cutoff)
    size = len(states)
    a = np.zeros((size, size), dtype=complex)
    for i, (n1, n2) in enumerate(states):
        occ = (n1, n2)[mode]
        if occ > 0:
            dst = (n1 - 1, n2) if mode == 0 else (n1, n2 - 1)
            a[index[dst], i] = np.sqrt(occ)
    return a


def reference_jordan_schwinger(cutoff: int, axis: int) -> np.ndarray:
    """Dense two-mode bilinears formed from the annihilation matrices."""
    a1 = reference_lowering(cutoff, 0)
    a2 = reference_lowering(cutoff, 1)
    jp = a1.conj().T @ a2
    jm = a2.conj().T @ a1
    if axis == 1:
        return (jp + jm) / 2.0
    if axis == 2:
        return (jp - jm) / 2.0j
    return (a1.conj().T @ a1 - a2.conj().T @ a2) / 2.0


def reference_intertwining_residual(om: sw.OmegaMap) -> float:
    """Intertwining residual from dense products J @ c on the whole map."""
    c = dense_map(om)
    c_plus = _apply_ladder(c.T, False).T
    c_minus = _apply_ladder(c.T, True).T
    mapped = {1: (c_plus + c_minus) / 2.0, 2: (c_plus - c_minus) / 2.0j,
              3: c * _s3_diagonal(om.n)}
    return max(float(np.max(np.abs(mapped[axis] - reference_jordan_schwinger(om.n, axis) @ c)))
               for axis in (1, 2, 3))


def state_families(n: int) -> dict[str, sw.SpinMixture]:
    """One mixture per state family at n spins; "raw" is a seeded random pure state."""
    coherent = sw.spin_coherent(n, 1.1, 0.4)
    rng = np.random.default_rng(100 + n)
    raw = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return {
        "cat": sw.mixture([(1.0, sw.cat_state(n))]),
        "coherent": sw.mixture([(1.0, coherent)]),
        "fock": sw.mixture([(1.0, sw.fock_state(n, n // 2))]),
        "squeezed": sw.mixture([(1.0, sw.squeezed_state(n, 0.2 + 0.1j, coherent))]),
        "mixture": sw.mixture([(0.3, coherent), (0.7, sw.cat_state(n))]),
        "raw": sw.mixture([(1.0, sw.SpinState(n, raw / np.linalg.norm(raw)))]),
    }


def dicke_coherent_density(n: int) -> sw.OscillatorDensity:
    """The pushed coherent state along theta = 0.7, phi = 0.8, built by hand:
    amplitudes sqrt(C(n,k)) cos^k(0.35) (e^{0.8i} sin 0.35)^(n-k) on Fock
    rows (k, n - k)."""
    cs, sn = math.cos(0.35), math.sin(0.35)
    amp = np.array([math.sqrt(math.comb(n, k)) * cs**k * sn ** (n - k)
                    * complex(math.cos(0.8), math.sin(0.8)) ** (n - k) for k in range(n + 1)])
    e = np.zeros((len(sw.fock_states(n)),) * 2, dtype=complex)
    lo = n * (n + 1) // 2
    e[lo:, lo:] = np.outer(amp, amp.conj())
    return sw.OscillatorDensity.from_fock_elements(n, e)


def basis_vector(n: int, index: int) -> np.ndarray:
    v = np.zeros(2**n, dtype=complex)
    v[index] = 1.0
    return v


def singlet_vector() -> np.ndarray:
    """Two-spin singlet (|ud> - |du>) / sqrt2 in the bit-string basis."""
    v = np.zeros(4, dtype=complex)
    v[0b10] = 1.0 / np.sqrt(2.0)
    v[0b01] = -1.0 / np.sqrt(2.0)
    return v


def push_pure(n: int, vec: np.ndarray) -> sw.OscillatorDensity:
    return sw.push_density(omega(n), np.outer(vec, vec.conj()))


def nonreducible_two_spin_operator() -> np.ndarray:
    """|uu>(<ud| - <du|)/sqrt2: does not commute with total spin squared."""
    a = np.zeros((4, 4), dtype=complex)
    a[0b11, 0b10] = 1.0 / np.sqrt(2.0)
    a[0b11, 0b01] = -1.0 / np.sqrt(2.0)
    return a


def hermite_functions(nmax: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal oscillator eigenfunctions psi_0..psi_nmax on a grid.

    Uses the normalized recurrence, stable for the small excitation counts
    handled here.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1,) + x.shape, dtype=float)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if nmax >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for k in range(2, nmax + 1):
        out[k] = math.sqrt(2.0 / k) * x * out[k - 1] - math.sqrt((k - 1.0) / k) * out[k - 2]
    return out


def _oracle_eval(density: sw.OscillatorDensity, q1: float, p1: float, q2: float, p2: float,
                 half_width: float, points: int) -> complex:
    """Trapezoid evaluation of the defining phase-space integral.

    The integrand factorizes mode by mode, so the tensor-grid double
    integral is accumulated as products of one-dimensional sums.
    """
    cutoff = density.n
    states = sw.fock_states(cutoff)
    y = np.linspace(-half_width, half_width, points)
    w = np.full(points, y[1] - y[0])
    w[0] *= 0.5
    w[-1] *= 0.5

    def mode_integrals(q, p):
        minus = hermite_functions(cutoff, q - y)
        plus = hermite_functions(cutoff, q + y)
        phase = w * np.exp(2j * p * y)
        # entry [ket, bra]: integral of psi_bra(q - y) psi_ket(q + y) e^{2ipy} / pi
        return np.einsum("ay,by,y->ba", minus, plus, phase) / math.pi

    i1 = mode_integrals(q1, p1)
    i2 = mode_integrals(q2, p2)
    total = 0.0 + 0.0j
    rows, cols = np.nonzero(density.elements)
    for f, g in zip(rows, cols):
        b1, b2 = states[f]
        k1, k2 = states[g]
        total += density.elements[f, g] * i1[k1, b1] * i2[k2, b2]
    return complex(total)


def oracle_wigner_integral(density: sw.OscillatorDensity, q1: float, p1: float, q2: float,
                           p2: float, *, initial_points: int = 65, max_refinements: int = 6,
                           tol: float = 1e-7) -> float:
    """Wigner value by direct numerical integration; a test oracle.

    Integrates the defining integral with oscillator eigenfunctions in
    position space on [-L, L]^2, doubling the trapezoid resolution until
    two successive refinements agree. Intended for small Fock supports.
    """
    cutoff = density.n
    if cutoff > 12:
        raise sw.ValidationError(
            f"oracle supports Fock cutoff <= 12, got {cutoff}"
        )
    half_width = max(6.0, math.sqrt(2.0 * cutoff) + 4.0)
    points = initial_points
    prev = None
    for _ in range(max_refinements + 1):
        val = _oracle_eval(density, q1, p1, q2, p2, half_width, points)
        if prev is not None and abs(val - prev) <= tol:
            return val.real
        prev = val
        points = 2 * points - 1
    raise sw.NumericError(
        f"oracle quadrature did not converge: last refinement changed by "
        f"{abs(val - prev):.3e} (> {tol:.0e})"
    )


def _reference_laguerre(degree: int, order: int, x):
    """Laguerre recurrence as the per-pair kernel ran it: one call per entry."""
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if degree == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 + order - x
    for k in range(2, degree + 1):
        prev, cur = cur, ((2.0 * k - 1.0 + order - x) * cur - (k - 1.0 + order) * prev) / k
    return cur if cur.ndim else float(cur)


def reference_moyal_1d(n: int, n_prime: int, q, p):
    """One-mode Moyal function computed from scratch for a single entry."""
    if n > n_prime:
        return np.conjugate(reference_moyal_1d(n_prime, n, q, p))
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    d = n_prime - n
    rho = q * q + p * p
    pref = (-1.0) ** n / math.pi * math.exp(
        0.5 * (d * math.log(2.0) + math.lgamma(n + 1) - math.lgamma(n_prime + 1))
    )
    mono = np.ones_like(q, dtype=complex)
    zbar = q - 1j * p
    for _ in range(d):
        mono = mono * zbar
    out = pref * mono * np.exp(-rho) * _reference_laguerre(n, d, 2.0 * rho)
    return out if out.ndim else complex(out)


def reference_wigner_complex_many(density: sw.OscillatorDensity, q1, p1, q2, p2) -> np.ndarray:
    """Per-pair Moyal sum over all points at once; the kernel's exact reference.

    Each non-zero (f, g) adds elements[f, g] * W_{k1 b1} * W_{k2 b2} in
    ``np.nonzero`` order, with the one-mode factors cached per key.
    """
    q1, p1, q2, p2 = np.broadcast_arrays(
        np.asarray(q1, float), np.asarray(p1, float),
        np.asarray(q2, float), np.asarray(p2, float),
    )
    states = sw.fock_states(density.n)
    elems = density.elements
    cache1: dict[tuple[int, int], np.ndarray] = {}
    cache2: dict[tuple[int, int], np.ndarray] = {}

    def mode1(n, npr):
        key = (n, npr)
        if key not in cache1:
            cache1[key] = np.asarray(reference_moyal_1d(n, npr, q1, p1))
        return cache1[key]

    def mode2(n, npr):
        key = (n, npr)
        if key not in cache2:
            cache2[key] = np.asarray(reference_moyal_1d(n, npr, q2, p2))
        return cache2[key]

    total = np.zeros(q1.shape, dtype=complex)
    rows, cols = np.nonzero(elems)
    for f, g in zip(rows, cols):
        b1, b2 = states[f]  # bra side
        k1, k2 = states[g]  # ket side
        total += elems[f, g] * mode1(k1, b1) * mode2(k2, b2)
    return total


def wigner_4d_many(density: sw.OscillatorDensity, q1, p1, q2, p2) -> np.ndarray:
    """Real four-dimensional values; a non-Hermitian operator (imaginary
    residual above 1e-8) is a NumericError."""
    vals = sw.wigner_complex_many(density, q1, p1, q2, p2)
    worst = float(np.max(np.abs(vals.imag), initial=0.0))
    if worst > 1e-8:
        raise sw.NumericError(f"imaginary residual {worst:.3e} exceeds 1e-08; "
                              "the pushed operator is not Hermitian")
    return vals.real


def hopf_forward_arrays(q1, p1, q2, p2):
    """Pauli contraction of (q1 + i p1, q2 + i p2), elementwise."""
    q1, p1, q2, p2 = _finite(q1=q1, p1=p1, q2=q2, p2=p2)
    z1 = q1 + 1j * p1
    z2 = q2 + 1j * p2
    cross = z1.conj() * z2
    x1 = 2.0 * cross.real
    x2 = 2.0 * cross.imag
    x3 = (z1.conj() * z1 - z2.conj() * z2).real
    return x1, x2, x3


def hopf_section_arrays(x1, x2, x3):
    """Canonical fiber point over each (x1, x2, x3), elementwise.

    Away from the negative x3 axis: z1 = sqrt((r + x3) / 2) real, and
    z2 = (x1 + i x2) / (2 z1). For x3 < 0 the sum r + x3 is formed as
    (x1^2 + x2^2) / (r - x3), which has no cancellation, so the round trip
    through the forward contraction stays at machine precision everywhere.
    Points within a relative transverse distance of 1e-12 of the negative
    axis snap onto it, where the limit z1 = 0, z2 = sqrt(r) applies; the
    switch is invisible for fiber-constant integrands.
    """
    x1, x2, x3 = _finite(x1=x1, x2=x2, x3=x3)
    # points beyond 2^500 are scaled to order 1 so the squares stay finite;
    # every other point divides by exactly 1.0 and is unchanged
    scale = np.maximum(np.maximum(np.abs(x1), np.abs(x2)), np.abs(x3))
    scale = np.where(scale > 2.0**500, scale, 1.0)
    root = np.sqrt(scale)
    x1, x2, x3 = x1 / scale, x2 / scale, x3 / scale
    t2 = x1 * x1 + x2 * x2
    r = np.sqrt(t2 + x3 * x3)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(x3 < 0.0, t2 / np.where(r - x3 > 0.0, r - x3, 1.0), r + x3)
    pole = (x3 <= 0.0) & (t2 <= (1e-12 * (1.0 + r)) ** 2)
    z1 = np.sqrt(np.where(pole, 0.0, s) / 2.0) * root
    safe = np.where(pole, 1.0, 2.0 * np.where(z1 > 0.0, z1, 1.0) / scale)
    z2 = (x1 + 1j * x2) / safe
    z2 = np.where(pole, (np.sqrt(r) * root).astype(complex), z2)
    return z1, np.zeros_like(z1), z2.real, z2.imag


def reference_reduced_wigner_many(density: sw.OscillatorDensity, x1, x2, x3) -> np.ndarray:
    """The reduced function by the section route that 0.14.0 used: the
    four-dimensional sum of the same-total blocks at the canonical fiber
    point over each x."""
    return wigner_4d_many(sw.fiber_average(density), *hopf_section_arrays(x1, x2, x3))
