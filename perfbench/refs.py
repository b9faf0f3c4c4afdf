"""Output checks against references that do not come from the program.

Closed forms (r = |x|, u the coherent direction, n the spin count):

* coherent  W3(x) = (-1)^n e^{-r} / pi^2 L_n(r + u.x)
            WS(n^) = (-1)^n / (4 pi) sum_k (-1)^k C(n,k) (k+1) (1 + u.n^)^k
* fock k    W3(x) = (-1)^n e^{-r} / pi^2 L_k(r + x3) L_{n-k}(r - x3)
* cat       half the all-up and all-down forms plus the coherence
            e^{-r} / (pi^2 n!) Re (x1 + i x2)^n, whose sphere value is
            (n+1) / (4 pi) sin^n(theta) cos(n phi)
* mixtures  the weighted sum of their components.

``plane4d`` values of these states equal W3 at the Hopf image of each
point. The non-Hermitian operator has no closed form: its values are
compared with an independent Moyal sum over the library's pushed matrix.
Every other output is held to the run report (normalization equal to the
represented trace) and the ``abs_diff`` column of ``--method both``.
"""

from __future__ import annotations

import math
import os

import numpy as np
from scipy.special import comb, eval_genlaguerre

W_TOL = 1e-9
WS_TOL = 1e-8
NORM_TOL = 1e-8
TRACE_TOL = 1e-9


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def read_report(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, val = line.partition("=")
        if sep and key not in out:
            out[key] = val
    return out


def read_table(path: str) -> tuple[list[str], np.ndarray]:
    """Columns and values of a CLI output file (``#`` header, then CSV)."""
    with open(path, encoding="utf-8") as fh:
        skip = 0
        for line in fh:
            skip += 1
            if not line.startswith("#"):
                columns = line.strip().split(",")
                break
        else:
            raise CheckFailed("output has no column line")
    data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    _require(data.shape[1] == len(columns), "row width differs from the column line")
    _require(bool(np.all(np.isfinite(data))), "non-finite value in output")
    return columns, data


def grid_axes(grid: str) -> list[tuple[str, np.ndarray]]:
    axes = []
    for part in grid.split(","):
        name, lo, hi, n = part.split(":")
        axes.append((name, np.linspace(float(lo), float(hi), int(n))))
    return axes


def _direction(theta: float, phi: float) -> tuple[float, float, float]:
    return (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))


def _w3_outer(n: int, k: int, x1, x2, x3, r):
    """W3 of the outer-shell state with k up-excitations along x3."""
    return ((-1.0) ** n * np.exp(-r) / math.pi**2
            * eval_genlaguerre(k, 0, r + x3) * eval_genlaguerre(n - k, 0, r - x3))


def _w3_cat(n: int, x1, x2, x3, r):
    return (0.5 * (_w3_outer(n, n, x1, x2, x3, r) + _w3_outer(n, 0, x1, x2, x3, r))
            + np.exp(-r) / (math.pi**2 * math.factorial(n)) * ((x1 + 1j * x2) ** n).real)


def w3_reference(state, x1, x2, x3) -> np.ndarray:
    n, p = state.n, state.params
    r = np.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    if state.family == "coherent":
        u = _direction(p["theta"], p["phi"])
        return ((-1.0) ** n * np.exp(-r) / math.pi**2
                * eval_genlaguerre(n, 0, r + u[0] * x1 + u[1] * x2 + u[2] * x3))
    if state.family == "fock":
        return _w3_outer(n, p["k"], x1, x2, x3, r)
    if state.family == "cat":
        return _w3_cat(n, x1, x2, x3, r)
    if state.family == "mixture":
        return (p["w_fock"] * _w3_outer(n, p["k"], x1, x2, x3, r)
                + p["w_cat"] * _w3_cat(n, x1, x2, x3, r))
    raise ValueError(f"no closed form for {state.family}")


def _ws_coherent(n: int, u, theta, phi):
    st = np.sin(theta)
    c = u[0] * st * np.cos(phi) + u[1] * st * np.sin(phi) + u[2] * np.cos(theta)
    total = sum((-1.0) ** k * comb(n, k, exact=True) * (k + 1) * (1.0 + c) ** k
                for k in range(n + 1))
    return (-1.0) ** n / (4.0 * math.pi) * total


def ws_reference(state, theta, phi) -> np.ndarray:
    n, p = state.n, state.params
    if state.family == "coherent":
        return _ws_coherent(n, _direction(p["theta"], p["phi"]), theta, phi)
    if state.family == "cat":
        poles = _ws_coherent(n, (0, 0, 1), theta, phi) + _ws_coherent(n, (0, 0, -1), theta, phi)
        return (0.5 * poles
                + (n + 1) / (4.0 * math.pi) * np.sin(theta) ** n * np.cos(n * phi))
    raise ValueError(f"no closed form for {state.family}")


def _moyal_1d(n: int, m: int, q, p):
    """W_{n m}(q, p) written out from its defining Laguerre form."""
    if n > m:
        return np.conj(_moyal_1d(m, n, q, p))
    d = m - n
    rho = q * q + p * p
    pref = (-1.0) ** n / math.pi * math.sqrt(2.0**d * math.factorial(n) / math.factorial(m))
    return pref * (q - 1j * p) ** d * np.exp(-rho) * eval_genlaguerre(n, d, 2.0 * rho)


def operator_reference(state, q1, p1, q2, p2) -> np.ndarray:
    """Moyal sum of the library's pushed matrix, evaluated independently."""
    import spinwigner as sw

    n = state.n
    omega = sw.construct_omega(sw.decompose_angular_basis(n))
    elements = sw.push_operator(omega, np.array(state.params["matrix"])).elements
    fock = [(a, t - a) for t in range(n + 1) for a in range(t + 1)]
    total = np.zeros(q1.shape, dtype=complex)
    for f, g in zip(*np.nonzero(elements)):
        (b1, b2), (k1, k2) = fock[f], fock[g]
        total += elements[f, g] * _moyal_1d(k1, b1, q1, p1) * _moyal_1d(k2, b2, q2, p2)
    return total


def _check_coords(data: np.ndarray, axes) -> list[np.ndarray]:
    mesh = [m.ravel() for m in np.meshgrid(*(pts for _, pts in axes), indexing="ij")]
    _require(data.shape[0] == mesh[0].size, f"{data.shape[0]} rows, expected {mesh[0].size}")
    for i, m in enumerate(mesh):
        _require(bool(np.allclose(data[:, i], m, rtol=1e-11, atol=1e-12)),
                 f"coordinate column {i} differs from the requested grid")
    return mesh


def _close(got, want, tol: float, what: str) -> None:
    err = float(np.max(np.abs(got - want)))
    _require(err <= tol, f"{what}: max deviation {err:.3e} > {tol:.0e}")


def check_job(job, report: dict[str, str], out_path: str | None) -> tuple[int, int]:
    """Raise CheckFailed unless the job's output is right; returns (rows, bytes)."""
    trace = float(report.get("represented_trace", "nan"))
    norm = float(report.get("normalization_check", "nan"))
    state = job.state
    if state.family != "operator":
        _require(abs(trace - 1.0) <= TRACE_TOL, f"represented_trace {trace!r} != 1")
        _require(abs(norm - trace) <= NORM_TOL,
                 f"normalization_check {norm!r} differs from represented_trace {trace!r}")
    if job.command == "check":
        _require(report.get("status") == "ok", f"status={report.get('status')}")
        return 0, 0

    columns, data = read_table(out_path)
    axes = grid_axes(job.grid)
    mesh = _check_coords(data, axes)
    if job.command == "volume":
        _require(columns == ["x1", "x2", "x3", "value"], f"columns {columns}")
        _close(data[:, 3], w3_reference(state, *mesh), W_TOL, "volume vs closed form")
    elif job.command == "plane4d":
        coords = dict(job.fixed)
        coords.update({name: m for (name, _), m in zip(axes, mesh)})
        q1, p1, q2, p2 = (np.broadcast_to(coords[c], mesh[0].shape)
                          for c in ("q1", "p1", "q2", "p2"))
        _require(columns == [name for name, _ in axes] + ["value_re", "value_im"],
                 f"columns {columns}")
        got = data[:, 2] + 1j * data[:, 3]
        if state.family == "operator":
            want = operator_reference(state, q1, p1, q2, p2)
        else:
            z1, z2 = q1 + 1j * p1, q2 + 1j * p2
            cross = np.conj(z1) * z2
            want = w3_reference(state, 2.0 * cross.real, 2.0 * cross.imag,
                                np.abs(z1) ** 2 - np.abs(z2) ** 2)
        _close(got, want, W_TOL, "plane4d vs reference")
    elif job.command == "sphere":
        theta, phi = mesh
        if job.method == "both":
            _require(columns == ["theta", "phi", "value", "value_numeric", "abs_diff"],
                     f"columns {columns}")
            _require(float(np.max(data[:, 4])) <= WS_TOL, "abs_diff column above 1e-8")
            _close(data[:, 4], np.abs(data[:, 2] - data[:, 3]), 1e-11, "abs_diff column")
        else:
            _require(columns == ["theta", "phi", "value"], f"columns {columns}")
        if state.family in ("coherent", "cat"):
            _close(data[:, 2], ws_reference(state, theta, phi), WS_TOL, "sphere vs closed form")
    return data.shape[0], os.path.getsize(out_path)
