"""Command-line front end: evaluate states on grids and write plot-ready files.

State description files are line oriented: blank lines and lines starting
with ``#`` are skipped, every other line is ``key value...``. Examples::

    kind coherent          kind squeezed            kind mixture
    spins 5                spins 5                  spins 5
    theta 1.5707963        beta 0.2 0.0             component 0.5 coherent 0 0
    phi 0.0                base_theta 0.0           component 0.5 coherent 3.141592653589793 0

    kind raw               kind operator            kind fock
    spins 1                spins 2                  spins 5
    amp 0.7071067812 0     row 0,0 0,0 0,0 0,0      excitations 2
    amp 0.7071067812 0     row ...                  (...)

``raw`` lists one ``amp re im`` line per basis index, ascending. ``operator``
lists one ``row`` line per matrix row with comma-joined re,im pairs; it is
the only kind that may describe a non-density operator. A file holds only
``kind``, ``spins`` and its kind's own keys, each once; only ``amp``, ``row``
and ``component`` repeat.

Grids are given as ``--grid "name:lo:hi:samples,..."`` with axis names
x1,x2,x3 (volume), theta,phi (sphere) or two of q1,p1,q2,p2 (plane4d).
Output files are comma separated with a ``#`` commented header recording
the state, grid and library version; they contain no timing information,
are byte-identical across repeated runs, and are written only once the
evaluation and the normalization have succeeded. Every number is exactly
``"%.12e" % v``, formatted in numpy; Python's ``%`` formats only the few
values whose rounding lies too close to a tie for the numpy arithmetic.

Every number read from a state file, ``--grid``, ``--fix``, ``--tolerance``
or ``--samples`` must be finite; integer fields (``spins``, ``excitations``,
sample counts) must be exact integers, tolerances must be non-negative,
``--fix`` and ``--tolerance`` name each of their keys at most once, and
``spins`` must lie in 1..12, checked before anything of size 2^n is built.
A squeezing ``beta`` that needs over 1,024 Taylor steps, or over 1,000,000
grid points or samples, is a capacity error. A grid axis whose span hi - lo
overflows is refused, and sphere grids keep theta in [0, pi].

Exit codes: 0 ok, 1 validation failure, 2 numeric failure, 3 capacity.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import CapacityError, NumericError, SpinWignerError, ValidationError
from .moyal import wigner_complex_many
from .omega_map import OscillatorDensity, construct_omega, push_density, push_operator
from .reduced_space import (_check_hermitian, _same_total_blocks, check_fiber_invariance,
                            fiber_average, reduced_wigner_many)
from .spin_core import _check_capacity, decompose_angular_basis
from .sphere import LmDensity, sphere_normalization, ws_analytic, ws_numeric_many
from .states import StateSpec, realize_operator

_MAX_GRID_POINTS = 1_000_000
_CHUNK = 8192
_DEFAULT_TOLERANCES = {"norm": 1e-8, "fiber": 1e-6, "trace": 1e-9}

_AXIS_NAMES = {
    "volume": ("x1", "x2", "x3"),
    "sphere": ("theta", "phi"),
}
_PLANE_AXES = ("q1", "p1", "q2", "p2")

# Kinds that may appear both as a whole state and as a mixture component,
# with their parameters: one line each at top level, positional in a
# ``component`` line.
_KIND_PARAMS = {
    "fock": (("excitations", int),),
    "coherent": (("theta", float), ("phi", float)),
    "cat": (),
}
# Keys each kind takes besides ``kind`` and ``spins``. Every key is given
# once, except that ``amp``, ``row`` and ``component`` take one line each.
_KIND_KEYS = {**{kind: [name for name, _ in params] for kind, params in _KIND_PARAMS.items()},
              "raw": ["amp"], "squeezed": ["beta", "base_theta", "base_phi"],
              "mixture": ["component"], "operator": ["row"]}


@dataclass(frozen=True)
class GridAxis:
    name: str
    lo: float
    hi: float
    samples: int

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.samples)

    def describe(self) -> str:
        return f"{self.name}:{self.lo!r}:{self.hi!r}:{self.samples}"


@dataclass(frozen=True)
class GridSpec:
    """Sampling description for volume, sphere or plane4d evaluation."""

    kind: str
    axes: tuple[GridAxis, ...]
    fixed: tuple[tuple[str, float], ...] = ()

    def describe(self) -> str:
        out = f"{self.kind} " + ",".join(a.describe() for a in self.axes)
        if self.fixed:
            out += " fixed " + ",".join(f"{k}={v!r}" for k, v in self.fixed)
        return out

    def total_points(self) -> int:
        total = 1
        for a in self.axes:
            total *= a.samples
        return total


@dataclass
class EvalReport:
    """Run summary printed to stdout (never into data files)."""

    represented_trace: float
    commutes_with_s2: bool
    normalization_check: float
    timing_ms: float
    fiber_deviation: float | None = None
    notes: tuple[str, ...] = field(default=())

    def lines(self):
        yield f"represented_trace={self.represented_trace:.12e}"
        yield f"commutes_with_s2={'true' if self.commutes_with_s2 else 'false'}"
        yield f"normalization_check={self.normalization_check:.12e}"
        if self.fiber_deviation is not None:
            yield f"fiber_deviation={self.fiber_deviation:.12e}"
        yield f"timing_ms={self.timing_ms:.3f}"
        for note in self.notes:
            yield f"note={note}"


def _number(text: str, where: str, cast=float, lo: float | None = None):
    """Read one finite number, naming ``where`` when it is not one.

    ``cast=int`` also requires an exact integer; ``lo`` is an inclusive
    lower bound.
    """
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"{where}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ValidationError(f"{where}: {text!r} is not finite")
    if cast is int:
        if not value.is_integer():
            raise ValidationError(f"{where}: {text!r} is not an integer")
        value = int(value)
    if lo is not None and value < lo:
        raise ValidationError(f"{where}: {text!r} is below {lo}")
    return value


def _key_values(text: str, option: str, allowed: dict[str, float],
                lo: float | None = None) -> dict[str, float]:
    """Read ``key=value,...`` given to ``option``: each key once, from ``allowed``."""
    out: dict[str, float] = {}
    for item in text.split(","):
        key, _, val = item.partition("=")
        key = key.strip()
        if key in out:
            raise ValidationError(f"{option}: {key!r} is given twice")
        if key not in allowed:
            raise ValidationError(f"{option}: {key!r} is not one of {', '.join(allowed)}")
        out[key] = _number(val, f"{option} {key}", lo=lo)
    return out


def parse_grid(kind: str, text: str, fixed_text: str | None = None) -> GridSpec:
    axes = []
    for part in text.split(","):
        pieces = part.strip().split(":")
        if len(pieces) != 4:
            raise ValidationError(f"grid axis {part!r} is not name:lo:hi:samples")
        name = pieces[0].strip()
        lo, hi = (_number(v, f"grid axis {name!r} bound") for v in pieces[1:3])
        if lo >= hi:
            raise ValidationError(f"grid axis {name!r} needs lo < hi")
        if not math.isfinite(hi - lo):
            raise ValidationError(f"grid axis {name!r}: hi - lo is not finite")
        samples = _number(pieces[3], f"grid axis {name!r} samples", int, lo=2)
        axes.append(GridAxis(name, lo, hi, samples))

    names = tuple(a.name for a in axes)
    fixed: tuple[tuple[str, float], ...] = ()
    if kind in _AXIS_NAMES:
        if names != _AXIS_NAMES[kind]:
            raise ValidationError(
                f"{kind} grid needs axes {','.join(_AXIS_NAMES[kind])} in order, got {','.join(names)}"
            )
        if fixed_text:
            raise ValidationError("--fix applies only to plane4d grids")
        if kind == "sphere":  # every grid point lies between the theta bounds
            for bound in (axes[0].lo, axes[0].hi):
                if not -1e-12 <= bound <= math.pi + 1e-12:
                    raise ValidationError(f"theta = {bound!r} outside [0, pi]")
    elif kind == "plane4d":
        if len(names) != 2 or len(set(names)) != 2 or not set(names) <= set(_PLANE_AXES):
            raise ValidationError(
                f"plane4d grid needs two distinct axes among {','.join(_PLANE_AXES)}"
            )
        remaining = {name: 0.0 for name in _PLANE_AXES if name not in names}
        if fixed_text:
            remaining.update(_key_values(fixed_text, "--fix", remaining))
        fixed = tuple(sorted(remaining.items()))
    else:
        raise ValidationError(f"unknown grid kind {kind!r}")

    spec = GridSpec(kind, tuple(axes), fixed)
    if spec.total_points() > _MAX_GRID_POINTS:
        raise CapacityError(
            f"grid has {spec.total_points()} points, above the {_MAX_GRID_POINTS} budget"
        )
    return spec


def _amplitudes(pairs: list, n: int, where: str) -> tuple[complex, ...]:
    """Read the 2^n complex values of a raw state or operator row from
    (re, im) text pairs."""
    if len(pairs) != 2**n:
        raise ValidationError(f"{where} needs {2**n} re,im pairs, got {len(pairs)}")
    return tuple(complex(_number(re, where), _number(im, where)) for re, im in pairs)


def _split_pairs(tokens: list[str]) -> list[tuple[str, str]]:
    return [tuple(tok.partition(",")[::2]) for tok in tokens]


def parse_state_text(text: str) -> StateSpec:
    """Parse the line-oriented state description format."""
    entries: list[tuple[str, list[str]]] = []
    for rawline in text.splitlines():
        line = rawline.strip()
        if line and not line.startswith("#"):
            key, *vals = line.split()
            entries.append((key, vals))
    lines: dict[str, list[str]] = {}
    for key, vals in entries:
        if key in lines:
            raise ValidationError(f"state file gives '{key}' twice")
        if key not in ("amp", "row", "component"):
            lines[key] = vals

    def field(key: str, count: int = 1) -> list[str]:
        if key not in lines:
            raise ValidationError(f"state file needs a '{key}' line")
        if len(lines[key]) != count:
            raise ValidationError(f"'{key}' takes {count} value(s), got {len(lines[key])}")
        return lines[key]

    kind = field("kind")[0]
    n = _number(field("spins")[0], "spins", int, lo=1)
    _check_capacity(n)  # before anything of size 2^n is built
    if kind not in _KIND_KEYS:
        raise ValidationError(f"unknown state kind {kind!r}")
    for key, _ in entries:
        if key not in ("kind", "spins", *_KIND_KEYS[kind]):
            raise ValidationError(f"a {kind} state takes no '{key}' line")

    def spec(kind: str, texts: list, prefix: str = "") -> StateSpec:
        """A state of a kind in the table from its parameter texts, or a
        raw state from its (re, im) pairs."""
        if kind == "raw":
            return StateSpec("raw", n, amplitudes=_amplitudes(texts, n, f"{prefix}raw state"))
        return StateSpec(kind, n, **{name: _number(text, prefix + name, cast)
                                     for (name, cast), text in zip(_KIND_PARAMS[kind], texts)})

    if kind in _KIND_PARAMS:
        return spec(kind, [field(name)[0] for name, _ in _KIND_PARAMS[kind]])
    if kind == "raw":
        amps = [vals for key, vals in entries if key == "amp"]
        if any(len(vals) != 2 for vals in amps):
            raise ValidationError("each 'amp' line needs re and im")
        return spec("raw", amps)
    if kind == "squeezed":
        beta = complex(*(_number(v, "beta") for v in field("beta", 2)))
        return StateSpec("squeezed", n, beta=beta, **{
            key: _number(field(key)[0], key) for key in ("base_theta", "base_phi") if key in lines})
    if kind == "mixture":
        comps = []
        for i, vals in enumerate((vals for key, vals in entries if key == "component"), 1):
            where = f"component {i}"
            if len(vals) < 2 or vals[1] not in (*_KIND_PARAMS, "raw"):
                raise ValidationError(f"{where}: needs a weight and one of the kinds "
                                      f"{', '.join(_KIND_PARAMS)}, raw")
            ckind, rest = vals[1], vals[2:]
            if ckind == "raw":
                rest = _split_pairs(rest)
            elif len(rest) != len(_KIND_PARAMS[ckind]):
                raise ValidationError(f"{where}: {ckind} takes {len(_KIND_PARAMS[ckind])} "
                                      f"parameters, got {len(rest)}")
            comps.append((_number(vals[0], f"{where} weight"), spec(ckind, rest, f"{where} ")))
        if not comps:
            raise ValidationError("mixture needs 'component' lines")
        return StateSpec("mixture", n, components=tuple(comps))
    rows = [_amplitudes(_split_pairs(vals), n, f"row {i}")  # the operator kind
            for i, vals in enumerate((vals for key, vals in entries if key == "row"), 1)]
    if len(rows) != 2**n:
        raise ValidationError(f"operator needs {2**n} 'row' lines, got {len(rows)}")
    return StateSpec("operator", n, matrix=tuple(rows))


def load_state_spec(path: str) -> StateSpec:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"state file {path}: byte {exc.start} "
                              f"(0x{data[exc.start]:02x}) is not UTF-8") from None
    return parse_state_text(text)


def _push_spec(spec: StateSpec) -> tuple[OscillatorDensity, float]:
    """Realize and push a spec; returns the pushed operator and input trace."""
    op = realize_operator(spec)
    omega = construct_omega(decompose_angular_basis(spec.n))
    if spec.kind == "operator":
        return push_operator(omega, op), float(np.trace(op).real)
    return push_density(omega, op), op.trace


# Powers of ten 10^-340..10^340 in longdouble, and the margin that makes a
# rounding decision in that arithmetic safe: the scaled mantissa carries at
# most about two eps of relative error (one from the table entry, one from
# the product), so a fraction more than 64 eps * 10^13 away from one half
# rounds as the exact value would. Where longdouble is plain double the
# margin is wider, the table overflows past 10^308, and more values take the
# exact fallback.
with np.errstate(over="ignore"):
    _POW10 = np.power(np.longdouble(10), np.arange(-340, 341))
_ROUND_MARGIN = 64 * np.finfo(np.longdouble).eps * 1e13
# "0000".."9999", four ASCII digits in each uint32
_DIGIT_QUADS = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10
                + ord("0")).astype(np.uint8).view(np.uint32).ravel()
_FIELD = 21  # "-d.dddddddddddde-ddd" and a separator


def _format_fields(v: np.ndarray) -> np.ndarray:
    """Each finite float64 as the bytes of ``"%.12e," % v``, one row each.

    Rows are ``_FIELD`` bytes: sign, digit, ``.``, 12 digits, ``e``,
    exponent sign, hundreds digit, two exponent digits, ``,``. A sign or
    hundreds digit that is absent is a NUL byte, which the caller strips.
    The 13 significant digits come from rounding y = |v| * 10^(12 - E),
    E = floor(log10 |v|), in longdouble. A value whose y falls outside
    [10^12, 10^13) or is not finite, or whose fraction lies within
    ``_ROUND_MARGIN`` of one half, is formatted by Python's ``%`` instead,
    which rounds the exact binary value.
    """
    zero = v == 0.0
    a = np.where(zero, 1.0, np.abs(v))  # zeros are formatted as 1.0, then cleared
    e = np.floor(np.log10(a)).astype(np.int64)
    y = a * _POW10[340 + 12 - e]
    fast = (y >= 1e12) & (y < 1e13)  # False where y is not finite or log10 was one off
    y[~fast] = 1e12
    r = y.astype(np.int64)  # y is positive, so the cast is floor
    frac = (y - r).astype(np.float64)
    fast &= np.abs(frac - 0.5) > _ROUND_MARGIN
    r += frac > 0.5
    for i in np.flatnonzero(~fast):
        text = "%.12e" % float(a[i])
        r[i], e[i] = int(text[0] + text[2:14]), int(text[15:])
    carry = r == 10**13
    r[carry] = 10**12
    e[carry] += 1
    r[zero] = 0
    e[zero] = 0
    out = np.zeros((v.size, _FIELD), dtype=np.uint8)
    out[:, 0] = np.where(np.signbit(v), ord("-"), 0)
    lead, rest = np.divmod(r, 10**12)
    high, rest = np.divmod(rest, 10**8)
    mid, low = np.divmod(rest, 10**4)
    out[:, 1] = lead + ord("0")
    out[:, 2] = ord(".")
    out[:, 3:15] = _DIGIT_QUADS[np.stack([high, mid, low], axis=1)].view(np.uint8)
    out[:, 15] = ord("e")
    out[:, 16] = np.where(e < 0, ord("-"), ord("+"))
    exponent = np.abs(e)
    out[:, 17:20] = _DIGIT_QUADS[exponent[:, None]].view(np.uint8)[:, 1:]
    out[exponent < 100, 17] = 0
    out[:, 20] = ord(",")
    return out


def _write_grid(path: str, header: list[str], grid: GridSpec, names: list[str],
                values: list[np.ndarray]) -> None:
    """Write one row per grid point, axes in "ij" order, then the values.

    Numbers read exactly as ``f"{v:.12e}"``; ``_format_fields`` builds their
    bytes in numpy. Axis points are formatted once and gathered per row;
    values are formatted one chunk of ``_CHUNK`` rows at a time, so no buffer
    spans the whole grid.
    """
    points = [a.points() for a in grid.axes]
    if not (np.isfinite(values).all() and all(np.isfinite(p).all() for p in points)):
        raise NumericError("refusing to write a non-finite value")
    labels = [_format_fields(p) for p in points]
    sizes = [p.size for p in points]
    total = math.prod(sizes)
    with open(path, "wb") as fh:
        fh.write("".join(f"# {line}\n" for line in header).encode())
        fh.write((",".join([a.name for a in grid.axes] + names) + "\n").encode())
        for start in range(0, total, _CHUNK):
            stop = min(start + _CHUNK, total)
            index = np.unravel_index(np.arange(start, stop), sizes)
            rows = np.concatenate([lab.take(i, axis=0) for lab, i in zip(labels, index)]
                                  + [_format_fields(col[start:stop]) for col in values], axis=1)
            rows[:, -1] = ord("\n")
            fh.write(rows.tobytes().translate(None, b"\0"))


def _maybe_normalization(average: OscillatorDensity, notes: list[str]) -> float:
    """Sphere integral of a fiber average, or NaN with a note saying why not."""
    try:  # the spherical function of a non-Hermitian operator is complex
        _check_hermitian(_same_total_blocks(average.n, average.elements))
    except NumericError as exc:
        notes.append(f"normalization skipped: {exc}")
        return math.nan
    if average.represented_trace <= 1e-9:
        notes.append(f"normalization skipped: represented trace "
                     f"{average.represented_trace:.3e} is not above 1e-9")
        return math.nan
    return sphere_normalization(average)


def _evaluate_grid(spec: StateSpec, grid: GridSpec, out_path: str, evaluate,
                   header: tuple[str, ...] = ()) -> EvalReport:
    """Push, evaluate, normalize, and write the file only once all succeeded.

    ``evaluate(density, *axis_points, notes)`` gets one flat array per axis
    and returns the value column names and arrays. The three-variable grids
    (volume, sphere) and the normalization get ``fiber_average`` of the pushed
    operator; when it fails the commutation test, a note and a header line say so.
    """
    started = time.perf_counter()
    pushed, _ = _push_spec(spec)
    average = fiber_average(pushed)
    density = pushed if grid.kind == "plane4d" else average
    mesh = np.meshgrid(*(a.points() for a in grid.axes), indexing="ij")
    notes: list[str] = []
    if grid.kind != "plane4d" and not pushed.commutes_with_s2:
        notes.append(f"fiber average: operator does not commute with total spin squared "
                     f"(residual {pushed.s2_residual:.3e}); plane4d shows the cross-shell "
                     "coherences the average drops")
        header = (*header, "reduction: fiber average")
    names, values = evaluate(density, *(g.ravel() for g in mesh), notes)
    norm = _maybe_normalization(average, notes)
    _write_grid(out_path, [f"spinwigner {__version__}", f"state: {spec.describe()}",
                           f"grid: {grid.describe()}", *header], grid, names, values)
    elapsed = (time.perf_counter() - started) * 1000.0
    return EvalReport(pushed.represented_trace, pushed.commutes_with_s2,
                      norm, elapsed, notes=tuple(notes))


def cmd_eval_volume(spec: StateSpec, grid: GridSpec, out_path: str) -> EvalReport:
    """Evaluate the reduced function on a volume grid and write it out."""

    def evaluate(density, x1, x2, x3, notes):
        return ["value"], [reduced_wigner_many(density, x1, x2, x3)]

    return _evaluate_grid(spec, grid, out_path, evaluate)


def cmd_eval_sphere(spec: StateSpec, grid: GridSpec, out_path: str,
                    method: str = "numeric") -> EvalReport:
    """Evaluate the spherical function on an angular grid and write it out."""

    def evaluate(density, theta, phi, notes):
        if method != "numeric":  # the fiber average has no cross-shell terms
            analytic = ws_analytic(LmDensity.from_density(density), theta, phi)
        if method != "analytic":  # in chunks, since the radial nodes multiply the points
            numeric = np.concatenate([ws_numeric_many(density, theta[i:i + _CHUNK],
                                                      phi[i:i + _CHUNK])
                                      for i in range(0, theta.size, _CHUNK)])
        if method == "both":
            return (["value", "value_numeric", "abs_diff"],
                    [analytic, numeric, np.abs(analytic - numeric)])
        return ["value"], [numeric if method == "numeric" else analytic]

    return _evaluate_grid(spec, grid, out_path, evaluate, (f"method: {method}",))


def cmd_eval_plane4d(spec: StateSpec, grid: GridSpec, out_path: str) -> EvalReport:
    """Evaluate a two-coordinate slice of the four-dimensional function.

    This is the one view of the coherences between Fock totals that the
    fiber average of ``volume`` and ``sphere`` drops; complex values are
    written as separate re/im columns.
    """

    def evaluate(density, ga, gb, notes):
        coords = {**dict(grid.fixed), grid.axes[0].name: ga, grid.axes[1].name: gb}
        vals = wigner_complex_many(density, *(coords[name] for name in _PLANE_AXES))
        return ["value_re", "value_im"], [vals.real, vals.imag]

    return _evaluate_grid(spec, grid, out_path, evaluate)


def cmd_check(spec: StateSpec, tolerances: dict[str, float] | None = None,
              samples: int = 100) -> tuple[EvalReport, bool]:
    """Run the consistency checks on one state; returns (report, all-passed)."""
    tol = dict(_DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    started = time.perf_counter()
    density, input_trace = _push_spec(spec)
    notes: list[str] = []
    norm = _maybe_normalization(fiber_average(density), notes)
    fiber = check_fiber_invariance(density, samples)

    ok = density.commutes_with_s2
    if fiber > tol["fiber"]:
        ok = False
        notes.append(f"fiber invariance violated: deviation {fiber:.3e} > {tol['fiber']:.0e}")
    if abs(input_trace - 1.0) <= tol["trace"]:
        if abs(density.represented_trace - 1.0) > tol["trace"]:
            ok = False
            notes.append(
                f"information lost: represented trace {density.represented_trace:.6f} != 1"
            )
    else:
        notes.append(f"input trace {input_trace:.6f} is not 1; trace check skipped")
    # the sphere integral equals the represented trace by construction
    bound = tol["norm"] * max(1.0, abs(density.represented_trace))
    if not math.isnan(norm) and abs(norm - density.represented_trace) > bound:
        ok = False
        notes.append(f"sphere normalization {norm!r} differs from the represented trace "
                     f"{density.represented_trace!r} by more than {bound:.0e}")
    if not density.commutes_with_s2:
        notes.append(
            f"operator does not commute with total spin squared "
            f"(residual {density.s2_residual:.3e})"
        )
    elapsed = (time.perf_counter() - started) * 1000.0
    report = EvalReport(density.represented_trace, density.commutes_with_s2,
                        norm, elapsed, fiber_deviation=fiber, notes=tuple(notes))
    return report, ok


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinwigner",
        description="Evaluate spin Wigner-like functions on grids and write CSV files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_grid=True):
        p.add_argument("--state", required=True, help="state description file")
        if needs_grid:
            p.add_argument("--grid", required=True, help="axis spec name:lo:hi:samples,...")
            p.add_argument("--out", required=True, help="output CSV path")

    p_vol = sub.add_parser("volume", help="reduced function on an x1,x2,x3 grid")
    add_common(p_vol)
    p_sph = sub.add_parser("sphere", help="spherical function on a theta,phi grid")
    add_common(p_sph)
    p_sph.add_argument("--method", choices=("analytic", "numeric", "both"),
                       default="numeric")
    p_pl = sub.add_parser("plane4d", help="2D slice of the four-dimensional function")
    add_common(p_pl)
    p_pl.add_argument("--fix", default=None,
                      help="values for the fixed coordinates, e.g. q2=0,p2=0")
    p_chk = sub.add_parser("check", help="normalization / invariance checks")
    add_common(p_chk, needs_grid=False)
    p_chk.add_argument("--tolerance", default=None,
                       help="override tolerances, e.g. norm=1e-8,fiber=1e-6,trace=1e-9")
    p_chk.add_argument("--samples", default="100",
                       help="sample count for the fiber-invariance check")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            tolerances = (_key_values(args.tolerance, "--tolerance", _DEFAULT_TOLERANCES, lo=0.0)
                          if args.tolerance else {})
            samples = _number(args.samples, "--samples", int, lo=1)
            if samples > _MAX_GRID_POINTS:
                raise CapacityError(f"--samples {samples} is above the {_MAX_GRID_POINTS} budget")
            report, ok = cmd_check(load_state_spec(args.state), tolerances, samples=samples)
            for line in report.lines():
                print(line)
            print(f"status={'ok' if ok else 'fail'}")
            return 0 if ok else 1
        spec = load_state_spec(args.state)
        grid = parse_grid(args.command, args.grid,
                          getattr(args, "fix", None))
        if args.command == "volume":
            report = cmd_eval_volume(spec, grid, args.out)
        elif args.command == "sphere":
            report = cmd_eval_sphere(spec, grid, args.out, method=args.method)
        else:
            report = cmd_eval_plane4d(spec, grid, args.out)
        for line in report.lines():
            print(line)
        return 0
    except (SpinWignerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, CapacityError) else 2 if isinstance(exc, NumericError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
