"""Layer spans recorded from outside the program.

``install`` wraps each layer's public functions under every name by which
the package's modules call them, so the library itself is unchanged. A
span records its name, start, end, parent span and job id, plus the
counts needed for the layer metrics; spans stay in memory and ``dump``
writes them out when the job ends. ``layer_metrics`` turns the spans of a
pass into per-layer totals, where a span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time

LAYERS = ("cli", "states", "spin_core", "omega_map", "moyal", "reduced_space", "sphere")

# module -> public functions wrapped; the span name is "<module>.<function>".
TARGETS = {
    "states": ("realize_operator",),
    "spin_core": ("decompose_angular_basis",),
    "omega_map": ("construct_omega", "push_density", "push_operator"),
    "moyal": ("wigner_complex_many",),
    "reduced_space": ("reduced_wigner_many", "check_fiber_invariance"),
    "sphere": ("sphere_normalization", "ws_numeric_many", "ws_analytic"),
}

# Roundoff threshold of LmDensity.from_density: 1e-13 of the largest element.
SIGNIFICANT = 1e-13


class Recorder:
    def __init__(self, job: str):
        self.job = job
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn, counts=None):
        def traced(*args, **kwargs):
            span = {"name": name, "job": self.job,
                    "parent": self.stack[-1] if self.stack else None, "error": False}
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _nnz(density) -> dict:
    import numpy as np

    mag = np.abs(density.elements)
    tol = SIGNIFICANT * max(1.0, float(mag.max(initial=0.0)))
    return {"nnz": int(np.count_nonzero(mag)), "nnz_significant": int(np.count_nonzero(mag > tol)),
            "fock_dim": int(mag.shape[0])}


def _kernel_counts(args, kwargs, result) -> dict:
    out = _nnz(args[0])
    out["points"] = int(result.size)
    return out


def _push_counts(args, kwargs, result) -> dict:
    return _nnz(result)


def _lm_counts(args, kwargs, result) -> dict:
    return {"lm_terms": len(result.same_shell) + len(result.cross_shell)}


COUNTS = {
    "spin_core.decompose_angular_basis": lambda a, k, r: {"hilbert_dim": 2 ** a[0]},
    "omega_map.push_density": _push_counts,
    "omega_map.push_operator": _push_counts,
    "moyal.wigner_complex_many": _kernel_counts,
    "sphere.LmDensity.from_density": _lm_counts,
}


def install(recorder: Recorder):
    """Wrap every target under all the names that refer to it; returns cli.main."""
    import spinwigner.cli as cli

    modules = [m for name, m in sys.modules.items()
               if name == "spinwigner" or name.startswith("spinwigner.")]
    for mod_name, functions in TARGETS.items():
        owner = sys.modules[f"spinwigner.{mod_name}"]
        for fn_name in functions:
            original = getattr(owner, fn_name)
            name = f"{mod_name}.{fn_name}"
            traced = recorder.wrap(name, original, COUNTS.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
    lm = sys.modules["spinwigner.sphere"].LmDensity
    name = "sphere.LmDensity.from_density"
    lm.from_density = classmethod(recorder.wrap(name, lm.from_density.__func__, COUNTS[name]))
    return recorder.wrap("cli.main", cli.main)


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer totals over the spans of one pass (all jobs), plus the list
    of layers that recorded no span under ``missing_layers``."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def under(i: int, name: str) -> bool:
        p = spans[i]["parent"]
        while p is not None:
            if spans[p]["name"] == name:
                return True
            p = spans[p]["parent"]
        return False

    m: dict = {}

    def add(key: str, value) -> None:
        m[key] = m.get(key, 0) + value

    seen = set()
    for i, s in enumerate(spans):
        name, dur = s["name"], s["end"] - s["start"]
        own = dur - child_time[i]
        layer = name.split(".", 1)[0]
        seen.add(layer)
        add(f"{layer}.errors", int(s["error"]))
        if name == "cli.main":
            add("cli.self_s", own)
        elif name == "states.realize_operator":
            add("states.realize_s", dur)
            add("states.calls", 1)
        elif name == "spin_core.decompose_angular_basis":
            add("spin_core.basis_s", dur)
            add("spin_core.hilbert_dim", s.get("hilbert_dim", 0))
        elif name == "omega_map.construct_omega":
            add("omega_map.embed_s", dur)
        elif name in ("omega_map.push_density", "omega_map.push_operator"):
            add("omega_map.push_s", dur)
            for key in ("fock_dim", "nnz", "nnz_significant"):
                add(f"omega_map.{key}", s.get(key, 0))
        elif name == "moyal.wigner_complex_many":
            add("moyal.kernel_s", own)
            add("moyal.points", s.get("points", 0))
            add("moyal.pair_points", s.get("nnz", 0) * s.get("points", 0))
            add("useful_pair_points", s.get("nnz_significant", 0) * s.get("points", 0))
            if under(i, "sphere.sphere_normalization"):
                add("sphere.normalization_points", s.get("points", 0))
        elif name in ("reduced_space.reduced_wigner_many", "reduced_space.check_fiber_invariance"):
            add("reduced_space.self_s", own)
            if name == "reduced_space.check_fiber_invariance":
                add("reduced_space.fiber_check_s", dur)
        elif name == "sphere.sphere_normalization":
            add("sphere.normalization_s", dur)
        elif name == "sphere.ws_numeric_many":
            add("sphere.numeric_self_s", own)
        elif name == "sphere.ws_analytic":
            add("sphere.analytic_s", dur)
            add("sphere.analytic_points", 1)
        elif name == "sphere.LmDensity.from_density":
            add("sphere.analytic_s", dur)
            add("sphere.lm_terms", s.get("lm_terms", 0))

    useful = m.pop("useful_pair_points", 0)
    pairs = m.get("moyal.pair_points", 0)
    m["moyal.useful_pair_ratio"] = useful / pairs if pairs else 0.0
    m["moyal.ns_per_pair_point"] = m.get("moyal.kernel_s", 0.0) * 1e9 / pairs if pairs else 0.0
    m["missing_layers"] = [layer for layer in LAYERS if layer not in seen]
    return m
