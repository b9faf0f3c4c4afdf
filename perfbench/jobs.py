"""Seeded job lists for the three workloads.

A job is one CLI invocation plus the state it reads. The program only ever
sees the generated state files; the seed, the state parameters and the
references stay on this side. Angles are drawn away from the poles so the
cost of a job does not depend on the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

TWO_PI = 2.0 * math.pi
VOLUME_61 = "x1:-4:4:61,x2:-4:4:61,x3:-4:4:61"
VOLUME_9 = "x1:-4:4:9,x2:-4:4:9,x3:-4:4:9"
PLANE_201 = "{a}:-3:3:201,{b}:-3:3:201"


def sphere_grid(n_theta: int, n_phi: int) -> str:
    return f"theta:0:{math.pi!r}:{n_theta},phi:0:{TWO_PI!r}:{n_phi}"


@dataclass(frozen=True)
class State:
    """Parameters of one generated state; ``text`` is what the CLI reads."""

    family: str
    n: int
    params: dict = field(default_factory=dict)

    def text(self) -> str:
        p = self.params
        lines = [f"kind {self.family}", f"spins {self.n}"]
        if self.family == "coherent":
            lines += [f"theta {p['theta']!r}", f"phi {p['phi']!r}"]
        elif self.family == "fock":
            lines.append(f"excitations {p['k']}")
        elif self.family == "mixture":
            lines += [f"component {p['w_fock']!r} fock {p['k']}",
                      f"component {p['w_cat']!r} cat"]
        elif self.family == "squeezed":
            lines += [f"beta {p['beta'].real!r} {p['beta'].imag!r}",
                      f"base_theta {p['base_theta']!r}", f"base_phi {p['base_phi']!r}"]
        elif self.family == "operator":
            for row in p["matrix"]:
                lines.append("row " + " ".join(f"{v.real!r},{v.imag!r}" for v in row))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Job:
    name: str
    command: str
    state: State
    grid: str | None = None
    method: str | None = None
    fixed: tuple[tuple[str, float], ...] = ()

    def argv(self, state_path: str, out_path: str) -> list[str]:
        args = [self.command, "--state", state_path]
        if self.grid is not None:
            args += ["--grid", self.grid, "--out", out_path]
        if self.method is not None:
            args += ["--method", self.method]
        if self.fixed:
            args += ["--fix", ",".join(f"{c}={v!r}" for c, v in self.fixed)]
        return args


class _Draw:
    def __init__(self, seed: int, workload: str):
        self.rng = random.Random(f"{workload}:{seed}")

    def coherent(self, n: int) -> State:
        return State("coherent", n, {"theta": self.rng.uniform(0.3, 2.8),
                                     "phi": self.rng.uniform(0.0, TWO_PI)})

    def offset(self) -> float:
        return self.rng.uniform(-1.0, 1.0)

    def mixture(self, n: int, k: int) -> State:
        w = self.rng.uniform(0.3, 0.7)
        return State("mixture", n, {"k": k, "w_fock": w, "w_cat": 1.0 - w})

    def squeezed(self, n: int) -> State:
        mag, arg = self.rng.uniform(0.1, 0.3), self.rng.uniform(0.0, TWO_PI)
        return State("squeezed", n, {"beta": complex(mag * math.cos(arg), mag * math.sin(arg)),
                                     "base_theta": self.rng.uniform(0.3, 2.8),
                                     "base_phi": self.rng.uniform(0.0, TWO_PI)})

    def operator(self, n: int) -> State:
        # A dense complex matrix: non-Hermitian, and it couples every pair of
        # shells once pushed. Scaled so the plotted values stay of order 0.1.
        dim = 2**n
        matrix = tuple(tuple(complex(self.rng.gauss(0.0, 1.0), self.rng.gauss(0.0, 1.0)) / dim
                             for _ in range(dim)) for _ in range(dim))
        return State("operator", n, {"matrix": matrix})


def _plane(name: str, state: State, a: str, b: str, draw: _Draw) -> Job:
    fixed = tuple((c, draw.offset()) for c in ("q1", "p1", "q2", "p2") if c not in (a, b))
    return Job(name, "plane4d", state, PLANE_201.format(a=a, b=b), fixed=fixed)


def grid_jobs(seed: int) -> list[Job]:
    d = _Draw(seed, "grid")
    return [
        Job("volume-coherent-5", "volume", d.coherent(5), VOLUME_61),
        Job("volume-cat-4", "volume", State("cat", 4), VOLUME_61),
        _plane("plane4d-coherent-5", d.coherent(5), "q1", "p1", d),
        _plane("plane4d-cat-4", State("cat", 4), "q1", "q2", d),
        _plane("plane4d-operator-3", d.operator(3), "q1", "p1", d),
        # Two lighter jobs so the fiber check and the closed-form sphere route
        # run here too: every layer then records a span on every workload.
        Job("check-coherent-5", "check", d.coherent(5)),
        Job("sphere-analytic-cat-5", "sphere", State("cat", 5), sphere_grid(16, 31), "analytic"),
    ]


def sphere_jobs(seed: int) -> list[Job]:
    d = _Draw(seed, "sphere")
    return [
        Job("sphere-both-coherent-5", "sphere", d.coherent(5), sphere_grid(16, 31), "both"),
        Job("sphere-both-squeezed-6", "sphere", d.squeezed(6), sphere_grid(16, 31), "both"),
        Job("sphere-analytic-cat-5", "sphere", State("cat", 5), sphere_grid(31, 61), "analytic"),
        Job("sphere-analytic-cat-6", "sphere", State("cat", 6), sphere_grid(31, 61), "analytic"),
        Job("check-coherent-6", "check", d.coherent(6)),
    ]


def setup_jobs(seed: int) -> list[Job]:
    d = _Draw(seed, "setup")
    return [
        Job("check-cat-10", "check", State("cat", 10)),
        Job("volume-fock-10", "volume", State("fock", 10, {"k": 2}), VOLUME_9),
        Job("check-mixture-10", "check", d.mixture(10, 2)),
        Job("check-squeezed-9", "check", d.squeezed(9)),
        # Small closed-form sphere job so the analytic route records a span.
        Job("sphere-analytic-cat-9", "sphere", State("cat", 9), sphere_grid(9, 17), "analytic"),
    ]


WORKLOADS = {"grid": grid_jobs, "sphere": sphere_jobs, "setup": setup_jobs}
