"""Compare what two source trees write for every benchmark job.

    python3 tools/parity.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are ``src`` directories holding a ``spinwigner``
package. Every job of ``perfbench/jobs.WORKLOADS`` for seeds 7 and 8675309
runs once against each through ``perfbench/shim.py``, in a fresh
interpreter. The script compares the exit codes, the bytes of the written
CSV files after their first line, ``# spinwigner <version>`` with the
version each tree declares, and stdout apart from its ``timing_ms`` line.
A CSV that does not start with its tree's version line is compared whole.
It names each difference on stderr and sizes it: for a CSV, how many data
lines differ, the largest absolute gap between their parsed values, and for
each column that moves, its largest gap relative to the column's largest
|value| (a column of pure roundoff moves on many lines by a tiny share of
its size); for stdout, the ``key=`` of the first line that differs. It prints one summary
line, which names the two versions when they differ, and exits 1 when
anything differs. Of this repository it only reads ``perfbench/``.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import tempfile
from itertools import zip_longest

import numpy as np

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
SHIM = os.path.join(PERFBENCH, "shim.py")
SEEDS = (7, 8675309)

sys.path.insert(0, PERFBENCH)
import jobs  # noqa: E402


def run_job(src: str, job, workdir: str) -> tuple[int, bytes | None, list[str]]:
    """Exit code, CSV bytes (None when no file was written) and stdout lines."""
    state, out = os.path.join(workdir, "job.state"), os.path.join(workdir, "job.csv")
    with open(state, "w", encoding="utf-8") as fh:
        fh.write(job.state.text())
    if os.path.exists(out):
        os.remove(out)
    proc = subprocess.run([sys.executable, SHIM, src, "-", job.name, *job.argv(state, out)],
                          capture_output=True, check=False)
    csv = None
    if os.path.exists(out):
        with open(out, "rb") as fh:
            csv = fh.read()
    stdout = [line for line in proc.stdout.decode("utf-8").splitlines()
              if not line.startswith("timing_ms=")]
    return proc.returncode, csv, stdout


def version(src: str) -> str:
    """The ``__version__`` that the package in ``src`` declares."""
    with open(os.path.join(src, "spinwigner", "__init__.py"), encoding="utf-8") as fh:
        return re.search(r'^__version__ = "([^"]+)"', fh.read(), re.M).group(1)


def after_version_line(result, ver: str):
    """``result`` with the CSV's leading ``# spinwigner <ver>`` line cut off."""
    code, csv, stdout = result
    head = f"# spinwigner {ver}\n".encode()
    if csv is not None and csv.startswith(head):
        csv = csv[len(head):]
    return code, csv, stdout


def csv_size(old: bytes | None, new: bytes | None) -> str:
    """How many data lines of two CSVs differ, the largest absolute gap
    between the values of the lines both have (NaN when they do not parse
    alike), and per column that moves, that column's largest gap over its
    largest |value| in either file. Lines after ``#`` comments and the
    column header are data lines; a line that only one file has counts as
    differing."""
    if old is None or new is None:
        return "csv written by one side only"
    rows = [[line for line in csv.decode("utf-8").splitlines() if not line.startswith("#")]
            for csv in (old, new)]
    header = "" if rows[0][:1] == rows[1][:1] else ", column header differs"
    data = [r[1:] for r in rows]
    both = min(map(len, data))
    lines = abs(len(data[0]) - len(data[1])) + sum(a != b for a, b in zip(*data))
    size = f"csv: {lines} of {max(map(len, data))} data lines differ"
    if not both:
        return size + header
    try:
        values = [np.array([line.split(",") for line in d[:both]], dtype=float).reshape(both, -1)
                  for d in data]
        gaps = np.max(np.abs(values[0] - values[1]), axis=0, initial=0.0)
    except ValueError:
        return f"{size}, largest gap nan{header}"
    peaks = np.max(np.abs(np.concatenate(values)), axis=0, initial=0.0)
    moved = ", ".join(f"{name} {gap / peak if peak else math.inf:.1e}" for name, gap, peak
                      in zip(rows[0][0].split(","), gaps.tolist(), peaks.tolist()) if gap)
    relative = f"; gap / column max |value|: {moved}" if moved else ""
    return f"{size}, largest gap {np.max(gaps, initial=0.0):.1e}{relative}{header}"


def stdout_size(old: list[str], new: list[str]) -> str:
    """The ``key=`` of the first stdout line that differs (one side may have
    no line there)."""
    a, b = next((a, b) for a, b in zip_longest(old, new) if a != b)
    return f"stdout: first at {(a if a is not None else b).split('=', 1)[0]}="


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/parity.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    trees = [os.path.abspath(src) for src in argv]
    for src in trees:
        if not os.path.isdir(os.path.join(src, "spinwigner")):
            print(f"parity: {src} holds no spinwigner package", file=sys.stderr)
            return 2
    versions = [version(src) for src in trees]
    count, differ = 0, 0
    with tempfile.TemporaryDirectory() as workdir:
        for seed in SEEDS:
            for workload, make_jobs in jobs.WORKLOADS.items():
                for job in make_jobs(seed):
                    count += 1
                    old, new = (after_version_line(run_job(src, job, workdir), ver)
                                for src, ver in zip(trees, versions))
                    diffs = [what for what, a, b in zip(("exit code", "csv", "stdout"), old, new)
                             if a != b]
                    if diffs:
                        differ += 1
                        sizes = ([csv_size(old[1], new[1])] if "csv" in diffs else []) + (
                            [stdout_size(old[2], new[2])] if "stdout" in diffs else [])
                        print(f"{workload} seed {seed} {job.name}: {', '.join(diffs)} differ "
                              f"(exit {old[0]} vs {new[0]})" + "".join(f"; {x}" for x in sizes),
                              file=sys.stderr)
    note = f" (versions {versions[0]} and {versions[1]})" if versions[0] != versions[1] else ""
    print(f"parity: {count} jobs, {count - differ} identical, {differ} differ{note}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
