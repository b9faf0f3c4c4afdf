"""Compare what two source trees write for every benchmark job.

    python3 tools/parity.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are ``src`` directories holding a ``spinwigner``
package. Every job of ``perfbench/jobs.WORKLOADS`` for seeds 7 and 8675309
runs once against each through ``perfbench/shim.py``, in a fresh
interpreter. The script compares the exit codes, the bytes of the written
CSV files (header included) and stdout apart from its ``timing_ms`` line,
names each difference on stderr, prints one summary line and exits 1 when
anything differs. It only reads ``perfbench/``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

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


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/parity.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    trees = [os.path.abspath(src) for src in argv]
    for src in trees:
        if not os.path.isdir(os.path.join(src, "spinwigner")):
            print(f"parity: {src} holds no spinwigner package", file=sys.stderr)
            return 2
    count, differ = 0, 0
    with tempfile.TemporaryDirectory() as workdir:
        for seed in SEEDS:
            for workload, make_jobs in jobs.WORKLOADS.items():
                for job in make_jobs(seed):
                    count += 1
                    old, new = (run_job(src, job, workdir) for src in trees)
                    diffs = [what for what, a, b in zip(("exit code", "csv", "stdout"), old, new)
                             if a != b]
                    if diffs:
                        differ += 1
                        print(f"{workload} seed {seed} {job.name}: {', '.join(diffs)} differ "
                              f"(exit {old[0]} vs {new[0]})", file=sys.stderr)
    print(f"parity: {count} jobs, {count - differ} identical, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
