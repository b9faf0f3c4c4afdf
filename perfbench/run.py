"""Cold-process benchmark of the spinwigner command line.

    python3 perfbench/run.py --workload grid|sphere|setup --seed N --seconds S --trace 0|1

Run it from the repository root; it reads the library from ``src/``. Each
workload is a fixed, seeded list of CLI jobs run in a closed loop: one
client, one job in flight, every job a fresh interpreter running
``spinwigner.cli.main(argv)`` at the CLI's default ``--threads 1`` with
BLAS left at its defaults, because a real CLI user pays the imports and the
cache fills on every run. Whole passes over the list repeat while the next
one still fits in ``--seconds``; every job's output is checked after its
pass, outside the timed interval.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones (see ``tracer.py``), plus the tracing overhead. The metric names and
units are those of ``BENCHMARK.json``; the last line of the output is one
JSON object. The run exits non-zero without a result when the library is
missing or when a layer records no span in a traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy  # noqa: E402
import scipy  # noqa: E402

import jobs as joblists  # noqa: E402
import refs  # noqa: E402
import tracer  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SHIM = os.path.join(HERE, "shim.py")
SETUP_PROBES = 5
JOB_TIMEOUT_S = 60.0


class BenchError(Exception):
    pass


def spawn(argv: list[str], stdout_path: str, stderr_path: str) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, peak RSS in MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def measure_setup(workdir: str) -> list[float]:
    """Wall times of fresh interpreters that only import the CLI module."""
    probe = os.path.join(workdir, "probe")
    argv = [sys.executable, "-c",
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "import spinwigner.cli as c; print(c.__file__)",
            SRC]
    times = []
    for i in range(SETUP_PROBES + 1):
        elapsed, code, _ = spawn(argv, probe + ".out", probe + ".err")
        with open(probe + ".out", encoding="utf-8") as fh:
            where = fh.read().strip()
        if code != 0 or not where.startswith(SRC):
            raise BenchError(f"cannot import spinwigner.cli from {SRC} (exit {code})")
        if i:  # the first import may compile the package; it is not timed
            times.append(elapsed)
    return times


class Pass:
    """One timed pass over the job list, and the checks that follow it."""

    def __init__(self, job_list, workdir: str, traced: bool):
        self.jobs = job_list
        self.workdir = workdir
        self.traced = traced
        self.job_s: list[float] = []
        self.rss_mb: list[float] = []
        self.failed = 0
        self.rows = 0
        self.bytes = 0
        self.spans: list[dict] = []

    def path(self, job, suffix: str) -> str:
        return os.path.join(self.workdir, f"{job.name}.{suffix}")

    def run(self) -> None:
        codes = []
        started = time.perf_counter()
        for job in self.jobs:
            trace_file = self.path(job, "spans.json") if self.traced else "-"
            argv = [sys.executable, SHIM, SRC, trace_file, job.name,
                    *job.argv(self.path(job, "state"), self.path(job, "csv"))]
            elapsed, code, rss = spawn(argv, self.path(job, "stdout"), self.path(job, "stderr"))
            self.job_s.append(elapsed)
            self.rss_mb.append(rss)
            codes.append(code)
        self.wall_s = time.perf_counter() - started
        for job, code in zip(self.jobs, codes):
            self._check(job, code)

    def _check(self, job, code: int) -> None:
        try:
            if code != 0:
                raise refs.CheckFailed(f"exit code {code}")
            with open(self.path(job, "stdout"), encoding="utf-8") as fh:
                report = refs.read_report(fh.read())
            rows, size = refs.check_job(job, report, self.path(job, "csv"))
            self.rows += rows
            self.bytes += size
        except (refs.CheckFailed, OSError, ValueError) as exc:
            self.failed += 1
            print(f"FAILED {job.name}: {exc}", file=sys.stderr)
        if self.traced:
            self._collect_spans(job)
        for suffix in ("csv", "spans.json"):
            if os.path.exists(self.path(job, suffix)):
                os.remove(self.path(job, suffix))

    def _collect_spans(self, job) -> None:
        try:
            with open(self.path(job, "spans.json"), encoding="utf-8") as fh:
                spans = json.load(fh)
        except (OSError, ValueError) as exc:
            raise BenchError(f"{job.name}: no span file ({exc})") from exc
        offset = len(self.spans)
        for s in spans:
            if s["parent"] is not None:
                s["parent"] += offset
        self.spans.extend(spans)


def run_passes(job_list, workdir: str, seconds: float, trace: bool) -> list[Pass]:
    """Closed loop: repeat whole passes (untraced, traced when tracing) while
    the next round still fits in ``seconds``; at least one round runs."""
    pattern = (False, True) if trace else (False,)
    passes: list[Pass] = []
    window = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        for traced in pattern:
            p = Pass(job_list, workdir, traced)
            p.run()
            passes.append(p)
        now = time.perf_counter()
        if (now - window) + (now - round_started) > seconds:
            return passes


def end_to_end(passes: list[Pass], setup: list[float]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        # Median over the list of each job's median across passes: with an
        # odd job count it moves continuously with the job times.
        "job_p50_s": statistics.median(statistics.median(times)
                                       for times in zip(*(p.job_s for p in passes))),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r for p in passes for r in p.rss_mb),
    }


def per_layer(passes: list[Pass], workload: str) -> dict[str, float]:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    per_pass = []
    for p in traced:
        m = tracer.layer_metrics(p.spans)
        missing = m.pop("missing_layers")
        if missing:
            raise BenchError(f"workload {workload}: no span recorded for layer(s) "
                             f"{', '.join(missing)}")
        m["cli.rows_written"] = p.rows
        m["cli.bytes_written"] = p.bytes
        per_pass.append(m)
    out = {key: statistics.median(m.get(key, 0) for m in per_pass)
           for key in set().union(*per_pass)}
    out["trace_overhead"] = (statistics.median(p.wall_s for p in traced)
                             / statistics.median(p.wall_s for p in untraced) - 1.0)
    return out


def environment() -> dict[str, str]:
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": str(len(os.sched_getaffinity(0)))}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var, "unset")
    return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(joblists.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so the running job is
    # killed and reaped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    cli_path = os.path.join(SRC, "spinwigner", "cli.py")
    if not (os.path.isfile(cli_path) and os.path.isfile(spec_path)):
        print(f"error: run from the repository root; no {cli_path} or {spec_path}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    job_list = joblists.WORKLOADS[args.workload](args.seed)
    workdir = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for job in job_list:
            with open(os.path.join(workdir, f"{job.name}.state"), "w", encoding="utf-8") as fh:
                fh.write(job.state.text())
        sys.path.insert(0, SRC)  # the operator reference pushes with the library
        setup = measure_setup(workdir)
        passes = run_passes(job_list, workdir, args.seconds, bool(args.trace))
        values = per_layer(passes, args.workload) if args.trace else end_to_end(passes, setup)
        unmeasured = [m["name"] for m in wanted if m["name"] not in values]
        if unmeasured:
            raise BenchError(f"workload {args.workload}: no value for {', '.join(unmeasured)}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.jobs) for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload={args.workload} seed={args.seed} jobs_per_pass={len(job_list)} "
          f"passes={len(passes)} attempted={attempted} failed={failed}")
    print(" ".join(f"{k}={v}" for k, v in environment().items()))
    for job, t, rss in zip(job_list, passes[0].job_s, passes[0].rss_mb):
        print(f"  job {job.name:28s} {t:8.3f} s {rss:8.1f} MB")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:30s} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
