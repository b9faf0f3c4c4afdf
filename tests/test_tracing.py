"""The benchmark's layer tracer must find every function it wraps.

``perfbench/tracer.py`` wraps library functions by name; a renamed or
removed one would otherwise only show when a traced benchmark run fails.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_RUN = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
recorder = tracer.Recorder("tier1")
main = tracer.install(recorder)
codes = [main(argv) for argv in json.loads(sys.argv[3])]
with open(sys.argv[4], "w") as fh:
    json.dump({"codes": codes, "names": sorted({s["name"] for s in recorder.spans}),
               "targets": [f"{m}.{f}" for m, fs in tracer.TARGETS.items() for f in fs],
               "metrics": tracer.layer_metrics(recorder.spans)}, fh)
"""


def test_tracer_records_every_layer(tmp_path):
    states = {"cat": "kind cat\nspins 3\n",
              "coherent": "kind coherent\nspins 3\ntheta 1.1\nphi 0.4\n",
              "operator": "kind operator\nspins 1\nrow 1,0 1,0\nrow 0,0 1,0\n"}
    for name, text in states.items():
        (tmp_path / name).write_text(text)
    jobs = [["volume", "--state", str(tmp_path / "cat"), "--grid",
             "x1:-2:2:3,x2:-2:2:3,x3:-2:2:3", "--out", str(tmp_path / "v.csv")],
            ["sphere", "--state", str(tmp_path / "coherent"), "--grid",
             "theta:0:3.14:3,phi:0:6.28:4", "--method", "both", "--out", str(tmp_path / "s.csv")],
            ["check", "--state", str(tmp_path / "operator")]]
    result = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _RUN, str(ROOT / "perfbench"), str(ROOT / "src"),
         json.dumps(jobs), str(result)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(result.read_text())
    assert got["codes"] == [0, 0, 0]
    assert set(got["targets"]) | {"sphere.LmDensity.from_density"} <= set(got["names"])
    metrics = got["metrics"]
    assert metrics["missing_layers"] == []
    # every per-layer metric of the benchmark but the three that perfbench/run.py
    # sets itself gets a value from these jobs, and the normalization's kernel is seen
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer"]}
    wanted -= {"cli.rows_written", "cli.bytes_written", "trace_overhead"}
    assert sorted(wanted - set(metrics)) == []
    assert metrics["sphere.normalization_points"] > 0
