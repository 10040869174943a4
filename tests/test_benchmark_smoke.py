"""Smoke test of the benchmark's traced mode."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


# front-simulation is the only workload that runs diagnostics
@pytest.mark.parametrize("workload", ["point-analysis", "front-simulation"])
def test_traced_workload_ends_in_a_result_line(workload):
    # the last stdout line is the machine-read result: strict JSON with
    # every per-layer metric that BENCHMARK.json declares
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1],
                        parse_constant=_reject_constant)
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
