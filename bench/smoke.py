"""Tiny-size smoke test of the benchmark (n_t = 51, three cells).

    python3 -m pytest -q bench/smoke.py

Runs every workload with tracing off and on, and asserts that every
metric named in BENCHMARK.json is printed, with its unit, both in the
report lines and in the final JSON line.  Not collected by the default
test run, which only picks up files named test_*.py.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    printed = {line.split()[0]: line.split() for line in lines[:-1]}
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert printed[name][2] == unit, name
    if not trace:
        for name, unit in (("err_max", "rel"), ("fail_frac", "ratio")):
            assert printed[name][2] == unit
