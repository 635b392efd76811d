"""Smoke test of the benchmark: ``python -m pytest perf/test_smoke.py``.

Runs every workload at ``--tiny`` size, end to end and traced, through the
same command line the pipeline uses.  It asserts shape and correctness
only -- never a wall-clock value -- and is not collected by tier-1
(``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_reports_every_metric_once(workload, trace, section):
    run = subprocess.run(
        [*BENCHMARK["command"], "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True  # failed_share == 0
    assert "BROKEN PROBE" not in run.stdout

    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        printed = [ln.split() for ln in lines[:-1] if ln.split()[1:2] == [name]]
        assert len(printed) == 1, f"{name} printed {len(printed)} times"
        assert printed[0][3] == unit
