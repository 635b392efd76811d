"""Smoke checks over the benchmark suite.

The benches live outside ``testpaths`` and only run on demand, so an
import error or a renamed API can rot there unnoticed.  These tests keep
them honest: every ``bench_*.py`` module must import, the whole directory
must survive pytest collection, and the partition bench must actually
*run* end to end at tiny parameters.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"
BENCH_MODULES = sorted(p.stem for p in BENCH_DIR.glob("bench_*.py"))


@pytest.fixture(autouse=True)
def repo_root_on_path():
    sys.path.insert(0, str(REPO_ROOT))
    try:
        yield
    finally:
        sys.path.remove(str(REPO_ROOT))


@pytest.mark.smoke
def test_bench_directory_is_populated():
    assert "bench_parallel_partition" in BENCH_MODULES
    assert len(BENCH_MODULES) >= 20


@pytest.mark.smoke
@pytest.mark.parametrize("name", BENCH_MODULES)
def test_bench_module_imports(name):
    """Module-level code (sweep constants, fixtures, imports) must load."""
    module = importlib.import_module(f"benchmarks.{name}")
    assert any(attr.startswith("test_") for attr in dir(module)), (
        f"{name} defines no test entry points"
    )


@pytest.mark.smoke
def test_bench_suite_collects():
    """Every bench entry point must survive pytest collection."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "--collect-only", "-q"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.smoke
def test_partition_bench_runs_tiny():
    """The partition bench (granularity, rivals) end to end, with a tiny
    workload via its env knob."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["BENCH_PARTITION_COUNT"] = "40"
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest",
            "benchmarks/bench_parallel_partition.py", "-q",
        ],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.smoke
def test_trace_overhead_bench_runs_tiny(tmp_path):
    """Trace-overhead bench end to end, artifact JSON included.

    Tier-1 checks that the bench ran and emitted a well-formed artifact;
    it asserts no wall-clock bound.  Sized down, the bench itself skips
    its bounds too and says so (``bound_checked``); at its default size
    (``pytest benchmarks/bench_trace_overhead.py``) it enforces them.
    """
    import json

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["BENCH_TRACE_COUNT"] = "200"
    env["BENCH_ARTIFACT_DIR"] = str(tmp_path)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest",
            "benchmarks/bench_trace_overhead.py", "-q",
        ],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # The session hook must have shipped the run's numbers as JSON.
    artifact = tmp_path / "BENCH_bench_trace_overhead.json"
    assert artifact.exists(), sorted(p.name for p in tmp_path.iterdir())
    payload = json.loads(artifact.read_text())
    assert payload["exit_status"] == 0
    assert set(payload["payloads"]) >= {"zorder", "tree-join", "metrics_snapshot"}
    for key in ("zorder", "tree-join", "distributed"):
        stats = payload["payloads"][key]
        assert stats["overhead_fraction"] >= 0.0
        assert stats["tolerance"] > 0.0
        assert stats["bound_checked"] is False
    assert all(t["outcome"] == "passed" for t in payload["tests"])


@pytest.mark.smoke
def test_recovery_bench_runs_tiny():
    """Recovery time vs log length, end to end at a tiny op count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["BENCH_RECOVERY_OPS"] = "60"
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest",
            "benchmarks/bench_recovery.py", "-q",
        ],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.smoke
def test_shards_bench_runs_tiny(tmp_path):
    """Shard fleet bench end to end at a tiny size, artifact included."""
    import json

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["BENCH_SHARDS_SIZE"] = "60"
    env["BENCH_ARTIFACT_DIR"] = str(tmp_path)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest",
            "benchmarks/bench_shards.py", "-q",
        ],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    artifact = tmp_path / "BENCH_bench_shards.json"
    assert artifact.exists(), sorted(p.name for p in tmp_path.iterdir())
    payload = json.loads(artifact.read_text())
    assert payload["exit_status"] == 0
    assert set(payload["payloads"]) >= {
        "join_throughput_1_vs_n", "restart_latency", "failover_overhead",
    }
    assert payload["payloads"]["failover_overhead"]["restarts"] == 1
