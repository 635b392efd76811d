"""Benchmark artifact store: metrics snapshots + outcomes as JSON files.

Every bench run (full or smoke) leaves one ``BENCH_<module>.json`` per
executed ``bench_*`` module in the artifact directory -- test outcomes
with durations, plus any payloads the bench published through
:func:`emit_bench_artifact` (typically a
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`).  CI uploads the
directory, so a regression investigation starts from numbers, not from
re-running the suite.

The directory defaults to ``<repo>/bench-artifacts`` and is overridable
with the ``BENCH_ARTIFACT_DIR`` environment variable.  The store lives
here rather than in ``conftest.py`` so bench modules can import the
helper without re-importing the conftest (pytest loads conftests through
its own importer; a second import would split the store in two).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.geometry import Rect
from repro.relational.relation import Relation
from repro.relational.schema import Column, ColumnType, Schema
from repro.storage.buffer import BufferPool
from repro.storage.costs import CostMeter
from repro.storage.disk import SimulatedDisk
from repro.trees.rtree import RTree
from repro.workloads.generators import clustered_rects

REPO_ROOT = Path(__file__).resolve().parent.parent

#: module name -> {"tests": [...], "payloads": {...}}
_STORE: dict[str, dict[str, Any]] = {}


def artifact_dir() -> Path:
    return Path(os.environ.get("BENCH_ARTIFACT_DIR",
                               REPO_ROOT / "bench-artifacts"))


def sized_down(*size_overrides: str) -> bool:
    """Whether any of a bench's ``BENCH_*`` size overrides is set.

    A bench shrunk through its override is a smoke run: at a few hundred
    objects a wall-clock ratio is scheduler noise, so the bench records
    the measured value beside its tolerance in the artifact and does not
    assert the bound.  At its default size the bound is asserted.
    """
    return any(name in os.environ for name in size_overrides)


def build_clustered_relation(
    name: str, count: int, seed: int, *, clusters: int, max_width: float
) -> Relation:
    """An R-tree-indexed ``[oid INT, shape RECT]`` relation of clustered
    rectangles (the HI-LOC locality profile) on the unit-thousand universe.

    Shared by the cache, server, resilience and interval-filter benches,
    which differ in ``clusters`` and ``max_width`` only; every asserted
    model-cost bound depends on this insertion order and these seeds.
    """
    schema = Schema([Column("oid", ColumnType.INT), Column("shape", ColumnType.RECT)])
    pool = BufferPool(SimulatedDisk(), capacity=4000, meter=CostMeter())
    rel = Relation(name, schema, pool)
    rects = clustered_rects(
        count, Rect(0.0, 0.0, 1000.0, 1000.0), clusters=clusters, spread=40.0,
        max_width=max_width, max_height=max_width, rng=seed,
    )
    for i, r in enumerate(rects):
        rel.insert([i, r])
    rel.attach_index("shape", RTree(max_entries=10))
    return rel


def emit_bench_artifact(module: str, key: str, payload: Any) -> None:
    """Attach a JSON-safe payload to this bench module's artifact.

    ``module`` is the bare module name (``bench_rtree``); ``key`` names
    the payload inside the artifact file.  Re-emitting a key overwrites
    it -- the last run wins, matching pytest's rerun semantics.
    """
    _STORE.setdefault(module, {}).setdefault("payloads", {})[key] = payload


def record_test_outcome(module: str, nodeid: str, outcome: str,
                        duration: float) -> None:
    entry = _STORE.setdefault(module, {})
    entry.setdefault("tests", []).append(
        {"nodeid": nodeid, "outcome": outcome, "duration": duration}
    )


def write_artifacts(exit_status: int) -> list[Path]:
    """Flush the store to one JSON file per bench module; returns paths."""
    if not _STORE:
        return []
    out_dir = artifact_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for module, entry in sorted(_STORE.items()):
        path = out_dir / f"BENCH_{module}.json"
        payload = {"module": module, "exit_status": int(exit_status), **entry}
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n",
            encoding="utf-8",
        )
        written.append(path)
    _STORE.clear()
    return written
