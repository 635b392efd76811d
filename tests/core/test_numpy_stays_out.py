"""numpy is loaded by the columnar join, not by importing the engine.

Importing numpy costs a process about 16 MiB of resident memory.  The
server, the executor's select path, the planner and every join strategy
but ``partition`` never compute on arrays, so the partition pipeline
imports numpy inside the functions that use it.  A process that serves
selects must end without numpy in ``sys.modules``; one that runs a
partition join must end with it (the test would otherwise pass vacuously
were numpy missing altogether).
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import sys

import repro
import repro.server
import repro.core.executor
from repro import Overlaps, Rect, SpatialQueryExecutor
from repro.core.optimizer import plan_join
from repro.relational import Column, ColumnType, Relation, Schema
from repro.storage import BufferPool, CostMeter, SimulatedDisk

schema = Schema([Column("oid", ColumnType.INT), Column("shape", ColumnType.RECT)])
pool = BufferPool(SimulatedDisk(), 200, CostMeter())
rels = []
for name in ("r", "s"):
    rel = Relation(name, schema, pool)
    for i in range(40):
        rel.insert([i, Rect(i, i, i + 3.0, i + 2.0)])
    rels.append(rel)
r, s = rels

executor = SpatialQueryExecutor(memory_pages=200, interval=True)
assert len(executor.select(r, "shape", Rect(5, 5, 9, 9), Overlaps())) > 0
plan_join(r, "shape", s, "shape", Overlaps(), interval=True)
pairs = executor.join(r, "shape", s, "shape", Overlaps(), strategy="zorder").pairs
assert "numpy" not in sys.modules, "numpy was imported without a partition join"

joined = executor.join(r, "shape", s, "shape", Overlaps(), strategy="partition")
assert sorted(joined.pairs) == sorted(pairs)
assert "numpy" in sys.modules
print("ok")
"""


def test_numpy_is_imported_by_the_partition_join_only():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "ok"
