"""numpy is loaded by the columnar join, not by importing the engine.

Importing numpy costs a process about 16 MiB of resident memory.  The
server, the executor's select path, the planner and every join strategy
but ``partition`` never compute on arrays, so the partition pipeline
imports numpy inside the functions that use it.  A process that serves
selects must end without numpy in ``sys.modules``; one that runs a
partition join must end with it (the test would otherwise pass vacuously
were numpy missing altogether).

The same holds for a shard fleet: a worker holds its tables as
``Columns`` and serves a select with a scalar pass over the boxes; only
its join imports numpy.  And because process parallelism lives in one
place -- the standing fleet -- ``multiprocessing`` is imported by
exactly one module of the engine.
"""

import ast
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


FLEET_SCRIPT = """
import sys

from repro import Overlaps, Rect
from repro.relational import Column, ColumnType, Relation, Schema
from repro.server import QueryService, StateManager
from repro.shard import ShardRuntime
from repro.storage import BufferPool, CostMeter, SimulatedDisk

schema = Schema([Column("oid", ColumnType.INT), Column("shape", ColumnType.RECT)])
pool = BufferPool(SimulatedDisk(), 200, CostMeter())
rels = []
for name in ("r", "s"):
    rel = Relation(name, schema, pool)
    for i in range(40):
        rel.insert([i, Rect(i, i, i + 3.0, i + 2.0)])
    rels.append(rel)

service = QueryService(StateManager())
with ShardRuntime(Rect(0, 0, 50, 50), 3) as fleet:
    service.attach_shards(fleet)
    for rel in rels:
        fleet.load_relation(rel, "shape")
    fleet.insert("r", [99, Rect(6, 6, 7, 7)])
    with service.open_session() as session:
        assert len(session.shard_select("r", Rect(5, 5, 9, 9), Overlaps())) > 0
        assert "numpy" not in sys.modules, "numpy was imported without a sharded join"
        assert len(session.shard_join("r", "s", Overlaps()).pairs) > 0
        assert "numpy" in sys.modules
print("ok")
"""


def run_script(script: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "ok"


def test_numpy_is_imported_by_the_partition_join_only():
    run_script(SCRIPT)


def test_a_sharded_select_leaves_numpy_out():
    run_script(FLEET_SCRIPT)


def test_multiprocessing_is_imported_by_the_shard_runtime_only():
    """One process runtime: a second one cannot come back unnoticed."""
    importers = set()
    for path in (SRC / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            if any(name.split(".")[0] == "multiprocessing" for name in names):
                importers.add(path.relative_to(SRC / "repro").as_posix())
    assert importers == {"shard/runtime.py"}
