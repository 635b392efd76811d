"""numpy is loaded by the columnar join and the polygon kernel, not by
importing the engine.

Importing numpy costs a process about 16 MiB of resident memory.  The
server, the executor's select path and the planner never compute on
arrays; the join strategies do in two places only -- the partition
pipeline's sweep, and the batch refinement of polygon pairs
(:mod:`repro.geometry.polygon_kernel`), which every strategy's refiner
reaches -- and both import numpy inside the functions that use it.  A
process that serves selects, or joins rectangles by any strategy but
``partition``, must end without numpy in ``sys.modules``; one that runs
a partition join, or joins polygons, must end with it (the test would
otherwise pass vacuously were numpy missing altogether).

The retained column snapshots are plain ``array`` buffers, so the
planner, the z-order universe and the interval tier build and read them
without numpy too -- and a server that only selects and inserts never
builds one at all.

The same holds for a shard fleet: a worker holds its tables as
``Columns`` and serves a select with a scalar pass over the boxes; only
its join imports numpy.  And because process parallelism lives in one
place -- the standing fleet -- ``multiprocessing`` is imported by
exactly one module of the engine.

The same kind of pin holds the one epoch mechanism in place: comparing
against ``modification_count`` and holding a relation weakly are things
``relational/relation.py`` does for everyone (``EpochPin``, the
derived-state memo), and the executor keeps no lock because it keeps no
registry.
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

from repro.trees.rtree import RTree

schema = Schema([Column("oid", ColumnType.INT), Column("shape", ColumnType.RECT)])
pool = BufferPool(SimulatedDisk(), 200, CostMeter())
rels = []
for name in ("r", "s"):
    rel = Relation(name, schema, pool)
    for i in range(40):
        rel.insert([i, Rect(i, i, i + 3.0, i + 2.0)])
    rel.attach_index("shape", RTree(max_entries=6))
    rels.append(rel)
r, s = rels

executor = SpatialQueryExecutor(memory_pages=200, interval=True)
assert len(executor.select(r, "shape", Rect(5, 5, 9, 9), Overlaps())) > 0
assert r.derived(("columns", "shape")) is None, "a select built a column snapshot"
plan_join(r, "shape", s, "shape", Overlaps(), interval=True)
assert len(r.derived(("columns", "shape"))) == len(s.derived(("columns", "shape"))) == 40
pairs = executor.join(r, "shape", s, "shape", Overlaps(), strategy="zorder").pairs
tree = executor.join(r, "shape", s, "shape", Overlaps(), strategy="tree", interval=False)
assert sorted(tree.pairs) == sorted(pairs)
assert len(executor.select(s, "shape", Rect(5, 5, 9, 9), Overlaps())) > 0
assert "numpy" not in sys.modules, "numpy was imported without a partition join"

joined = executor.join(r, "shape", s, "shape", Overlaps(), strategy="partition")
assert sorted(joined.pairs) == sorted(pairs)
assert "numpy" in sys.modules
print("ok")
"""


SERVER_SCRIPT = """
import sys

from repro import Overlaps, Rect
from repro.relational import Column, ColumnType, Relation, Schema
from repro.server import QueryService, StateManager
from repro.storage import BufferPool, CostMeter, SimulatedDisk
from repro.trees.rtree import RTree

from repro.geometry.polygon import Polygon

schema = Schema([Column("oid", ColumnType.INT), Column("shape", ColumnType.RECT)])
polygons = Schema([Column("oid", ColumnType.INT), Column("shape", ColumnType.POLYGON)])
pool = BufferPool(SimulatedDisk(), 200, CostMeter())
service = QueryService(StateManager())
rels = []
for name, indexed in (("r", True), ("s", False), ("p", True)):
    rel = Relation(name, polygons if name == "p" else schema, pool)
    for i in range(40):
        box = Rect(i, i, i + 3.0, i + 2.0)
        rel.insert([i, Polygon.from_rect(box) if name == "p" else box])
    if indexed:
        rel.attach_index("shape", RTree(max_entries=6))
    service.state.register(rel)
    rels.append(rel)

with service.open_session() as session:
    for round in range(3):
        for name in ("r", "s", "p"):
            result, _epoch = session.select(name, "shape", Rect(5, 5, 9, 9), Overlaps())
            assert len(result) > 0
            box = Rect(6, 6, 7, 7)
            session.insert(name, [100 + round, Polygon.from_rect(box) if name == "p" else box])
for rel in rels:
    assert rel.derived(("columns", "shape")) is None, "a served select built a snapshot"
assert "numpy" not in sys.modules, "numpy was imported by a server that never joined"
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


POLYGON_SCRIPT = """
import sys

from repro import Overlaps, Rect, SpatialQueryExecutor
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.relational import Column, ColumnType, Relation, Schema
from repro.storage import BufferPool, CostMeter, SimulatedDisk
from repro.trees.rtree import RTree

schema = Schema([Column("oid", ColumnType.INT), Column("shape", ColumnType.POLYGON)])
pool = BufferPool(SimulatedDisk(), 200, CostMeter())
rels = []
for name, shift in (("r", 0.0), ("s", 0.5)):
    rel = Relation(name, schema, pool)
    for i in range(40):
        rel.insert([i, Polygon.regular(Point(i + shift, i), 1.5, 12)])
    rel.attach_index("shape", RTree(max_entries=6))
    rels.append(rel)
r, s = rels

executor = SpatialQueryExecutor(memory_pages=200)
assert len(executor.select(r, "shape", Rect(5, 5, 9, 9), Overlaps())) > 0
assert "numpy" not in sys.modules, "numpy was imported by a polygon select"
pairs = executor.join(r, "shape", s, "shape", Overlaps(), strategy="tree").pairs
assert len(pairs) > 0
assert "numpy" in sys.modules, "a polygon join refined its pairs without the kernel"
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


def test_a_server_that_selects_and_inserts_builds_no_column_snapshot():
    run_script(SERVER_SCRIPT)


def test_a_sharded_select_leaves_numpy_out():
    run_script(FLEET_SCRIPT)


def test_a_polygon_join_refines_its_pairs_on_arrays():
    run_script(POLYGON_SCRIPT)


def importers_of(module: str) -> set[str]:
    """The engine modules that import ``module``, as paths under repro/."""
    importers = set()
    for path in (SRC / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            if any(name.split(".")[0] == module for name in names):
                importers.add(path.relative_to(SRC / "repro").as_posix())
    return importers


def test_numpy_is_imported_by_the_columnar_join_and_the_polygon_kernel_only():
    """The kernel is the one importer outside the columnar join, and
    only the refiner reaches it, from inside ``resolve``."""
    assert importers_of("numpy") == {
        "relational/columns.py",
        "parallel/partitioner.py",
        "parallel/plane_sweep.py",
        "parallel/pool.py",
        "shard/keyspace.py",
        "shard/worker.py",
        "geometry/polygon_kernel.py",
    }
    users = {
        path.relative_to(SRC / "repro").as_posix()
        for path in (SRC / "repro").rglob("*.py")
        if "polygon_kernel" in path.read_text() and path.name != "polygon_kernel.py"
    }
    assert users == {"intermediate/filter.py"}


def test_multiprocessing_is_imported_by_the_shard_runtime_only():
    """One process runtime: a second one cannot come back unnoticed."""
    assert importers_of("multiprocessing") == {"shard/runtime.py"}


def test_weak_references_to_relations_are_held_by_epoch_pins_only():
    assert importers_of("weakref") == {"relational/relation.py"}


def test_a_column_is_extracted_in_one_module():
    """Whole-column readers ask ``column_snapshot``; the row-by-row pass
    behind it has no second caller that could keep a private copy."""
    users = set()
    for path in (SRC / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            named = (
                [alias.name for alias in node.names]
                if isinstance(node, ast.ImportFrom)
                else [getattr(node, "id", None), getattr(node, "attr", None)]
            )
            if "extract_columns" in named:
                users.add(path.relative_to(SRC / "repro").as_posix())
    assert users == {"relational/columns.py"}


def test_the_executor_holds_no_lock():
    assert "core/executor.py" not in importers_of("threading")


def test_epochs_are_compared_in_one_module():
    """``x.modification_count == epoch`` is ``EpochPin.fresh``'s job."""
    comparers = set()
    for path in (SRC / "repro").rglob("*.py"):
        tree = ast.parse(path.read_text())
        functions = [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for compare in ast.walk(tree):
            if not isinstance(compare, ast.Compare) or not any(
                isinstance(n, ast.Attribute) and n.attr == "modification_count"
                for n in ast.walk(compare)
            ):
                continue
            owner = next(
                (f.name for f in functions if compare in ast.walk(f)), "<module>"
            )
            comparers.add(
                f"{path.relative_to(SRC / 'repro').as_posix()}::{owner}"
            )
    assert comparers == {"relational/relation.py::fresh"}
