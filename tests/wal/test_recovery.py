"""Recovery semantics: replay, truncation, idempotence, index rebuild."""

import pytest

from repro.errors import CrashError
from repro.faults.disk import FaultyDisk
from repro.faults.plan import FaultPlan
from repro.geometry import Rect
from repro.relational.relation import Relation
from repro.relational.schema import Column, ColumnType, Schema
from repro.storage.buffer import BufferPool
from repro.storage.costs import CostMeter
from repro.storage.disk import SimulatedDisk
from repro.wal import Checkpointer, WriteAheadLog, recover

INT_SCHEMA = Schema([Column("oid", ColumnType.INT)])
SPATIAL_SCHEMA = Schema(
    [Column("oid", ColumnType.INT), Column("shape", ColumnType.RECT)]
)


class FakeIndex:
    """Minimal secondary index: insert/delete/remap, introspectable."""

    def __init__(self):
        self.entries = {}

    def insert(self, key, tid):
        self.entries[tid] = key

    def delete(self, key, tid):
        self.entries.pop(tid, None)

    def remap_tids(self, rid_map):
        self.entries = {
            rid_map.get(tid, tid): key for tid, key in self.entries.items()
        }


def durable_stack(schema=INT_SCHEMA, capacity=128):
    meter = CostMeter()
    disk = SimulatedDisk()
    pool = BufferPool(disk, capacity, meter)
    wal = WriteAheadLog(disk, meter)
    pool.wal = wal
    rel = Relation("objects", schema, pool, wal=wal)
    return disk, pool, wal, rel


class TestCleanDiskRecovery:
    def test_empty_disk_reports_no_wal(self):
        relations, report = recover(SimulatedDisk())
        assert relations == {}
        assert report.wal_found is False

    def test_insert_delete_roundtrip(self):
        disk, pool, wal, rel = durable_stack()
        tids = [rel.insert([i]).tid for i in range(9)]
        rel.delete(tids[4])
        pool.flush_all()
        relations, report = recover(disk)
        got = sorted(t["oid"] for t in relations["objects"].scan())
        assert got == [0, 1, 2, 3, 5, 6, 7, 8]
        assert report.wal_found and report.records_replayed == 10

    def test_recovery_without_any_flush(self):
        # Data pages never hit the disk; the log alone must suffice.
        disk, _pool, _wal, rel = durable_stack()
        for i in range(7):
            rel.insert([i])
        relations, report = recover(disk)
        got = sorted(t["oid"] for t in relations["objects"].scan())
        assert got == list(range(7))

    def test_checkpoint_bounds_replay(self):
        disk, pool, wal, rel = durable_stack()
        for i in range(10):
            rel.insert([i])
        Checkpointer(wal, [rel]).checkpoint()
        rel.insert([10])
        pool.flush_all()
        _, report = recover(disk)
        assert report.records_replayed == 1
        assert report.checkpoint_lsn > 0

    def test_recovering_twice_equals_recovering_once(self):
        disk, pool, _wal, rel = durable_stack()
        for i in range(12):
            rel.insert([i])
        rel.delete(rel.scan().__next__().tid)
        pool.flush_all()
        first, report1 = recover(disk)
        second, report2 = recover(report1.wal.disk)
        rows1 = sorted(t["oid"] for t in first["objects"].scan())
        rows2 = sorted(t["oid"] for t in second["objects"].scan())
        assert rows1 == rows2
        assert report2.records_replayed == 0


class TestCrashRecovery:
    def _crash_run(self, crash_at, torn=False, ops=25):
        plan = FaultPlan(seed=3, crash_at_write=crash_at, crash_torn_tail=torn)
        disk = FaultyDisk(plan)
        committed = []
        try:
            meter = CostMeter()
            pool = BufferPool(disk, 128, meter)
            wal = WriteAheadLog(disk, meter)
            pool.wal = wal
            rel = Relation("objects", INT_SCHEMA, pool, wal=wal)
            for i in range(ops):
                rel.insert([i])
                committed.append(i)
            pool.flush_all()
        except CrashError:
            pass
        assert disk.crashed
        return plan, disk, committed

    def test_crash_recovers_a_committed_prefix(self):
        plan, disk, committed = self._crash_run(crash_at=20)
        relations, report = recover(disk.crash_image(), plan=plan)
        got = sorted(t["oid"] for t in relations["objects"].scan())
        assert got == list(range(len(got)))
        assert len(got) <= len(committed)

    def test_unflushed_data_pages_are_counted_as_repaired(self):
        # The crash freezes the durable image before flush_all finishes:
        # replay restores rows whose data pages never made it to disk.
        plan, disk, _ = self._crash_run(crash_at=30, ops=25)
        _, report = recover(disk.crash_image(), plan=plan)
        assert report.pages_repaired >= 1

    def test_torn_tail_is_truncated_never_replayed(self):
        plan, disk, _ = self._crash_run(crash_at=15, torn=True)
        relations, report = recover(disk.crash_image(), plan=plan)
        assert report.torn_tail_detected
        assert report.records_truncated >= 1
        # Whatever was truncated is absent: still a clean integer prefix.
        got = sorted(t["oid"] for t in relations["objects"].scan())
        assert got == list(range(len(got)))

    def test_recovery_consumes_the_crash_event(self):
        plan, disk, _ = self._crash_run(crash_at=10)
        assert plan.outstanding == 1
        recover(disk.crash_image(), plan=plan)
        assert plan.outstanding == 0


class TestReclusterReplay:
    def test_recluster_is_replayed_wholesale(self):
        disk, pool, wal, rel = durable_stack(SPATIAL_SCHEMA)
        tids = [
            rel.insert([i, Rect(i, i, i + 1, i + 1)]).tid for i in range(6)
        ]
        rel.recluster(list(reversed(tids)))
        pool.flush_all()
        relations, report = recover(disk)
        got = [t["oid"] for t in relations["objects"].scan()]
        assert got == [5, 4, 3, 2, 1, 0]
        assert relations["objects"].is_clustered

    def test_delete_after_recluster_translates_rids(self):
        disk, pool, _wal, rel = durable_stack(SPATIAL_SCHEMA)
        tids = [
            rel.insert([i, Rect(i, i, i + 1, i + 1)]).tid for i in range(6)
        ]
        rel.recluster(list(reversed(tids)))
        victim = next(t for t in rel.scan() if t["oid"] == 3)
        rel.delete(victim.tid)
        pool.flush_all()
        relations, _ = recover(disk)
        got = [t["oid"] for t in relations["objects"].scan()]
        assert got == [5, 4, 2, 1, 0]


class TestIndexRecovery:
    def test_attach_index_rebuilt_via_factory(self):
        disk, pool, _wal, rel = durable_stack(SPATIAL_SCHEMA)
        for i in range(5):
            rel.insert([i, Rect(i, i, i + 1, i + 1)])
        rel.attach_index("shape", FakeIndex())
        rel.insert([5, Rect(5, 5, 6, 6)])
        pool.flush_all()
        relations, report = recover(
            disk, index_factories={("objects", "shape"): FakeIndex}
        )
        recovered = relations["objects"]
        assert recovered.has_index_on("shape")
        assert len(recovered.index_on("shape").entries) == 6
        assert report.pending_indexes == []

    def test_missing_factory_surfaces_pending_index(self):
        disk, pool, _wal, rel = durable_stack(SPATIAL_SCHEMA)
        rel.insert([0, Rect(0, 0, 1, 1)])
        rel.attach_index("shape", FakeIndex())
        pool.flush_all()
        relations, report = recover(disk)
        assert not relations["objects"].has_index_on("shape")
        assert report.pending_indexes == [("objects", "shape", "FakeIndex")]

    def test_index_fused_into_a_checkpoint_is_rebuilt_or_reported(self):
        """The checkpoint truncates the attach-index record; its snapshot
        still names the indexed column, so the index is neither lost
        silently nor rebuilt short of the rows replayed after it."""
        disk, pool, wal, rel = durable_stack(SPATIAL_SCHEMA)
        rel.attach_index("shape", FakeIndex())
        for i in range(3):
            rel.insert([i, Rect(i, i, i + 1, i + 1)])
        Checkpointer(wal, [rel]).checkpoint()
        rel.insert([3, Rect(3, 3, 4, 4)])
        pool.flush_all()
        relations, report = recover(
            disk, index_factories={("objects", "shape"): FakeIndex}
        )
        assert len(relations["objects"].index_on("shape").entries) == 4
        assert report.pending_indexes == []
        relations, report = recover(disk)
        assert not relations["objects"].has_index_on("shape")
        assert report.pending_indexes == [("objects", "shape", "?")]


class TestReport:
    def test_format_mentions_the_essentials(self):
        disk, pool, _wal, rel = durable_stack()
        rel.insert([1])
        pool.flush_all()
        _, report = recover(disk)
        text = report.format()
        assert "recovery report" in text
        assert "replayed" in text and "truncated" in text

    def test_format_on_empty_disk(self):
        _, report = recover(SimulatedDisk())
        assert "no write-ahead log" in report.format()
