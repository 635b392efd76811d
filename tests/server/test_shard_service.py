"""Service/protocol surface of the shard runtime, plus storage health."""

from __future__ import annotations

import pytest

from repro.errors import SessionError, ShardUnavailable
from repro.geometry.rect import Rect
from repro.predicates.theta import Overlaps
from repro.relational.relation import Relation
from repro.server import QueryService, StateManager
from repro.server.protocol import encode_error, handle_request
from repro.shard import ShardRuntime
from repro.storage.buffer import BufferPool
from repro.storage.costs import CostMeter
from repro.storage.disk import SimulatedDisk
from repro.wal.checkpoint import Checkpointer
from repro.wal.log import WriteAheadLog

from tests.server.conftest import OBJECT_SCHEMA, build_service
from tests.shard.conftest import UNIVERSE, build_relations


@pytest.fixture
def sharded_service():
    service, _rows = build_service()
    rel_r, rel_s = build_relations(40)
    runtime = ShardRuntime(UNIVERSE, 3)
    runtime.load_relation(rel_r, "shape", table="shard_r")
    runtime.load_relation(rel_s, "shape", table="shard_s")
    service.attach_shards(runtime)
    try:
        yield service, runtime
    finally:
        runtime.close()


class TestStorageHealth:
    def test_health_reports_storage_section(self, service):
        storage = service.health()["storage"]
        assert set(storage) == {
            "wal_last_lsn",
            "wal_checkpoint_lsn",
            "wal_records_since_checkpoint",
            "dirty_pages",
        }
        # The conftest relations are WAL-less: log watermarks are zero,
        # but freshly inserted heap pages are dirty in their pools.
        assert storage["wal_last_lsn"] == 0
        assert storage["dirty_pages"] > 0

    def test_health_reports_wal_watermarks(self):
        disk = SimulatedDisk()
        meter = CostMeter()
        pool = BufferPool(disk, capacity=100, meter=meter)
        wal = WriteAheadLog(disk, meter)
        pool.wal = wal
        rel = Relation("w", OBJECT_SCHEMA, pool, wal=wal)
        for oid in range(8):
            rel.insert([oid, Rect(0.0, 0.0, 1.0, 1.0)])
        state = StateManager()
        state.register(rel)
        service = QueryService(state)

        storage = service.health()["storage"]
        assert storage["wal_last_lsn"] == wal.last_lsn > 0
        assert storage["wal_records_since_checkpoint"] > 0
        assert storage["wal_checkpoint_lsn"] == 0

        lsn = Checkpointer(wal, [rel]).checkpoint()
        storage = service.health()["storage"]
        assert storage["wal_checkpoint_lsn"] == lsn
        assert storage["wal_records_since_checkpoint"] == 0

    def test_shared_wal_counted_once(self):
        disk = SimulatedDisk()
        meter = CostMeter()
        pool = BufferPool(disk, capacity=100, meter=meter)
        wal = WriteAheadLog(disk, meter)
        pool.wal = wal
        state = StateManager()
        for name in ("a", "b"):
            rel = Relation(name, OBJECT_SCHEMA, pool, wal=wal)
            rel.insert([1, Rect(0.0, 0.0, 1.0, 1.0)])
            state.register(rel)
        service = QueryService(state)
        storage = service.health()["storage"]
        assert storage["wal_records_since_checkpoint"] == \
            wal.records_since_checkpoint


class TestShardOps:
    def test_require_shards_without_runtime_is_typed(self, service):
        with pytest.raises(SessionError):
            service.require_shards()
        with service.open_session() as session:
            with pytest.raises(SessionError):
                handle_request(session, {"op": "shards"})

    def test_shards_op_reports_fleet_status(self, sharded_service):
        service, runtime = sharded_service
        with service.open_session() as session:
            status = handle_request(session, {"op": "shards"})
        assert status["n_shards"] == 3
        assert status["tables"] == ["shard_r", "shard_s"]

    def test_health_summarizes_attached_fleet(self, sharded_service):
        service, runtime = sharded_service
        runtime.kill_shard(0)
        runtime.supervisor.restart(runtime.shards[0])
        shards = service.health()["shards"]
        assert shards == {
            "n_shards": 3,
            "restarts": 1,
            "generations": [1, 0, 0],
            "alive": 3,
        }

    def test_sharded_select_over_the_protocol(self, sharded_service):
        service, runtime = sharded_service
        with service.open_session() as session:
            payload = handle_request(session, {
                "op": "select", "sharded": True, "relation": "shard_r",
                "rect": [10, 10, 45, 45], "theta": "overlaps",
            })
        direct = runtime.router.select(
            "shard_r", Rect(10.0, 10.0, 45.0, 45.0), Overlaps()
        )
        assert payload["count"] == len(direct.matches) > 0
        assert payload["strategy"].startswith("shard-select[")
        assert payload["oids"] == sorted(
            p["oid"] for _, p in direct.matches
        )
        assert "epoch" not in payload

    def test_sharded_join_over_the_protocol(self, sharded_service):
        service, runtime = sharded_service
        with service.open_session() as session:
            payload = handle_request(session, {
                "op": "join", "sharded": True,
                "relation_r": "shard_r", "relation_s": "shard_s",
                "theta": "overlaps",
            })
        assert payload["count"] > 0
        assert payload["strategy"] == "shard-partition[3]"

    def test_untraced_session_keeps_no_spans_and_ships_no_context(
        self, sharded_service, monkeypatch
    ):
        """A session nobody handed a tracer serves every read and write
        op, sharded ones included, without keeping a span or sending a
        trace context to a shard."""
        service, runtime = sharded_service
        payloads = []
        dispatch = runtime.dispatch

        def spy(shard, op, payload, **kwargs):
            payloads.append((op, payload))
            return dispatch(shard, op, payload, **kwargs)

        monkeypatch.setattr(runtime, "dispatch", spy)
        requests = [
            {"op": "select", "relation": "r", "column": "shape",
             "rect": [0, 0, 50, 50]},
            {"op": "join", "relation_r": "r", "column_r": "shape",
             "relation_s": "s", "column_s": "shape"},
            {"op": "insert", "relation": "r", "oid": 1000,
             "rect": [1, 1, 2, 2]},
            {"op": "select", "sharded": True, "relation": "shard_r",
             "rect": [10, 10, 45, 45]},
            {"op": "join", "sharded": True,
             "relation_r": "shard_r", "relation_s": "shard_s"},
        ]
        with service.open_session() as session:
            for request in requests:
                handle_request(session, request)
            assert session.tracer.to_records() == []
        assert {op for op, _ in payloads} == {"select", "join"}
        assert not [p for _, p in payloads if "trace" in p]

    def test_sharded_queries_are_admitted_and_metered(self, sharded_service):
        service, _ = sharded_service
        with service.open_session() as session:
            handle_request(session, {
                "op": "join", "sharded": True,
                "relation_r": "shard_r", "relation_s": "shard_s",
                "theta": "overlaps",
            })
        queries = sum(
            s.value for s in service.metrics.series("server.queries")
        )
        assert queries >= 1

    def test_shard_unavailable_is_retryable_on_the_wire(self):
        error_line = encode_error(
            ShardUnavailable("shard 1 failed", shard_id=1, attempts=3)
        )
        assert error_line.startswith("ERR ShardUnavailable! ")
