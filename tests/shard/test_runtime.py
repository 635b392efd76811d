"""Shard runtime: distributed queries match the unsharded oracle."""

from __future__ import annotations

import pytest

from repro.errors import JoinError, ShardCrashed, ShardError
from repro.geometry.rect import Rect
from repro.predicates.theta import Includes, Overlaps, WithinDistance
from repro.relational.schema import Column, ColumnType, Schema
from repro.shard import ShardRuntime
from repro.storage.record import RecordId

from tests import oracle
from tests.shard.conftest import (
    UNIVERSE,
    build_relations,
    loaded_runtime,
)

WINDOW = Rect(10.0, 10.0, 45.0, 45.0)


class TestDistributedQueries:
    def test_join_matches_oracle_inline(self):
        runtime, rel_r, rel_s = loaded_runtime(3)
        with runtime:
            result = runtime.router.join("r", "s", Overlaps())
        expected = oracle.pairs(rel_r, "shape", rel_s, "shape", Overlaps())
        assert result.pairs == expected
        assert expected, "oracle must be non-trivial"
        assert result.strategy == "shard-partition[3]"

    def test_join_matches_oracle_single_shard(self):
        runtime, rel_r, rel_s = loaded_runtime(1)
        with runtime:
            result = runtime.router.join("r", "s", Overlaps())
        assert result.pairs == oracle.pairs(rel_r, "shape", rel_s, "shape", Overlaps())

    def test_join_matches_oracle_processes(self):
        runtime, rel_r, rel_s = loaded_runtime(3, processes=True)
        with runtime:
            result = runtime.router.join("r", "s", Overlaps())
        assert result.pairs == oracle.pairs(rel_r, "shape", rel_s, "shape", Overlaps())

    def test_select_matches_oracle_overlaps(self):
        runtime, rel_r, _ = loaded_runtime(3)
        with runtime:
            result = runtime.router.select("r", WINDOW, Overlaps())
        expected = oracle.tids(rel_r, "shape", WINDOW, Overlaps())
        assert [t for t, _ in result.matches] == expected
        assert expected

    def test_select_broadcasts_non_overlaps_thetas(self):
        runtime, rel_r, _ = loaded_runtime(3)
        theta = WithinDistance(15.0)
        with runtime:
            result = runtime.router.select("r", WINDOW, theta)
        assert [t for t, _ in result.matches] == oracle.tids(
            rel_r, "shape", WINDOW, theta
        )
        assert result.strategy == "shard-select[3/3]"

    def test_select_payloads_resolve_from_durable_heaps(self):
        runtime, rel_r, _ = loaded_runtime(3)
        with runtime:
            result = runtime.router.select("r", WINDOW, Overlaps())
        source = {t.tid: t["oid"] for t in rel_r.scan()}
        assert result.matches
        for tid, payload in result.matches:
            assert payload["oid"] == source[tid]

    def test_join_rejects_non_overlaps_theta(self):
        runtime, _, _ = loaded_runtime(2)
        with runtime, pytest.raises(JoinError):
            runtime.router.join("r", "s", Includes())

    def test_unknown_table_raises_shard_error(self):
        runtime, _, _ = loaded_runtime(2)
        with runtime, pytest.raises(ShardError):
            runtime.router.select("nope", WINDOW, Overlaps())


class TestMutations:
    def test_insert_becomes_visible_to_selects(self):
        runtime, rel_r, _ = loaded_runtime(2)
        with runtime:
            shape = Rect(20.0, 20.0, 30.0, 30.0)
            tid = runtime.insert("r", [9999, shape])
            assert tid.page_id == -1
            result = runtime.router.select("r", WINDOW, Overlaps())
            expected = sorted(oracle.tids(rel_r, "shape", WINDOW, Overlaps()) + [tid])
            assert [t for t, _ in result.matches] == expected

    def test_delete_removes_from_every_replica(self):
        runtime, rel_r, _ = loaded_runtime(3)
        victim = oracle.tids(rel_r, "shape", WINDOW, Overlaps())[0]
        with runtime:
            hits = runtime.delete("r", victim)
            assert hits >= 1
            result = runtime.router.select("r", WINDOW, Overlaps())
            assert victim not in [t for t, _ in result.matches]

    @pytest.mark.parametrize("processes", [False, True], ids=["inline", "process"])
    def test_live_insert_and_delete_in_columnar_workers(self, processes):
        """Live-insert tids sit on page -1 (regression: the workers' id
        buffer was unsigned and the first sharded insert overflowed).
        Bulk load + live insert + delete, then join and select equal the
        unsharded oracle over the same logical rows."""
        runtime, rel_r, rel_s = loaded_runtime(3, processes=processes)
        # On a seam of the 3-shard cut, so the row is replicated.
        shape = Rect(20.0, 20.0, 70.0, 70.0)
        victim = oracle.tids(rel_r, "shape", WINDOW, Overlaps())[0]
        with runtime:
            tid = runtime.insert("r", [9999, shape])
            assert tid == RecordId(-1, 1)
            assert runtime.delete("r", victim) >= 1
            join = runtime.router.join("r", "s", Overlaps())
            select = runtime.router.select("r", WINDOW, Overlaps())
            # ... and a live-inserted row can be deleted again.
            assert runtime.delete("r", tid) >= 2
            without = runtime.router.select("r", WINDOW, Overlaps())
        rows_r = oracle.rows_of(rel_r)
        rows_r[tid] = shape
        del rows_r[victim]
        assert join.pairs == oracle.join(rows_r, oracle.rows_of(rel_s), Overlaps())
        expected = oracle.select(rows_r, WINDOW, Overlaps())
        assert [t for t, _ in select.matches] == expected and tid in expected
        assert [t for t, _ in without.matches] == [t for t in expected if t != tid]

    def test_rejects_schema_with_reserved_identity_columns(self):
        schema = Schema([
            Column("pid", ColumnType.INT),
            Column("shape", ColumnType.RECT),
        ])
        with ShardRuntime(UNIVERSE, 2) as runtime:
            with pytest.raises(ShardError):
                runtime.create_table("t", schema, "shape")


class TestFailover:
    def test_killed_shard_is_restarted_transparently(self):
        runtime, rel_r, rel_s = loaded_runtime(3)
        with runtime:
            runtime.kill_shard(1)
            result = runtime.router.join("r", "s", Overlaps())
            assert result.pairs == oracle.pairs(rel_r, "shape", rel_s, "shape", Overlaps())
            status = runtime.status()
            assert status["restarts"] == 1
            assert status["shards"][1]["generation"] == 1
            assert all(s["alive"] for s in status["shards"])

    def test_stale_generation_reply_is_rejected(self):
        runtime, _, _ = loaded_runtime(2)
        with runtime:
            shard = runtime.shards[0]
            real = shard.transport.request

            def stale(op, payload, timeout):
                status, generation, result = real(op, payload, timeout)
                return status, generation - 1, result

            shard.transport.request = stale
            with pytest.raises(ShardCrashed):
                runtime.dispatch(
                    shard, "select",
                    {"table": "r", "window": WINDOW, "theta": Overlaps()},
                )


class TestLifecycle:
    def test_close_is_idempotent_and_stops_workers(self):
        runtime, _, _ = loaded_runtime(2, processes=True)
        runtime.close()
        runtime.close()
        assert all(not s.describe()["alive"] for s in runtime.shards)

    def test_dispatch_after_close_fails_typed(self):
        runtime, _, _ = loaded_runtime(2)
        runtime.close()
        with pytest.raises(ShardError):
            runtime.router.select("r", WINDOW, Overlaps())

    def test_meter_snapshot_merges_all_shards(self):
        runtime, _, _ = loaded_runtime(2)
        with runtime:
            runtime.router.join("r", "s", Overlaps())
            snap = runtime.meter_snapshot()
        assert snap["total"] > 0

    def test_status_reports_fleet_shape(self):
        runtime, _, _ = loaded_runtime(2)
        with runtime:
            status = runtime.status()
        assert status["n_shards"] == 2
        assert status["tables"] == ["r", "s"]
        assert len(status["shards"]) == 2
        for described in status["shards"]:
            assert described["rows"] > 0
            assert described["tables"] == ["r", "s"]


def test_relations_survive_in_durable_heaps():
    """Worker state is volatile; the durable side holds every row."""
    runtime, rel_r, _ = loaded_runtime(3)
    with runtime:
        durable = set()
        for shard in runtime.shards:
            for t in shard.relations["r"].scan():
                durable.add(RecordId(t["pid"], t["slot"]))
    assert durable == {t.tid for t in rel_r.scan()}


def test_load_requires_matching_relation_count():
    rel_r, _ = build_relations(40)
    with ShardRuntime(UNIVERSE, 2) as runtime:
        count = runtime.load_relation(rel_r, "shape")
    assert count == len(rel_r)
