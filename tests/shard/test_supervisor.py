"""Supervision: crash detection on dispatch, WAL-backed restarts."""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan
from repro.geometry.rect import Rect
from repro.predicates.theta import Overlaps

from tests import oracle
from tests.shard.conftest import loaded_runtime

WINDOW = Rect(10.0, 10.0, 45.0, 45.0)


class TestRestart:
    def test_restart_recovers_volatile_state_from_wal(self):
        runtime, rel_r, rel_s = loaded_runtime(3)
        with runtime:
            before = runtime.router.join("r", "s", Overlaps())
            runtime.kill_shard(1)
            runtime.supervisor.restart(runtime.shards[1])
            after = runtime.router.join("r", "s", Overlaps())
            assert after.pairs == before.pairs == oracle.pairs(
                rel_r, "shape", rel_s, "shape", Overlaps()
            )

    def test_a_failed_dispatch_restarts_only_the_dead(self):
        runtime, rel_r, rel_s = loaded_runtime(3)
        with runtime:
            runtime.kill_shard(2)
            result = runtime.router.join("r", "s", Overlaps())
            assert result.pairs == oracle.pairs(rel_r, "shape", rel_s, "shape", Overlaps())
            assert [s.restarts for s in runtime.shards] == [0, 0, 1]

    def test_restart_bumps_generation_and_restart_count(self):
        runtime, _, _ = loaded_runtime(2)
        with runtime:
            shard = runtime.shards[0]
            for expected in (1, 2, 3):
                runtime.kill_shard(0)
                runtime.supervisor.restart(shard)
                assert shard.generation == expected
                assert shard.restarts == expected

    def test_restart_preserves_runtime_inserts(self):
        runtime, _, _ = loaded_runtime(2)
        with runtime:
            tid = runtime.insert("r", [777, Rect(20.0, 20.0, 25.0, 25.0)])
            for shard_id in range(2):
                runtime.kill_shard(shard_id)
                runtime.supervisor.restart(runtime.shards[shard_id])
            result = runtime.router.select("r", WINDOW, Overlaps())
            assert tid in [t for t, _ in result.matches]

    def test_restarts_metered_exactly_once_per_kill(self):
        plan = FaultPlan(seed=7, kill_shard_at={3: -1, 6: -1})
        runtime, rel_r, rel_s = loaded_runtime(3, fault_plan=plan)
        with runtime:
            result = runtime.router.join("r", "s", Overlaps())
            assert result.pairs == oracle.pairs(rel_r, "shape", rel_s, "shape", Overlaps())
            injected = plan.summary()["injected"]
            assert injected == 2
            total_restarts = runtime.status()["restarts"]
            assert total_restarts == injected
            assert total_restarts == sum(
                s.restarts for s in runtime.shards
            )

    def test_generation_tracks_restarts(self):
        runtime, _, _ = loaded_runtime(2)
        with runtime:
            runtime.kill_shard(1)
            runtime.supervisor.restart(runtime.shards[1])
            status = runtime.status()["shards"]
            assert [s["generation"] for s in status] == [0, 1]
            assert [s["restarts"] for s in status] == [0, 1]

    def test_kill_consumed_in_fault_audit(self):
        plan = FaultPlan(seed=1, kill_shard_at={2: 0})
        runtime, _, _ = loaded_runtime(2, fault_plan=plan)
        with runtime:
            runtime.router.join("r", "s", Overlaps())
        assert plan.summary() == {
            "injected": 1, "consumed": 1, "outstanding": 0
        }


class TestProcessSupervision:
    def test_process_kill_detected_and_recovered(self):
        runtime, rel_r, rel_s = loaded_runtime(3, processes=True)
        with runtime:
            runtime.kill_shard(0)
            result = runtime.router.join("r", "s", Overlaps())
            assert result.pairs == oracle.pairs(rel_r, "shape", rel_s, "shape", Overlaps())
            assert runtime.shards[0].restarts == 1

    def test_hung_worker_treated_as_crashed(self):
        runtime, rel_r, rel_s = loaded_runtime(
            2, processes=True, request_timeout=0.2
        )
        with runtime:
            shard = runtime.shards[0]
            if shard.transport.mode != "process":
                pytest.skip("platform refused worker processes")
            from repro.errors import ShardCrashed

            with pytest.raises(ShardCrashed):
                runtime.dispatch(shard, "stall", {"seconds": 2.0})
            runtime.supervisor.restart(shard)
            result = runtime.router.join("r", "s", Overlaps())
            assert result.pairs == oracle.pairs(rel_r, "shape", rel_s, "shape", Overlaps())
