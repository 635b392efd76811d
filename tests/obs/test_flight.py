"""Flight recorder: ring bound, monotone ids, the newest-N read-out."""

import json
import threading

import pytest

from repro.errors import ObservabilityError
from repro.obs import DEFAULT_CAPACITY, FlightRecorder


class TestRecording:
    def test_ids_are_monotonic_from_one(self):
        rec = FlightRecorder()
        ids = [rec.record("shed").event_id for _ in range(5)]
        assert ids == [1, 2, 3, 4, 5]

    def test_fields_are_kept_and_snapshotted(self):
        rec = FlightRecorder()
        event = rec.record("failover", shard=2, attempt=1)
        assert event.fields == {"shard": 2, "attempt": 1}
        snap = event.snapshot()
        assert snap["id"] == 1 and snap["kind"] == "failover"
        assert snap["fields"] == {"shard": 2, "attempt": 1}
        # Snapshots are copies, never aliases of the live event.
        snap["fields"]["shard"] = 99
        assert event.fields["shard"] == 2

    def test_empty_kind_rejected(self):
        with pytest.raises(ObservabilityError, match="kind"):
            FlightRecorder().record("")

    def test_bad_capacity_rejected(self):
        with pytest.raises(ObservabilityError, match="capacity"):
            FlightRecorder(0)

    def test_default_capacity(self):
        assert FlightRecorder().capacity == DEFAULT_CAPACITY


class TestRingBound:
    def test_eviction_keeps_newest_and_counts_dropped(self):
        rec = FlightRecorder(capacity=3)
        for i in range(7):
            rec.record("tick", i=i)
        assert len(rec) == 3
        assert rec.recorded == 7
        assert rec.dropped == 4
        # Ids survive eviction: the tail still names the true sequence.
        assert [e.event_id for e in rec.events()] == [5, 6, 7]

    def test_quiet_recorder_drops_nothing(self):
        rec = FlightRecorder(capacity=8)
        rec.record("tick")
        assert rec.dropped == 0


class TestReadout:
    def _loaded(self) -> FlightRecorder:
        rec = FlightRecorder()
        rec.record("shed", reason="overload")
        rec.record("failover", shard=1)
        rec.record("shed", reason="budget")
        rec.record("shard_restart", shard=1)
        return rec

    def test_limit_keeps_newest(self):
        rec = self._loaded()
        assert [e.event_id for e in rec.events(limit=2)] == [3, 4]
        assert rec.events(limit=0) == []

    def test_tail_is_json_safe(self):
        rec = self._loaded()
        tail = rec.tail(2)
        assert [e["id"] for e in tail] == [3, 4]
        json.dumps(tail)  # must not raise


class TestThreadSafety:
    def test_concurrent_recording_keeps_ids_unique(self):
        rec = FlightRecorder(capacity=4096)
        n, threads = 200, []

        def hammer():
            for _ in range(n):
                rec.record("tick")

        for _ in range(4):
            threads.append(threading.Thread(target=hammer))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rec.recorded == 4 * n
        ids = [e.event_id for e in rec.events()]
        assert len(ids) == len(set(ids))
        assert ids == sorted(ids)
