"""The ``stats`` protocol op: SLO percentiles, flight tail, fleet health.

``stats`` is the observability front door: everything ``health`` knows,
plus the flight recorder's recent events and per-op latency percentiles
from ``server.latency_seconds``.  Per-shard cost and dispatch counts are
the ``shards`` op's.  These tests pin the payload shape
(the CLI dashboard and remote clients both parse it), verify the whole
thing survives the one-line JSON wire format, and check that admission
refusals carry the flight tail onto the wire via ``encode_error``.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ServerBusy
from repro.geometry.rect import Rect
from repro.predicates.theta import Overlaps
from repro.server import QueryService, ServiceConfig
from repro.server.protocol import (
    decode_response,
    encode_error,
    encode_ok,
    handle_request,
)
from repro.shard import ShardRuntime

from tests.server.conftest import build_service
from tests.shard.conftest import UNIVERSE, build_relations

HEALTH_KEYS = {
    "status", "inflight", "sessions_active", "shed", "conflicts",
    "deadline_exceeded", "queries", "storage", "slo",
}


class TestStatsPayload:
    def test_stats_superset_of_health(self, service):
        stats = service.stats()
        assert HEALTH_KEYS <= set(stats)
        assert set(stats["flight"]) == {"recorded", "dropped", "events"}
        # No shard runtime attached: no fleet section to lie about.
        assert "fleet" not in stats

    def test_slo_rows_appear_after_queries(self, service):
        with service.open_session() as session:
            for _ in range(3):
                session.select("r", "shape", Rect(0, 0, 30, 30), Overlaps())
        rows = service.stats()["slo"]
        select_ok = [
            r for r in rows if r["op"] == "select" and r["outcome"] == "ok"
        ]
        assert len(select_ok) == 1
        row = select_ok[0]
        assert row["count"] == 3
        assert set(row) == {
            "op", "outcome", "count", "p50", "p95", "p99", "max",
        }
        # Percentile estimates are real numbers with the right ordering.
        assert row["p50"] is not None
        assert 0.0 <= row["p50"] <= row["p95"] <= row["p99"]
        assert row["max"] >= 0.0

    def test_failed_queries_get_their_own_outcome_row(self):
        service, _ = build_service(config=ServiceConfig(session_budget=1))
        with service.open_session() as session:
            session.select("r", "shape", Rect(0, 0, 10, 10), Overlaps())
            with pytest.raises(ServerBusy):
                session.select("r", "shape", Rect(0, 0, 10, 10), Overlaps())
        outcomes = {
            (r["op"], r["outcome"]) for r in service.stats()["slo"]
        }
        assert ("select", "ok") in outcomes
        # The shed query never reached _admit's timed region, so no
        # ServerBusy outcome row exists -- sheds are counted, not timed.
        assert service.stats()["shed"] == 1
        service.close()

    def test_flight_section_reflects_recorder(self, service):
        service.flight.record("unit_probe", origin="test")
        stats = service.stats()
        assert stats["flight"]["recorded"] == service.flight.recorded
        kinds = [e["kind"] for e in stats["flight"]["events"]]
        assert "unit_probe" in kinds

    def test_flight_limit_keeps_newest(self, service):
        for i in range(20):
            service.flight.record("tick", i=i)
        events = service.stats(flight_limit=5)["flight"]["events"]
        assert len(events) == 5
        assert [e["fields"]["i"] for e in events] == [15, 16, 17, 18, 19]


class TestStatsOverTheWire:
    def test_stats_op_round_trips_as_json(self, service):
        with service.open_session() as session:
            session.select("r", "shape", Rect(0, 0, 30, 30), Overlaps())
            payload = handle_request(session, {"op": "stats"})
            line = encode_ok(payload)
        decoded = decode_response(line)
        assert HEALTH_KEYS <= set(decoded)
        assert decoded["flight"]["recorded"] == service.flight.recorded
        assert decoded["queries"] == 1
        # The whole payload is plain JSON -- no repr-smuggled objects.
        assert json.loads(line[3:]) == decoded

    def test_stats_op_includes_fleet_with_shards(self):
        service, _ = build_service()
        rel_r, rel_s = build_relations(30)
        with ShardRuntime(UNIVERSE, 3) as runtime:
            runtime.load_relation(rel_r, "shape")
            runtime.load_relation(rel_s, "shape")
            service.attach_shards(runtime)
            with service.open_session() as session:
                session.shard_join("r", "s", Overlaps())
                payload = handle_request(session, {"op": "stats"})
                status = handle_request(session, {"op": "shards"})
            service.close()
        # Each shard reports its own dispatches and cost; every live
        # shard contributed.
        assert "fleet" not in payload
        per_shard = {s["shard"]: s for s in status["shards"]}
        assert set(per_shard) == {0, 1, 2}
        for shard in per_shard.values():
            assert shard["dispatches"] > 0
            assert shard["cost"]["theta_filter_evals"] > 0
        assert payload["shards"]["n_shards"] == 3


class TestFlightTailOnErrors:
    def test_shed_exception_carries_flight_tail(self):
        service, _ = build_service(config=ServiceConfig(session_budget=1))
        with service.open_session() as session:
            session.select("r", "shape", Rect(0, 0, 10, 10), Overlaps())
            with pytest.raises(ServerBusy) as exc_info:
                session.select("r", "shape", Rect(0, 0, 10, 10), Overlaps())
        events = exc_info.value.flight_events
        assert events, "shed exception must carry the flight tail"
        assert events[-1]["kind"] == "shed"
        assert events[-1]["fields"]["reason"] == "budget"
        service.close()

    def test_encode_error_appends_flight_suffix(self):
        service, _ = build_service(config=ServiceConfig(session_budget=1))
        with service.open_session() as session:
            session.select("r", "shape", Rect(0, 0, 10, 10), Overlaps())
            with pytest.raises(ServerBusy) as exc_info:
                session.select("r", "shape", Rect(0, 0, 10, 10), Overlaps())
        line = encode_error(exc_info.value)
        assert line.startswith("ERR ServerBusy ")
        shed_id = exc_info.value.flight_events[-1]["id"]
        assert f"[flight: shed#{shed_id}]" in line
        service.close()

    def test_plain_error_has_no_flight_suffix(self):
        line = encode_error(ServerBusy("at capacity", retryable=True))
        assert line == "ERR ServerBusy! at capacity"
