"""QueryService tests: sessions, admission control, conflict metering."""

import threading

import pytest

from repro.cache import QueryCache
from repro.errors import ServerBusy, SessionError, SnapshotConflict
from repro.geometry.rect import Rect
from repro.obs import Tracer
from repro.predicates.theta import Overlaps
from repro.server import ServiceConfig
from repro.server.protocol import handle_request

from tests.server.conftest import build_service


def counter_value(metrics, name, **labels):
    for series in metrics.series(name):
        if dict(series.labels) == labels:
            return series.value
    return 0


class TestSessions:
    def test_open_close_updates_active_gauge(self, service):
        s1 = service.open_session()
        s2 = service.open_session()
        assert service.health()["sessions_active"] == 2
        s1.close()
        assert service.health()["sessions_active"] == 1
        s2.close()
        assert service.sessions_active == 0

    def test_closed_session_rejects_queries(self, service):
        session = service.open_session()
        session.close()
        with pytest.raises(SessionError):
            session.select("r", "shape", Rect(0, 0, 10, 10), Overlaps())

    def test_double_close_is_idempotent(self, service):
        session = service.open_session()
        session.close()
        session.close()
        assert service.sessions_active == 0

    def test_each_session_has_its_own_tracer(self, service):
        with service.open_session() as a, service.open_session() as b:
            for session in (a, b):
                session.tracer = Tracer(process=f"s{session.session_id}")
            a.select("r", "shape", Rect(0, 0, 10, 10), Overlaps())
            assert a.tracer.spans and not b.tracer.spans
            b.join("r", "shape", "s", "shape", Overlaps())
            uids_a = {r["uid"] for r in a.tracer.to_records()}
            uids_b = {r["uid"] for r in b.tracer.to_records()}
            assert uids_b and not uids_a & uids_b
            assert all(uid.startswith(f"s{a.session_id}:") for uid in uids_a)


class TestQueries:
    def test_select_returns_pinned_epoch(self, service):
        with service.open_session() as session:
            result, epoch = session.select(
                "r", "shape", Rect(0, 0, 50, 50), Overlaps()
            )
            rel = service.state.get("r")
            assert epoch == rel.modification_count
            # Same answer as a direct single-threaded execution.
            direct = service.executor.select(
                rel, "shape", Rect(0, 0, 50, 50), Overlaps()
            )
            assert sorted(
                t["oid"] for _tid, t in result.matches
            ) == sorted(t["oid"] for _tid, t in direct.matches)

    def test_join_returns_both_epochs(self, service):
        with service.open_session() as session:
            _result, (epoch_r, epoch_s) = session.join(
                "r", "shape", "s", "shape", Overlaps()
            )
            assert epoch_r == service.state.get("r").modification_count
            assert epoch_s == service.state.get("s").modification_count

    def test_insert_and_delete_roundtrip(self, service):
        with service.open_session() as session:
            epoch = session.insert("r", [500, Rect(1, 1, 2, 2)])
            assert service.state.get("r").modification_count == epoch
            deleted, epoch2 = session.delete_where(
                "r", lambda t: t["oid"] == 500
            )
            assert deleted == 1
            assert epoch2 > epoch

    def test_queries_counter_labelled_by_op(self, service):
        with service.open_session() as session:
            session.select("r", "shape", Rect(0, 0, 10, 10), Overlaps())
            session.insert("r", [600, Rect(3, 3, 4, 4)])
        m = service.metrics
        assert counter_value(m, "server.queries", op="select") == 1
        assert counter_value(m, "server.queries", op="insert") == 1


class TestAdmissionControl:
    def test_overload_sheds_with_retryable_busy(self):
        service, _ = build_service(config=ServiceConfig(max_inflight=1))
        blocker = service.open_session()
        victim = service.open_session()
        entered = threading.Event()
        release = threading.Event()

        def slow_read(pin):
            entered.set()
            assert release.wait(5.0)
            return "done"

        rel = service.state.get("r")
        worker = threading.Thread(
            target=lambda: service.run_read(blocker, "select", (rel,), slow_read)
        )
        worker.start()
        try:
            assert entered.wait(5.0)
            with pytest.raises(ServerBusy) as exc_info:
                victim.select("r", "shape", Rect(0, 0, 10, 10), Overlaps())
            assert exc_info.value.retryable
        finally:
            release.set()
            worker.join(timeout=5.0)
        assert counter_value(
            service.metrics, "server.shed", reason="overload"
        ) == 1
        # Capacity freed: the victim's retry goes through.
        result, _ = victim.select("r", "shape", Rect(0, 0, 10, 10), Overlaps())
        assert result is not None
        blocker.close()
        victim.close()

    def test_budget_exhaustion_is_not_retryable(self):
        service, _ = build_service(config=ServiceConfig(session_budget=2))
        with service.open_session() as session:
            for _ in range(2):
                session.select("r", "shape", Rect(0, 0, 10, 10), Overlaps())
            with pytest.raises(ServerBusy) as exc_info:
                session.select("r", "shape", Rect(0, 0, 10, 10), Overlaps())
            assert not exc_info.value.retryable
        assert counter_value(
            service.metrics, "server.shed", reason="budget"
        ) == 1
        # A fresh session has a fresh budget.
        with service.open_session() as fresh:
            fresh.select("r", "shape", Rect(0, 0, 10, 10), Overlaps())

    def test_inflight_gauge_returns_to_zero(self, service):
        with service.open_session() as session:
            session.select("r", "shape", Rect(0, 0, 10, 10), Overlaps())
        assert service.health()["inflight"] == 0

    def test_config_validation(self):
        with pytest.raises(SessionError):
            ServiceConfig(max_inflight=0)
        with pytest.raises(SessionError):
            ServiceConfig(session_budget=0)
        with pytest.raises(SessionError):
            ServiceConfig(snapshot_retries=-1)


class TestConflicts:
    def test_interleaved_writer_counts_conflict_and_retries(self, service):
        """A writer landing mid-read invalidates the pin exactly once."""
        reader = service.open_session()
        writer = service.open_session()
        rel = service.state.get("r")
        entered = threading.Event()
        wrote = threading.Event()
        calls = []

        def racy_read(pin):
            calls.append(1)
            if len(calls) == 1:
                entered.set()
                assert wrote.wait(5.0)
            return [t["oid"] for t in rel.scan()]

        def interleave():
            assert entered.wait(5.0)
            writer.insert("r", [900, Rect(7, 7, 8, 8)])
            wrote.set()

        w = threading.Thread(target=interleave)
        w.start()
        result, pin = service.run_read(reader, "select", (rel,), racy_read)
        w.join(timeout=5.0)

        assert len(calls) == 2
        assert 900 in result
        assert counter_value(service.metrics, "server.conflicts") == 1
        reader.close()
        writer.close()

    def test_persistent_writer_surfaces_snapshot_conflict(self):
        service, _ = build_service(
            config=ServiceConfig(snapshot_retries=1)
        )
        session = service.open_session()
        rel = service.state.get("r")
        oids = iter(range(700, 800))

        def always_racy(pin):
            service.state.write(
                "r", lambda r: r.insert([next(oids), Rect(5, 5, 6, 6)])
            )
            return "torn"

        with pytest.raises(SnapshotConflict) as exc_info:
            service.run_read(session, "select", (rel,), always_racy)
        assert exc_info.value.attempts == 2
        assert counter_value(service.metrics, "server.conflicts") == 2
        session.close()


class TestSharedCache:
    def test_sessions_share_one_cache(self):
        cache = QueryCache()
        service, _ = build_service(cache=cache)
        window = Rect(0, 0, 60, 60)
        with service.open_session() as a:
            a.select("r", "shape", window, Overlaps(), strategy="tree")
        with service.open_session() as b:
            warm, _ = b.select("r", "shape", window, Overlaps(), strategy="tree")
        assert warm.strategy == "cached-exact"
        assert cache.stats.hits >= 1

    def test_write_invalidates_cached_answers(self):
        cache = QueryCache()
        service, _ = build_service(cache=cache)
        window = Rect(0, 0, 60, 60)
        with service.open_session() as session:
            cold, _ = session.select(
                "r", "shape", window, Overlaps(), strategy="tree"
            )
            session.insert("r", [950, Rect(10, 10, 11, 11)])
            warm, _ = session.select(
                "r", "shape", window, Overlaps(), strategy="tree"
            )
            assert warm.strategy != "cached-exact"
            assert len(warm.matches) == len(cold.matches) + 1

    def test_metrics_op_exports_the_cache_store(self):
        cache = QueryCache()
        service, _ = build_service(cache=cache)
        window = Rect(0, 0, 60, 60)
        with service.open_session() as session:
            for _ in range(2):
                session.select("r", "shape", window, Overlaps(), strategy="tree")
            payload = handle_request(session, {"op": "metrics"})
        assert payload["cache"] == {
            **cache.stats.snapshot(), "entries": 1, "bytes": cache.total_bytes,
        }
        assert payload["cache"]["exact_hits"] == 1
        assert not any(name.startswith("cache.") for name in payload["metrics"])
