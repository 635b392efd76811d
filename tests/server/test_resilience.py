"""Resilience layer: deadlines, cancellation, drain, retrying client.

Covers the cooperative-cancellation contract end to end: tokens fire
exactly once (and meter exactly once), expired queries release their
admission slot, draining refuses new work retryably while in-flight
work finishes or is cancelled, and the client's retry policy honors
each error's retryable flag.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.cache import QueryCache
from repro.core.cancel import CancellationToken
from repro.errors import (
    DeadlineExceeded,
    ProtocolError,
    QueryCancelled,
    ServerBusy,
    SessionError,
    ShuttingDown,
)
from repro.geometry.rect import Rect
from repro.predicates.theta import Overlaps
from repro.server import (
    QueryClient,
    QueryServer,
    RetryPolicy,
    ServiceConfig,
)

from tests.server.conftest import build_service


class CancelAfter:
    """A theta wrapper that cancels a token mid-traversal.

    Deterministic mid-execution cancellation: the predicate itself
    flips the token after ``after`` evaluations, so the query is
    guaranteed to be *inside* the kernel when cancellation lands.
    """

    def __init__(self, token: CancellationToken, after: int = 3) -> None:
        self._inner = Overlaps()
        self._token = token
        self._after = after
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __call__(self, a, b):
        self.calls += 1
        if self.calls == self._after:
            self._token.cancel()
        return self._inner(a, b)


class SlowTheta:
    """An Overlaps that sleeps per evaluation -- a controllably slow query."""

    def __init__(self, delay: float = 0.005) -> None:
        self._inner = Overlaps()
        self._delay = delay

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __call__(self, a, b):
        time.sleep(self._delay)
        return self._inner(a, b)


WINDOW = Rect(0, 0, 100, 100)


class TestCancellationToken:
    def test_single_transition_and_observer_fires_once(self):
        seen = []
        token = CancellationToken(on_cancel=seen.append)
        assert token.cancel() is True
        assert token.cancel() is False  # already fired
        assert len(seen) == 1
        with pytest.raises(QueryCancelled):
            token.check()

    def test_deadline_expiry_raises_deadline_exceeded(self):
        token = CancellationToken.with_timeout(0.0)
        assert token.expired()
        with pytest.raises(DeadlineExceeded):
            token.check()
        # The expiry transition happened; later checks re-raise it.
        with pytest.raises(DeadlineExceeded):
            token.check()

    def test_remaining_counts_down(self):
        token = CancellationToken.with_timeout(60.0)
        assert 0.0 < token.remaining() <= 60.0
        assert CancellationToken().remaining() is None


class TestDeadlines:
    def test_expired_deadline_surfaces_and_frees_the_slot(self):
        service, _ = build_service(count=20)
        with service.open_session() as session:
            with pytest.raises(DeadlineExceeded):
                session.select("r", "shape", WINDOW, Overlaps(),
                               deadline_ms=0)
        assert service.health()["inflight"] == 0
        assert service.health()["deadline_exceeded"] == 1

    def test_deadline_metered_exactly_once(self):
        service, _ = build_service(count=5)
        token = service.token_for(0)
        for _ in range(3):
            with pytest.raises(DeadlineExceeded):
                token.check()
        assert service.health()["deadline_exceeded"] == 1

    def test_mid_query_cancellation_unwinds_without_fallback(self):
        service, _ = build_service(count=30)
        with service.open_session() as session:
            token = service.token_for(None)
            theta = CancelAfter(token, after=4)
            with pytest.raises(QueryCancelled):
                session.select("r", "shape", WINDOW, theta,
                               strategy="tree", order="dfs", cancel=token)
            # DFS checks the token at every node pop, so the traversal
            # aborted near the flip point instead of finishing under a
            # dead token.
            assert theta.calls < 30
        assert service.health()["inflight"] == 0

    def test_cancelled_query_does_not_poison_the_cache(self):
        service, _ = build_service(count=30, cache=QueryCache())
        with service.open_session() as session:
            token = service.token_for(None)
            with pytest.raises(QueryCancelled):
                session.select("r", "shape", WINDOW,
                               CancelAfter(token, after=2),
                               strategy="tree", cancel=token)
            # The same query re-run cleanly must produce the full
            # answer -- a cached partial result would be smaller.
            result, _ = session.select("r", "shape", WINDOW, Overlaps(),
                                       strategy="tree")
            baseline, _ = session.select("r", "shape", WINDOW, Overlaps(),
                                         strategy="tree")
            assert len(result.matches) == 30
            assert len(baseline.matches) == 30

    def test_watchdog_cancels_a_stalled_query(self):
        service, _ = build_service(
            count=5, config=ServiceConfig(watchdog_interval=0.005),
        )
        session = service.open_session()
        token = service.token_for(deadline_ms=10)
        # Hold the admission slot as a stalled query would: admitted,
        # registered, but never reaching a boundary check on its own.
        with pytest.raises(DeadlineExceeded):
            with service._admit(session, "select", cancel=token):
                deadline = time.monotonic() + 2.0
                while not token.cancelled:
                    assert time.monotonic() < deadline, \
                        "watchdog never swept the expired token"
                    time.sleep(0.002)
                token.check()  # the boundary the query finally crosses
        assert service.health()["deadline_exceeded"] == 1
        session.close()
        service.close()


class TestDrain:
    def test_drain_refuses_new_queries_retryably(self):
        service, _ = build_service(count=10)
        service.begin_drain()
        with service.open_session() as session:
            with pytest.raises(ShuttingDown) as exc_info:
                session.select("r", "shape", WINDOW, Overlaps())
        assert exc_info.value.retryable is True
        health = service.health()
        assert health["status"] == "draining"
        assert health["shed"] == 1

    def test_drain_lets_inflight_finish_then_cancels_stragglers(self):
        service, _ = build_service(count=20)
        started = threading.Event()
        outcome: list[str] = []

        def long_query():
            with service.open_session() as session:
                theta = SlowTheta(0.01)
                started.set()
                try:
                    session.select("r", "shape", WINDOW, theta,
                                   strategy="tree")
                    outcome.append("finished")
                except QueryCancelled:
                    outcome.append("cancelled")

        t = threading.Thread(target=long_query)
        t.start()
        assert started.wait(5.0)
        service.begin_drain()
        # Too short for the ~0.2s scan: the drain times out, and the
        # straggler is cancelled through its token.
        if not service.wait_idle(0.02):
            assert service.cancel_inflight("drain timeout") >= 1
        assert service.wait_idle(10.0)
        t.join(timeout=10.0)
        assert outcome in (["cancelled"], ["finished"])
        assert service.health()["inflight"] == 0


class TestServerStop:
    def test_stop_reaps_every_connection_thread(self):
        service, _ = build_service(count=10)
        server = QueryServer(service).start()
        clients = [QueryClient(*server.address) for _ in range(3)]
        for c in clients:
            assert c.request(op="ping")["pong"] is True
        server.stop(drain_timeout=2.0)
        assert server._reap_conn_threads() == []
        assert not any(
            t.name.startswith("query-server") for t in threading.enumerate()
        )
        for c in clients:
            c.close()
        assert service.sessions_active == 0

    def test_stop_is_idempotent(self):
        service, _ = build_service(count=5)
        server = QueryServer(service).start()
        server.stop()
        server.stop()  # second call is a no-op, not an error

    def test_draining_server_replies_shutting_down_retryably(self):
        service, _ = build_service(count=10)
        with QueryServer(service) as server:
            with QueryClient(*server.address) as client:
                assert client.request(op="ping")["pong"] is True
                service.begin_drain()
                with pytest.raises(ProtocolError) as exc_info:
                    client.request(op="select", relation="r",
                                   column="shape", rect=[0, 0, 50, 50],
                                   theta="overlaps")
                assert exc_info.value.retryable is True
                assert exc_info.value.server_type == "ShuttingDown"
                # Liveness probes still answer during the drain.
                assert client.request(op="health")["status"] == "draining"


class TestRetryPolicy:
    def test_backoff_is_bounded_and_deterministic(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.5, multiplier=2.0,
                             jitter=0.5, seed=7)
        a = [policy.delay(n, random.Random(7)) for n in range(1, 6)]
        b = [policy.delay(n, random.Random(7)) for n in range(1, 6)]
        assert a == b
        assert all(d <= 0.5 * 1.5 for d in a)
        assert policy.delay(1, random.Random(0)) >= 0.1

    def test_validation(self):
        with pytest.raises(ProtocolError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ProtocolError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ProtocolError):
            RetryPolicy(base_delay=-0.1)


class TestRetryingClient:
    def test_retries_through_a_drain_window(self):
        service, _ = build_service(count=10)
        with QueryServer(service) as server:
            service.begin_drain()

            def lift_drain():
                time.sleep(0.05)
                with service._admission:
                    service._draining = False

            threading.Thread(target=lift_drain).start()
            with QueryClient(
                *server.address,
                retry=RetryPolicy(max_attempts=20, base_delay=0.01,
                                  max_delay=0.05, seed=3),
            ) as client:
                payload = client.request(
                    op="select", relation="r", column="shape",
                    rect=[0, 0, 100, 100], theta="overlaps",
                )
            assert payload["count"] == 10
            assert client.last_attempts > 1
            assert client.retries_total >= 1

    def test_non_retryable_errors_are_not_retried(self):
        service, _ = build_service(
            count=10, config=ServiceConfig(session_budget=1),
        )
        with QueryServer(service) as server:
            with QueryClient(
                *server.address,
                retry=RetryPolicy(max_attempts=5, base_delay=0.01),
            ) as client:
                client.request(op="select", relation="r", column="shape",
                               rect=[0, 0, 50, 50], theta="overlaps")
                with pytest.raises(ProtocolError) as exc_info:
                    client.request(op="select", relation="r",
                                   column="shape", rect=[0, 0, 50, 50],
                                   theta="overlaps")
            # Budget exhaustion is ServerBusy(retryable=False): one
            # attempt only, no wire retries.
            assert exc_info.value.server_type == "ServerBusy"
            assert exc_info.value.retryable is False
            assert client.last_attempts == 1

    def test_reconnects_after_server_restart(self):
        service, _ = build_service(count=10)
        server = QueryServer(service).start()
        client = QueryClient(
            *server.address,
            retry=RetryPolicy(max_attempts=10, base_delay=0.02,
                              max_delay=0.1, seed=1),
        )
        assert client.request(op="ping")["pong"] is True
        host, port = server.address
        server.stop(drain_timeout=0.5)

        def restart():
            time.sleep(0.05)
            QueryServer(service, host=host, port=port).start()

        restarter = threading.Thread(target=restart)
        restarter.start()
        # The old connection is dead; ping is idempotent, so the client
        # reconnects and retries until the restarted server answers.
        assert client.request(op="ping")["pong"] is True
        assert client.retries_total >= 1
        restarter.join()
        client.close()

    def test_broken_client_without_policy_fails_fast(self):
        service, _ = build_service(count=5)
        server = QueryServer(service).start()
        client = QueryClient(*server.address)
        assert client.request(op="ping")["pong"] is True
        server.stop(drain_timeout=0.2)
        with pytest.raises((ProtocolError, OSError)):
            client.request(op="ping")
        assert client.broken is True
        # Fail-fast with a clear error, not a hang or a garbage read.
        with pytest.raises(ProtocolError, match="broken"):
            client.request(op="ping")
        client.close()


class TestDeadlineOverTheWire:
    def test_deadline_ms_field_round_trips(self):
        service, _ = build_service(count=20)
        with QueryServer(service) as server:
            with QueryClient(*server.address) as client:
                with pytest.raises(ProtocolError) as exc_info:
                    client.request(op="select", relation="r",
                                   column="shape", rect=[0, 0, 100, 100],
                                   theta="overlaps", deadline_ms=0)
                assert exc_info.value.server_type == "DeadlineExceeded"
                assert exc_info.value.retryable is False
                # The session (and its slot) survived the expiry.
                assert client.request(op="health")["inflight"] == 0

    def test_bad_deadline_rejected(self):
        service, _ = build_service(count=5)
        with QueryServer(service) as server:
            with QueryClient(*server.address) as client:
                with pytest.raises(ProtocolError):
                    client.request(op="select", relation="r",
                                   column="shape", rect=[0, 0, 1, 1],
                                   theta="overlaps", deadline_ms=-5)

    def test_invalid_session_deadline_rejected(self):
        service, _ = build_service(count=5)
        with pytest.raises(SessionError):
            service.token_for(-1)


def test_server_busy_still_retryable_on_the_wire():
    """Overload shedding encodes retryable=True; the client sees it."""
    service, _ = build_service(
        count=10, config=ServiceConfig(max_inflight=1),
    )
    hold = threading.Event()
    release = threading.Event()

    def occupant():
        with service.open_session() as session:
            class Block(Overlaps):
                def __call__(self, a, b):
                    hold.set()
                    release.wait(10.0)
                    return super().__call__(a, b)
            try:
                session.select("r", "shape", WINDOW, Block(),
                               strategy="scan")
            except Exception:
                pass

    t = threading.Thread(target=occupant)
    t.start()
    try:
        assert hold.wait(5.0)
        with QueryServer(service) as server:
            with QueryClient(*server.address) as client:
                with pytest.raises(ProtocolError) as exc_info:
                    client.request(op="select", relation="r",
                                   column="shape", rect=[0, 0, 50, 50],
                                   theta="overlaps")
            assert exc_info.value.server_type == "ServerBusy"
            assert exc_info.value.retryable is True
            release.set()
            t.join(timeout=10.0)
    finally:
        release.set()
        t.join(timeout=10.0)
