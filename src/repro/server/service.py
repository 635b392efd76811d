"""The multi-session query service: shared engine, per-session front-ends.

One :class:`QueryService` owns the shared storage stack -- the
registered relations (behind a :class:`~repro.server.state.StateManager`),
one reentrant :class:`~repro.core.executor.SpatialQueryExecutor`, one
:class:`~repro.cache.QueryCache` and one
:class:`~repro.obs.metrics.MetricsRegistry` -- and hands out
:class:`Session` objects as the per-client execution front-end.  Each
session publishes into the shared registry, so fleet-wide counters
aggregate in one place, and records spans only into a
:class:`~repro.obs.trace.Tracer` its owner hands it (tracers are not
thread-safe; a session is single-threaded by contract).

Reads are epoch-pinned snapshot reads (see :mod:`repro.server.state`);
writes serialize behind per-relation write locks.  Admission control
keeps the service honest under overload:

* at most ``max_inflight`` queries execute at once -- the next one is
  *shed* with a retryable :class:`~repro.errors.ServerBusy`;
* a session that exhausts its ``session_budget`` gets a non-retryable
  :class:`~repro.errors.ServerBusy` (open a new session);
* a read invalidated more than ``snapshot_retries`` times surfaces
  :class:`~repro.errors.SnapshotConflict`;
* after :meth:`QueryService.begin_drain` every new query is refused
  with a retryable :class:`~repro.errors.ShuttingDown`.

Resilience: every admitted read carries a
:class:`~repro.core.cancel.CancellationToken` (with a deadline when the
request specified ``deadline_ms``).  The token is checked cooperatively
inside the executor; a *watchdog* thread additionally cancels tokens
that outlive their deadline, so a read stalled between checkpoints is
reaped at the next boundary it crosses.  Draining cancels every
in-flight token once the ``drain_timeout`` grace expires.

Everything is metered: ``server.queries``, ``server.conflicts`` (pin
invalidations absorbed by retries), ``server.shed`` and
``server.deadline_exceeded`` (exactly once per expired query, whoever
notices first).  Open sessions and queries in flight are the service's
own fields, read through :meth:`QueryService.health`.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.cache import QueryCache
from repro.core.cancel import CancellationToken
from repro.core.executor import SpatialQueryExecutor
from repro.errors import (
    DeadlineExceeded,
    QueryCancelled,
    ServerBusy,
    SessionError,
    ShuttingDown,
)
from repro.join.result import JoinResult, SelectResult
from repro.obs.context import TraceContext
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import DURATION_BUCKETS, MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.predicates.theta import ThetaOperator
from repro.relational.relation import EpochPin
from repro.server.state import DEFAULT_READ_RETRIES, StateManager
from repro.storage.costs import CostMeter


@dataclass(slots=True, frozen=True)
class ServiceConfig:
    """Admission-control and concurrency knobs of one service instance.

    ``max_inflight`` bounds simultaneously executing queries across all
    sessions (overload shedding); ``session_budget`` bounds queries per
    session (None = unbounded); ``snapshot_retries`` is the per-read
    re-pin budget before a conflict surfaces.  ``watchdog_interval`` is
    how often (seconds) the deadline watchdog sweeps in-flight tokens;
    it bounds how *late* a stalled query's deadline can fire, not how
    precise deadlines are (the query's own boundary checks are exact).
    """

    max_inflight: int = 8
    session_budget: int | None = None
    snapshot_retries: int = DEFAULT_READ_RETRIES
    watchdog_interval: float = 0.02

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise SessionError(
                f"max_inflight must be positive, got {self.max_inflight}"
            )
        if self.session_budget is not None and self.session_budget < 1:
            raise SessionError(
                f"session_budget must be positive, got {self.session_budget}"
            )
        if self.snapshot_retries < 0:
            raise SessionError(
                f"snapshot_retries must be >= 0, got {self.snapshot_retries}"
            )
        if self.watchdog_interval <= 0:
            raise SessionError(
                f"watchdog_interval must be positive, "
                f"got {self.watchdog_interval}"
            )


class QueryService:
    """Shared engine behind every session; see the module docstring."""

    def __init__(
        self,
        state: StateManager | None = None,
        *,
        executor: SpatialQueryExecutor | None = None,
        cache: QueryCache | None = None,
        metrics: MetricsRegistry | None = None,
        config: ServiceConfig | None = None,
    ) -> None:
        self.state = state if state is not None else StateManager()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: The service incident log: sheds, drains, deadline hits,
        #: snapshot conflicts -- plus (via ``attach_shards``) the
        #: fleet's kills, WAL recoveries, restarts and failovers.
        self.flight = FlightRecorder()
        #: Service-wide request sequence feeding :meth:`mint_trace` --
        #: a total order over every traced request the service admitted.
        self._trace_seq = itertools.count(1)
        #: Optional :class:`~repro.shard.ShardRuntime` serving sharded
        #: reads next to the shared-relation engine, attached via
        #: :meth:`attach_shards`; sessions reach it through
        #: :meth:`Session.shard_select` / :meth:`Session.shard_join`.
        self.shards = None
        self.cache = cache
        if executor is None:
            executor = SpatialQueryExecutor(
                metrics=self.metrics, cache=cache
            )
        elif cache is None:
            self.cache = executor.cache
        self.executor = executor
        self.config = config if config is not None else ServiceConfig()
        self._sessions: dict[int, Session] = {}
        self._session_ids = itertools.count(1)
        self._inflight = 0
        self._admission = threading.Lock()
        #: Signalled whenever ``_inflight`` returns to zero -- what
        #: :meth:`wait_idle` (and thus a draining server) blocks on.
        self._idle = threading.Condition(self._admission)
        self._draining = False
        self._query_ids = itertools.count(1)
        #: Tokens of currently admitted queries, keyed by query id --
        #: the watchdog's sweep set and the drain's cancellation set.
        self._inflight_tokens: dict[int, CancellationToken] = {}
        self._watchdog: threading.Thread | None = None
        self._watchdog_stop = threading.Event()

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def open_session(self, client: str = "") -> "Session":
        with self._admission:
            sid = next(self._session_ids)
            session = Session(self, sid, client)
            self._sessions[sid] = session
        return session

    def close_session(self, session: "Session") -> None:
        with self._admission:
            self._sessions.pop(session.session_id, None)

    @property
    def sessions_active(self) -> int:
        with self._admission:
            return len(self._sessions)

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------

    @contextmanager
    def _admit(self, session: "Session", op: str,
               cancel: CancellationToken | None = None):
        """Gate one query: drain, budget, capacity, inflight tracking.

        ``cancel`` (when the query carries a token) is registered for
        the lifetime of the admission so the watchdog can expire it and
        a drain can cancel it; it is always unregistered on the way
        out, which is what guarantees ``health()["inflight"]`` returns
        to zero even for queries that died on their deadline.
        """
        with self._admission:
            if self._draining:
                self.metrics.counter("server.shed", reason="shutdown").inc()
                raise self._shed(
                    ShuttingDown(
                        "SHUTTING_DOWN: the service is draining; retry "
                        "against a live server"
                    ),
                    "shutdown", session, op,
                )
            if session.closed:
                raise SessionError(
                    f"session {session.session_id} is closed"
                )
            budget = self.config.session_budget
            if budget is not None and session.queries_issued >= budget:
                self.metrics.counter("server.shed", reason="budget").inc()
                raise self._shed(
                    ServerBusy(
                        f"session {session.session_id} exhausted its budget "
                        f"of {budget} queries",
                        retryable=False,
                    ),
                    "budget", session, op,
                )
            if self._inflight >= self.config.max_inflight:
                self.metrics.counter("server.shed", reason="overload").inc()
                raise self._shed(
                    ServerBusy(
                        f"service at capacity ({self.config.max_inflight} "
                        f"queries in flight)",
                        retryable=True,
                    ),
                    "overload", session, op,
                )
            self._inflight += 1
            session.queries_issued += 1
            query_id = next(self._query_ids)
            if cancel is not None:
                self._inflight_tokens[query_id] = cancel
                if cancel.deadline is not None:
                    self._ensure_watchdog()
        started = time.perf_counter()
        outcome = "ok"
        try:
            self.metrics.counter("server.queries", op=op).inc()
            yield
        except BaseException as exc:
            outcome = type(exc).__name__
            raise
        finally:
            # Per-op SLO accounting: one observation per admitted query,
            # labelled by how it ended (the exception class name, "ok"
            # otherwise) so tail latencies of failures and successes
            # never blur together.
            self.metrics.histogram(
                "server.latency_seconds", buckets=DURATION_BUCKETS,
                op=op, outcome=outcome,
            ).observe(time.perf_counter() - started)
            with self._admission:
                self._inflight_tokens.pop(query_id, None)
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.notify_all()

    def _shed(self, exc: Exception, reason: str, session: "Session",
              op: str) -> Exception:
        """Record one admission refusal and decorate its exception.

        The flight recorder gets a ``shed`` event and the exception gets
        the recent tail (``flight_events``) -- so a client refused at
        3am sees, inside the error payload, what the service was doing.
        """
        self.flight.record(
            "shed", reason=reason, session=session.session_id, op=op
        )
        exc.flight_events = self.flight.tail(6)
        return exc

    # ------------------------------------------------------------------
    # Deadlines & the watchdog
    # ------------------------------------------------------------------

    def token_for(
        self, deadline_ms: float | None = None
    ) -> CancellationToken:
        """One query's cancellation token, metered on deadline expiry.

        ``deadline_ms`` is a relative budget in milliseconds (None =
        no deadline; the token is still created so a drain can cancel
        the query).  ``server.deadline_exceeded`` counts each expired
        token exactly once -- the token's single cancel transition is
        the metering point, whether the watchdog or the query's own
        boundary check noticed first.
        """

        def metered(error: QueryCancelled) -> None:
            if isinstance(error, DeadlineExceeded):
                self.metrics.counter("server.deadline_exceeded").inc()
                self.flight.record("deadline_exceeded")

        if deadline_ms is None:
            return CancellationToken(on_cancel=metered)
        if deadline_ms < 0:
            raise SessionError(
                f"deadline_ms must be >= 0, got {deadline_ms}"
            )
        return CancellationToken.with_timeout(
            deadline_ms / 1000.0, on_cancel=metered
        )

    def _ensure_watchdog(self) -> None:
        # Called under self._admission; starts the sweeper lazily so
        # deadline-free services never pay a thread.
        if self._watchdog is None or not self._watchdog.is_alive():
            self._watchdog_stop = threading.Event()
            self._watchdog = threading.Thread(
                target=self._watchdog_loop,
                name="query-service-watchdog", daemon=True,
            )
            self._watchdog.start()

    def _watchdog_loop(self) -> None:
        stop = self._watchdog_stop
        while not stop.wait(self.config.watchdog_interval):
            with self._admission:
                tokens = list(self._inflight_tokens.values())
            for token in tokens:
                if token.expired() and not token.cancelled:
                    token.cancel(DeadlineExceeded(
                        "query exceeded its deadline "
                        "(cancelled by the service watchdog)"
                    ))

    # ------------------------------------------------------------------
    # Drain & shutdown
    # ------------------------------------------------------------------

    @property
    def draining(self) -> bool:
        with self._admission:
            return self._draining

    def begin_drain(self) -> None:
        """Stop admitting queries; already-admitted ones keep running."""
        with self._admission:
            already = self._draining
            self._draining = True
        if not already:
            self.flight.record("drain_begin")

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no query is in flight; True when that was reached."""
        with self._idle:
            return self._idle.wait_for(
                lambda: self._inflight == 0, timeout
            )

    def cancel_inflight(self, message: str = "query cancelled") -> int:
        """Cancel every in-flight query's token; returns how many fired.

        The cancellation is cooperative -- each query unwinds at its
        next boundary check -- so callers that need the slots actually
        released should :meth:`wait_idle` afterwards.
        """
        with self._admission:
            tokens = list(self._inflight_tokens.values())
        return sum(1 for t in tokens if t.cancel(QueryCancelled(message)))

    def close(self) -> None:
        """Stop the watchdog thread.  Idempotent; the service stays
        usable for in-process callers (a new deadline restarts it)."""
        self._watchdog_stop.set()
        watchdog = self._watchdog
        if watchdog is not None:
            watchdog.join(timeout=2.0)
            self._watchdog = None

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    def health(self) -> dict[str, Any]:
        """Readiness snapshot: status, admission counters, storage state.

        The ``storage`` section is what drain/restart decisions key on
        without any other probe: the WAL high-water mark and checkpoint
        watermark (how much log a restart would replay), the records
        appended since the last checkpoint, and the buffer pools' dirty
        page count (the writes a clean shutdown still owes).  With a
        shard runtime attached, a ``shards`` section summarizes fleet
        health (restarts, generations, live workers).
        """
        with self._admission:
            inflight = self._inflight
            sessions = len(self._sessions)
            draining = self._draining
        payload = {
            "status": "draining" if draining else "ok",
            "inflight": inflight,
            "sessions_active": sessions,
            "shed": self._counter_total("server.shed"),
            "conflicts": self._counter_total("server.conflicts"),
            "deadline_exceeded": self._counter_total(
                "server.deadline_exceeded"
            ),
            "queries": self._counter_total("server.queries"),
            "storage": self._storage_health(),
        }
        payload["slo"] = self._slo_table()
        if self.shards is not None:
            status = self.shards.status()
            payload["shards"] = {
                "n_shards": status["n_shards"],
                "restarts": status["restarts"],
                "generations": [
                    s["generation"] for s in status["shards"]
                ],
                "alive": sum(1 for s in status["shards"] if s["alive"]),
            }
        return payload

    def _slo_table(self) -> list[dict[str, Any]]:
        """Per-op latency percentiles from ``server.latency_seconds``.

        One row per (op, outcome) series; percentiles are the
        histogram's interpolated estimates over the current interval.
        """
        rows = []
        for series in self.metrics.series("server.latency_seconds"):
            labels = dict(series.labels)
            rows.append({
                "op": labels.get("op", "?"),
                "outcome": labels.get("outcome", "?"),
                "count": series.count,
                "p50": series.quantile(0.50),
                "p95": series.quantile(0.95),
                "p99": series.quantile(0.99),
                "max": series.max,
            })
        return rows

    def stats(self, *, flight_limit: int = 12) -> dict[str, Any]:
        """Everything :meth:`health` knows, plus the flight recorder's
        recent tail.

        This is the payload behind the ``stats`` protocol op and the
        ``repro obs`` dashboard.  Per-shard cost and dispatch counts are
        the ``shards`` op's, read from each shard's handle.
        """
        payload = self.health()
        payload["flight"] = {
            "recorded": self.flight.recorded,
            "dropped": self.flight.dropped,
            "events": self.flight.snapshot(limit=flight_limit),
        }
        return payload

    def _storage_health(self) -> dict[str, int]:
        """Aggregate WAL/buffer state over every registered relation.

        Relations may share a WAL or a pool (one per service in the
        usual wiring, one per shard in the sharded one), so aggregation
        deduplicates by object identity: each log/pool counts once.
        """
        wals: dict[int, Any] = {}
        pools: dict[int, Any] = {}
        for name in self.state.names():
            rel = self.state.get(name)
            if rel.wal is not None:
                wals[id(rel.wal)] = rel.wal
            pools[id(rel.buffer_pool)] = rel.buffer_pool
        checkpoints = [
            (w.checkpoint_meta or {}).get("lsn", 0) for w in wals.values()
        ]
        return {
            "wal_last_lsn": max(
                (w.last_lsn for w in wals.values()), default=0
            ),
            "wal_checkpoint_lsn": max(checkpoints, default=0),
            "wal_records_since_checkpoint": sum(
                w.records_since_checkpoint for w in wals.values()
            ),
            "dirty_pages": sum(p.dirty_count for p in pools.values()),
        }

    def _counter_total(self, name: str) -> int:
        return sum(s.value for s in self.metrics.series(name))

    # ------------------------------------------------------------------
    # Execution (called by sessions)
    # ------------------------------------------------------------------

    def run_read(
        self,
        session: "Session",
        op: str,
        relations: Sequence[Any],
        fn: Callable[[EpochPin], Any],
        *,
        cancel: CancellationToken | None = None,
    ) -> tuple[Any, EpochPin]:
        """One admitted, epoch-pinned, conflict-retried read.

        ``cancel`` registers the query's token for the watchdog/drain;
        ``fn`` is expected to thread the same token into the executor
        so the cancellation actually has checkpoints to fire at.
        """

        def count_conflict(attempt: int) -> None:
            self.metrics.counter("server.conflicts").inc()
            self.flight.record("snapshot_conflict", op=op, attempt=attempt)

        with self._admit(session, op, cancel=cancel):
            return self.state.read(
                relations, fn,
                retries=self.config.snapshot_retries,
                on_conflict=count_conflict,
            )

    def run_write(
        self,
        session: "Session",
        op: str,
        relation: str,
        fn: Callable[[Any], Any],
        *,
        on_commit: Callable[[int], None] | None = None,
    ) -> tuple[Any, int]:
        """One admitted write behind the relation's write lock."""
        with self._admit(session, op):
            return self.state.write(relation, fn, on_commit=on_commit)

    # ------------------------------------------------------------------
    # Sharded execution
    # ------------------------------------------------------------------

    def attach_shards(self, shards: Any) -> None:
        """Attach a :class:`~repro.shard.ShardRuntime` to the service.

        The runtime adopts the service's metrics registry and flight
        recorder when it has none of its own, so ``shard.*`` series land
        next to the ``server.*`` ones and fleet incidents (kills,
        recoveries, failovers) interleave with service incidents in one
        ordered log.
        """
        self.shards = shards
        if shards is not None:
            if shards.metrics is None:
                shards.metrics = self.metrics
            if getattr(shards, "flight", None) is None:
                shards.flight = self.flight

    def mint_trace(self, session: "Session", op: str) -> TraceContext:
        """A fresh request-scoped trace context for one sharded read.

        ``trace_id`` names the session and the service-wide request
        sequence number; ``seq`` totally orders traced requests across
        every session, so two concurrent sessions can never mint the
        same identity.
        """
        seq = next(self._trace_seq)
        return TraceContext(f"t{session.session_id}-{op}-{seq}", seq)

    def require_shards(self) -> Any:
        if self.shards is None:
            raise SessionError(
                "no shard runtime attached to this service"
            )
        return self.shards

    def run_shard(
        self,
        session: "Session",
        op: str,
        fn: Callable[[], Any],
        *,
        cancel: CancellationToken | None = None,
    ) -> Any:
        """One admitted sharded read.

        No epoch pin: the shard runtime owns its storage (per-shard
        WALs), and its generation protocol -- not the seqlock -- is what
        protects these reads from stale state.  Admission control and
        cancellation apply exactly as for shared-relation reads.
        """
        self.require_shards()
        with self._admit(session, op, cancel=cancel):
            return fn()


class Session:
    """One client's execution front-end over the shared service.

    A session is single-threaded by contract: its tracer and meter
    accounting assume one query at a time *from this session* (queries
    from different sessions overlap freely).  Obtain via
    :meth:`QueryService.open_session`; usable as a context manager.
    It runs untraced until its owner assigns ``tracer``, say
    ``Tracer(process=f"s{session.session_id}")``.
    """

    def __init__(self, service: QueryService, session_id: int, client: str) -> None:
        self.service = service
        self.session_id = session_id
        self.client = client
        self.tracer: Tracer | NullTracer = NULL_TRACER
        self.queries_issued = 0
        self.closed = False

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.service.close_session(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reads ----------------------------------------------------------

    def select(
        self,
        relation: str,
        column: str,
        query: Any,
        theta: ThetaOperator,
        *,
        strategy: str = "auto",
        order: str = "bfs",
        meter: CostMeter | None = None,
        deadline_ms: float | None = None,
        cancel: CancellationToken | None = None,
    ) -> tuple[SelectResult, int]:
        """Snapshot selection; returns ``(result, pinned epoch)``.

        ``deadline_ms`` bounds the query in wall-clock milliseconds
        (:class:`~repro.errors.DeadlineExceeded` past it); ``cancel``
        supplies a caller-owned token instead (mutually exclusive with
        a deadline only in the sense that a supplied token wins).
        """
        svc = self.service
        rel = svc.state.get(relation)
        token = cancel if cancel is not None else svc.token_for(deadline_ms)

        def run(pin: EpochPin) -> SelectResult:
            return svc.executor.select(
                rel, column, query, theta,
                strategy=strategy, order=order, meter=meter,
                tracer=self.tracer, metrics=svc.metrics, cache=svc.cache,
                cancel=token,
            )

        result, pin = svc.run_read(self, "select", (rel,), run, cancel=token)
        return result, pin.epoch_of(rel)

    def join(
        self,
        rel_r: str,
        column_r: str,
        rel_s: str,
        column_s: str,
        theta: ThetaOperator,
        *,
        strategy: str = "auto",
        meter: CostMeter | None = None,
        collect_tuples: bool = False,
        deadline_ms: float | None = None,
        cancel: CancellationToken | None = None,
    ) -> tuple[JoinResult, tuple[int, int]]:
        """Snapshot join; returns ``(result, (epoch_r, epoch_s))``.

        ``deadline_ms``/``cancel`` as in :meth:`select`.
        """
        svc = self.service
        r = svc.state.get(rel_r)
        s = svc.state.get(rel_s)
        token = cancel if cancel is not None else svc.token_for(deadline_ms)

        def run(pin: EpochPin) -> JoinResult:
            return svc.executor.join(
                r, column_r, s, column_s, theta,
                strategy=strategy, meter=meter,
                collect_tuples=collect_tuples,
                tracer=self.tracer, metrics=svc.metrics, cache=svc.cache,
                cancel=token,
            )

        result, pin = svc.run_read(self, "join", (r, s), run, cancel=token)
        return result, (pin.epoch_of(r), pin.epoch_of(s))

    # -- sharded reads --------------------------------------------------

    def shard_select(
        self,
        table: str,
        window: Any,
        theta: ThetaOperator,
        *,
        deadline_ms: float | None = None,
        cancel: CancellationToken | None = None,
    ) -> SelectResult:
        """Distributed selection against the attached shard fleet.

        Admitted like any read; survives shard crashes via the router's
        failover or raises a typed
        :class:`~repro.errors.ShardUnavailable` -- never a partial
        answer.  Traced as :meth:`_shard_read` says.
        """
        return self._shard_read(
            "shard_select",
            lambda router, **kw: router.select(table, window, theta, **kw),
            deadline_ms, cancel, table=table,
        )

    def shard_join(
        self,
        table_r: str,
        table_s: str,
        theta: ThetaOperator,
        *,
        deadline_ms: float | None = None,
        cancel: CancellationToken | None = None,
    ) -> JoinResult:
        """Distributed join against the attached shard fleet; admitted,
        failed over and traced exactly like :meth:`shard_select`."""
        return self._shard_read(
            "shard_join",
            lambda router, **kw: router.join(table_r, table_s, theta, **kw),
            deadline_ms, cancel, table_r=table_r, table_s=table_s,
        )

    def _shard_read(
        self,
        op: str,
        route: Callable[..., Any],
        deadline_ms: float | None,
        cancel: CancellationToken | None,
        **tags: Any,
    ) -> Any:
        """One admitted sharded read: ``route(router, cancel=...)``.

        With a tracer handed to the session, the read is traced end to
        end: a ``session.<op>`` span opens over a per-query meter, the
        minted :class:`~repro.obs.context.TraceContext` rides every
        dispatch, and the workers' remote spans graft back under the
        session span -- so the whole distributed read is one tree
        obeying the cost conservation law.  Untraced, the router gets no
        context, so the workers build no tracer and ship no spans.
        """
        svc = self.service
        router = svc.require_shards().router
        token = cancel if cancel is not None else svc.token_for(deadline_ms)
        tracer = self.tracer
        if not tracer.enabled:
            return svc.run_shard(
                self, op, lambda: route(router, cancel=token), cancel=token
            )
        ctx = svc.mint_trace(self, op)
        meter = CostMeter()

        def run() -> Any:
            with tracer.span(
                f"session.{op}", meter=meter, **tags,
                trace_id=ctx.trace_id, seq=ctx.seq,
            ) as span:
                return route(
                    router, cancel=token,
                    trace=ctx.for_span(tracer.uid_of(span)),
                    meter=meter, tracer=tracer,
                )

        return svc.run_shard(self, op, run, cancel=token)

    # -- writes ---------------------------------------------------------

    def insert(
        self,
        relation: str,
        values: Sequence[Any],
        *,
        on_commit: Callable[[int], None] | None = None,
    ) -> int:
        """Insert one row; returns the committed epoch."""
        _, epoch = self.service.run_write(
            self, "insert", relation,
            lambda rel: rel.insert(list(values)),
            on_commit=on_commit,
        )
        return epoch

    def delete_where(
        self,
        relation: str,
        predicate: Callable[[Any], bool],
        *,
        limit: int | None = None,
        on_commit: Callable[[int], None] | None = None,
    ) -> tuple[int, int]:
        """Delete matching tuples; returns ``(deleted count, epoch)``.

        The scan-and-delete runs atomically under the write lock, so
        the predicate sees a consistent state.
        """

        def run(rel: Any) -> int:
            doomed = [t.tid for t in rel.scan() if predicate(t)]
            if limit is not None:
                doomed = doomed[:limit]
            for tid in doomed:
                rel.delete(tid)
            return len(doomed)

        count, epoch = self.service.run_write(
            self, "delete", relation, run, on_commit=on_commit
        )
        return count, epoch
