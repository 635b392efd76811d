"""The shard router: distributed selects/joins with failover.

Routing follows the replication geometry: a SELECT fans out to every
shard whose key range the query window touches (all shards for
operators without MBR-intersection semantics) and deduplicates by
logical tid -- replicas may match on several shards.  A JOIN runs as
independent shard-local partition joins whose reference-point ownership
test *is* the boundary exchange: each shard holds replicas of every
entry touching its range, so pairs straddling a shard boundary are
computed by the one shard owning the pair's reference point, and the
router only concatenates.

Failover is per shard and bounded: a :class:`~repro.errors.ShardCrashed`
from the dispatch gate triggers a supervisor restart and a re-dispatch,
at most ``retries`` times per shard per query.  The degraded-result
policy is explicit and all-or-nothing -- a query either transparently
survives (every shard eventually answered from a live generation) or
raises a typed :class:`~repro.errors.ShardUnavailable`.  No partial
answer is ever returned, silently or otherwise.

Cancellation (PR 7 tokens) is checked before every dispatch *and* every
failover attempt: a deadline-expired query stops failing over instead of
burning its remaining budget on restarts.

Tracing: when the caller hands ``select``/``join`` a
:class:`~repro.obs.context.TraceContext`, the router carries its wire
form in every dispatch payload and **grafts** the remote span records
each reply ships back into the caller's tracer -- so a sharded query
renders (and conserves cost) as one tree.  Killed dispatches return no
spans and no meter delta; the re-dispatch after failover returns exactly
one of each, which is why the conservation law survives mid-query
crashes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.cancel import CancellationToken, check_cancel
from repro.errors import JoinError, ShardCrashed, ShardUnavailable
from repro.geometry.rect import Rect
from repro.join.result import JoinResult, SelectResult
from repro.obs.context import TraceContext
from repro.parallel.pool import record_pairs
from repro.predicates.theta import Overlaps, ThetaOperator
from repro.storage.costs import CostMeter
from repro.storage.record import RecordId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.obs.trace import NullTracer, Tracer
    from repro.shard.runtime import ShardHandle, ShardRuntime


class ShardRouter:
    """Executes distributed queries against the fleet, absorbing crashes."""

    def __init__(self, runtime: "ShardRuntime", *, retries: int = 2) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.runtime = runtime
        self.retries = retries

    # ------------------------------------------------------------------
    # Failover core
    # ------------------------------------------------------------------

    def _unavailable(
        self, shard: "ShardHandle", message: str, attempts: int,
        cause: BaseException,
    ) -> ShardUnavailable:
        """A typed unavailability error carrying the flight-recorder tail.

        The last few incident events ride on the exception
        (``flight_events``), so the error a client eventually sees
        already names the kills/restarts that caused it.
        """
        exc = ShardUnavailable(
            message, shard_id=shard.shard_id, attempts=attempts
        )
        if self.runtime.flight is not None:
            exc.flight_events = self.runtime.flight.tail(6)
        exc.__cause__ = cause
        return exc

    def _call(
        self,
        shard: "ShardHandle",
        op: str,
        payload: dict[str, Any],
        cancel: CancellationToken | None,
        *,
        meter: CostMeter | None = None,
        tracer: "Tracer | NullTracer | None" = None,
    ) -> dict[str, Any]:
        """One op against one shard, with restart + re-dispatch on crash.

        Worker-side errors (a bad table name, say) propagate untouched:
        the shard is healthy, failing over would re-ask the same wrong
        question.  Only transport-level :class:`ShardCrashed` triggers
        the failover path.

        ``meter`` collects the worker's reply delta (see
        :meth:`ShardRuntime.dispatch`); ``tracer`` receives the reply's
        remote spans as a graft under its active span.
        """
        runtime = self.runtime
        attempts = 0
        while True:
            check_cancel(cancel)
            try:
                result = runtime.dispatch(
                    shard, op, payload, cancel=cancel, meter=meter
                )
                if tracer is not None and "spans" in result:
                    tracer.graft(result.pop("spans"))
                return result
            except ShardCrashed as exc:
                attempts += 1
                if attempts > self.retries:
                    raise self._unavailable(
                        shard,
                        f"shard {shard.shard_id} unavailable after "
                        f"{attempts} attempt(s): {exc}",
                        attempts, exc,
                    ) from exc
                if runtime.metrics is not None:
                    runtime.metrics.counter(
                        "shard.failovers", shard=str(shard.shard_id)
                    ).inc()
                if runtime.flight is not None:
                    runtime.flight.record(
                        "failover",
                        shard=shard.shard_id,
                        op=op,
                        attempt=attempts,
                        generation=shard.generation,
                    )
                check_cancel(cancel)
                try:
                    runtime.supervisor.restart(shard)
                except ShardCrashed as restart_exc:
                    raise self._unavailable(
                        shard,
                        f"shard {shard.shard_id} failed to restart: "
                        f"{restart_exc}",
                        attempts, restart_exc,
                    ) from restart_exc

    # ------------------------------------------------------------------
    # Distributed queries
    # ------------------------------------------------------------------

    def select(
        self,
        table: str,
        window: Rect,
        theta: ThetaOperator,
        *,
        cancel: CancellationToken | None = None,
        with_payloads: bool = True,
        trace: TraceContext | None = None,
        meter: CostMeter | None = None,
        tracer: "Tracer | NullTracer | None" = None,
    ) -> SelectResult:
        """``{t : theta(window, t.column)}`` across the fleet.

        ``overlaps`` routes by the window's covering shards (replication
        guarantees any matching entry has a replica there); every other
        operator broadcasts.  Matches are deduplicated by logical tid
        and returned in sorted tid order -- deterministic regardless of
        which replicas answered.
        """
        runtime = self.runtime
        runtime._column_of(table)
        if isinstance(theta, Overlaps):
            shard_ids = runtime.shard_map.covering_shards(window.mbr())
        else:
            shard_ids = list(range(len(runtime.shards)))
        payload: dict[str, Any] = {
            "table": table, "window": window, "theta": theta,
        }
        if trace is not None:
            payload["trace"] = trace.to_wire()
        tids: set[RecordId] = set()
        for shard_id in shard_ids:
            result = self._call(
                runtime.shards[shard_id], "select", payload, cancel,
                meter=meter, tracer=tracer,
            )
            tids.update(result["tids"])
        ordered = sorted(tids)
        payloads: dict[RecordId, Any] = {}
        if with_payloads and ordered:
            payloads = self._lookup(table, set(ordered))
        return SelectResult(
            strategy=(
                f"shard-select[{len(shard_ids)}/{len(runtime.shards)}]"
            ),
            matches=[(tid, payloads.get(tid)) for tid in ordered],
        )

    def join(
        self,
        table_r: str,
        table_s: str,
        theta: ThetaOperator,
        *,
        cancel: CancellationToken | None = None,
        trace: TraceContext | None = None,
        meter: CostMeter | None = None,
        tracer: "Tracer | NullTracer | None" = None,
    ) -> JoinResult:
        """Distributed join: shard-local sweeps, reference-point dedup.

        Gated to ``overlaps`` like the other partition strategies: the
        reference-point rule is only sound for predicates that imply MBR
        intersection.
        """
        runtime = self.runtime
        runtime._column_of(table_r)
        runtime._column_of(table_s)
        if not isinstance(theta, Overlaps):
            raise JoinError(
                "sharded join supports only the 'overlaps' operator "
                "(reference-point deduplication requires MBR intersection)"
            )
        payload: dict[str, Any] = {
            "table_r": table_r, "table_s": table_s, "theta": theta,
        }
        if trace is not None:
            payload["trace"] = trace.to_wire()
        rows = [
            self._call(
                shard, "join", payload, cancel, meter=meter, tracer=tracer,
            )["pairs"]
            for shard in runtime.shards
        ]
        return JoinResult(
            strategy=f"shard-partition[{len(runtime.shards)}]",
            pairs=record_pairs(rows),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _lookup(
        self, table: str, tids: set[RecordId]
    ) -> dict[RecordId, Any]:
        """Source-row payloads for matched tids, from the durable heaps.

        Reads the parent-side relations (any replica serves), so it
        needs no worker round-trip and works even mid-failover.
        """
        found: dict[RecordId, Any] = {}
        for shard in self.runtime.shards:
            if len(found) == len(tids):
                break
            for t in shard.relations[table].scan():
                tid = RecordId(t["pid"], t["slot"])
                if tid in tids and tid not in found:
                    found[tid] = t
        return found
