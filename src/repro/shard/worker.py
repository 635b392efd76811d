"""The shard worker: the compute half of one standing shard.

A worker holds the *volatile* copy of its shard's data -- one
:class:`~repro.relational.columns.Columns` per table (flat MBR and id
arrays plus the geometries), replicated from the durable, parent-side
heap/WAL -- and evaluates selections and shard-local partition joins
against it.  Killing the worker process loses nothing durable: the
supervisor replays the shard's WAL into a fresh relation image and
reloads a new worker from it.

The same :class:`ShardWorkerState` drives both transports: the process
transport runs it behind a pipe in :func:`shard_worker_main`, the inline
transport calls it directly.  Replies are ``(status, generation,
payload)`` triples; the worker echoes the generation it was spawned with
so a router can discard stale replies from a pre-crash incarnation.

Join evaluation is the partition join's plane-sweep kernel
(:func:`~repro.parallel.plane_sweep.sweep_task`) with the shard map as
its keyspace: a pair is kept by the one shard that owns its reference
point, so each qualifying pair is reported exactly once across the
fleet.  Only a join imports numpy; a select is a scalar pass over the
resident boxes.

Tracing: when a dispatch payload carries a ``"trace"`` context (see
:class:`~repro.obs.context.TraceContext`), select/join ops record their
work as spans on a throwaway per-request :class:`~repro.obs.Tracer`
whose process label is this incarnation's ``shard<id>g<gen>``, and the
reply carries ``"spans"`` -- exported records the router grafts into
the session's trace tree.  Requests without a context pay nothing: no
tracer is created.
"""

from __future__ import annotations

import os
import time
from typing import Any

from repro.errors import ShardError
from repro.obs.context import TraceContext
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.parallel.partitioner import PartitionTask
from repro.parallel.plane_sweep import sweep_task
from repro.predicates.theta import Overlaps
from repro.relational.columns import Columns
from repro.shard.keyspace import ShardMap
from repro.storage.costs import CostMeter
from repro.storage.record import RecordId


class ShardWorkerState:
    """Volatile per-shard state plus the op dispatch table.

    ``generation`` is this worker incarnation's number; it qualifies the
    trace process label (``shard2g1``) so spans recorded by a pre-crash
    incarnation can never share a uid with its successor's.
    """

    def __init__(self, shard_id: int, shard_map: ShardMap,
                 generation: int = 0) -> None:
        self.shard_id = shard_id
        self.shard_map = shard_map
        self.generation = generation
        self.tables: dict[str, Columns] = {}
        #: Span ids minted by this incarnation so far.  Each traced
        #: request gets a throwaway tracer seeded here, so two requests
        #: served by the same worker never export colliding uids.
        self._span_seq = 0

    @property
    def process_label(self) -> str:
        """The trace process label of this worker incarnation."""
        return f"shard{self.shard_id}g{self.generation}"

    def _request_tracer(
        self, payload: dict[str, Any]
    ) -> tuple[Tracer | NullTracer, dict[str, Any]]:
        """A per-request tracer and the request span's identity tags when
        the payload carries a trace context; the null tracer otherwise.

        The context is read with ``get`` (never popped): the inline
        transport hands the router's own payload dict straight in, and a
        failover re-dispatch must still see it.
        """
        wire = payload.get("trace")
        if wire is None:
            return NULL_TRACER, {}
        ctx = wire if isinstance(wire, TraceContext) \
            else TraceContext.from_wire(wire)
        return Tracer(process=self.process_label, first_id=self._span_seq), {
            "shard": self.shard_id, "generation": self.generation,
            "trace_id": ctx.trace_id, "seq": ctx.seq,
        }

    def _reply(
        self, result: dict[str, Any], meter: CostMeter,
        tracer: Tracer | NullTracer,
    ) -> dict[str, Any]:
        """``result`` plus the request's meter and, when it was traced,
        its exported spans (advancing this incarnation's id sequence)."""
        result["meter"] = meter
        if tracer.enabled:
            self._span_seq = tracer._next_id
            result["spans"] = tracer.to_records()
        return result

    def _table(self, name: str) -> Columns:
        try:
            return self.tables[name]
        except KeyError:
            raise ShardError(
                f"shard {self.shard_id} has no table {name!r}"
            ) from None

    def apply(self, op: str, payload: dict[str, Any]) -> dict[str, Any]:
        """Execute one op; raises for unknown ops / missing tables."""
        if op == "create":
            self.tables.setdefault(payload["table"], Columns())
            return {"created": payload["table"]}
        if op == "load":
            self.tables.setdefault(payload["table"], Columns()).extend(
                payload["columns"]
            )
            return {"loaded": len(payload["columns"])}
        if op == "insert":
            self._table(payload["table"]).append(*payload["entry"])
            return {"inserted": True}
        if op == "delete":
            return {"deleted": self._table(payload["table"]).remove(payload["tid"])}
        if op == "select":
            return self._select(payload)
        if op == "join":
            return self._join(payload)
        if op == "stall":
            # Only meaningful on the process transport, where the parent's
            # poll timeout expires while this sleep holds the reply back.
            time.sleep(payload.get("seconds", 0.0))
            return {"stalled": payload.get("seconds", 0.0)}
        if op == "exit":
            return {"bye": True}
        raise ShardError(f"shard {self.shard_id}: unknown op {op!r}")

    def _select(self, payload: dict[str, Any]) -> dict[str, Any]:
        """``{t : theta(window, t.geom)}`` over this shard's replicas.

        The router deduplicates across shards by tid, so replicated
        entries may match on several shards.  ``overlaps`` gets an MBR
        prefilter (a necessary condition); other operators evaluate
        exactly on every entry -- their truth is not implied by MBR
        intersection.
        """
        window = payload["window"]
        theta = payload["theta"]
        meter = CostMeter()
        tracer, tags = self._request_tracer(payload)
        prefilter = isinstance(theta, Overlaps)
        columns = self._table(payload["table"])
        boxes, ids = columns.boxes, columns.ids
        tids = []
        with tracer.span(
            "shard.select", meter=meter, **tags, table=payload["table"]
        ) as span:
            for i, geom in enumerate(columns.geoms):
                if prefilter:
                    meter.record_filter_eval()
                    xmin, ymin, xmax, ymax = boxes[4 * i:4 * i + 4]
                    if (
                        xmin > window.xmax or window.xmin > xmax
                        or ymin > window.ymax or window.ymin > ymax
                    ):
                        continue
                meter.record_exact_eval()
                if theta(window, geom):
                    tids.append(RecordId(ids[2 * i], ids[2 * i + 1]))
            span.set_tag("matches", len(tids))
        return self._reply({"tids": tids}, meter, tracer)

    def _join(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Shard-local partition join: one sweep over the two resident
        tables in ``xmin`` order, keeping the pairs whose reference point
        this shard owns.  Replies integer result rows (see
        :func:`~repro.parallel.plane_sweep.sweep_task`)."""
        import numpy as np

        theta = payload["theta"]
        meter = CostMeter()
        tracer, tags = self._request_tracer(payload)
        r = self._table(payload["table_r"])
        s = self._table(payload["table_s"])
        with tracer.span("shard.join", meter=meter, **tags) as span:
            with tracer.span("shard.join.sort", meter=meter):
                task = PartitionTask(
                    self.shard_id,
                    r, np.argsort(r.box_array()[:, 0]),
                    s, np.argsort(s.box_array()[:, 0]),
                )
            with tracer.span("shard.join.sweep", meter=meter) as sweep:
                rows = sweep_task(self.shard_map, [task], theta, meter)
                sweep.set_tag("pairs", len(rows))
            span.set_tag("pairs", len(rows))
        return self._reply({"pairs": rows}, meter, tracer)


def shard_worker_main(
    conn: Any, shard_id: int, generation: int, shard_map: ShardMap
) -> None:
    """Process entrypoint: serve ops off the pipe until exit/crash/EOF.

    ``crash`` dies via ``os._exit`` *without replying* -- the poisoned-
    IPC case the parent detects as an EOF/timeout.  Worker-side errors
    are replied as ``("err", generation, {...})`` and keep the loop
    alive: a bad request must not look like a crashed shard.
    """
    state = ShardWorkerState(shard_id, shard_map, generation)
    while True:
        try:
            op, payload = conn.recv()
        except (EOFError, OSError):
            break
        if op == "crash":
            os._exit(1)
        try:
            result = state.apply(op, payload)
        except Exception as exc:  # reply, don't die: not a crash
            try:
                conn.send(
                    ("err", generation,
                     {"type": type(exc).__name__, "message": str(exc)})
                )
            except (BrokenPipeError, OSError):
                break
            continue
        try:
            conn.send(("ok", generation, result))
        except (BrokenPipeError, OSError):
            break
        if op == "exit":
            break
    conn.close()
