"""The shard runtime: standing workers over per-shard durable storage.

Each shard pairs two halves:

* a **durable half** owned by the runtime (parent side): its own
  :class:`~repro.storage.disk.SimulatedDisk`, write-ahead log, buffer
  pool, per-table :class:`~repro.relational.relation.Relation` heap
  files, and a cumulative :class:`~repro.storage.costs.CostMeter`.  All
  mutations hit this half first (logged, WAL ``sync="always"``) -- it is
  what survives a crash and what :func:`repro.wal.recover` replays;
* a **volatile half**: a standing worker (a real child process, or an
  in-process stand-in when process support is unavailable or determinism
  is preferred) holding the hot per-table
  :class:`~repro.relational.columns.Columns` that serve selects and
  shard-local joins.

Killing a shard therefore loses only the volatile half.  The supervisor
(:mod:`repro.shard.supervisor`) replays the WAL, bumps the shard's
*generation*, spawns a fresh worker and reloads it -- and every reply
carries the generation it was computed under, so a router can never
consume a stale answer from a pre-crash incarnation.

``dispatch`` is the single chokepoint every routed request flows
through.  It assigns a global, monotonically increasing *dispatch
index*, which is the coordinate the fault plan's ``kill_shard_at``
schedule keys on: kills fire deterministically at exact request
boundaries, which is what lets the differential oracle enumerate every
boundary exhaustively.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Any, Iterable

from repro.core.cancel import CancellationToken, check_cancel
from repro.errors import ShardCrashed, ShardError, ShardUnavailable
from repro.geometry.rect import Rect
from repro.obs.flight import FlightRecorder
from repro.relational.columns import Columns
from repro.relational.relation import Relation
from repro.relational.schema import Column, ColumnType, Schema
from repro.shard.keyspace import ShardMap
from repro.shard.worker import ShardWorkerState, shard_worker_main
from repro.storage.buffer import BufferPool
from repro.storage.costs import CostMeter
from repro.storage.disk import SimulatedDisk
from repro.storage.record import RecordId
from repro.wal.log import WriteAheadLog

#: Exceptions that mean "this platform cannot start worker processes".
_SPAWN_ERRORS = (OSError, PermissionError, ValueError, ImportError)


class InlineTransport:
    """In-process stand-in for a worker: same ops, same reply triples.

    The deterministic default: no pickling, no scheduling jitter, and a
    ``kill`` flips a dead flag so every later request raises
    :class:`ShardCrashed` exactly like a dead pipe would.  A ``stall``
    op past the request timeout is treated as a hang: the caller would
    have given up waiting, so the incarnation is marked dead.
    """

    mode = "inline"

    def __init__(
        self, shard_id: int, generation: int, shard_map: ShardMap
    ) -> None:
        self.shard_id = shard_id
        self.generation = generation
        self.state = ShardWorkerState(shard_id, shard_map, generation)
        self._dead_reason: str | None = None

    def request(
        self, op: str, payload: dict[str, Any], timeout: float | None
    ) -> tuple[str, int, dict[str, Any]]:
        if self._dead_reason is not None:
            raise ShardCrashed(
                f"shard {self.shard_id} gen {self.generation} is dead "
                f"({self._dead_reason})"
            )
        if op == "crash":
            self._dead_reason = "crash op"
            raise ShardCrashed(
                f"shard {self.shard_id} gen {self.generation} crashed on demand"
            )
        if op == "stall":
            seconds = payload.get("seconds", 0.0)
            if timeout is not None and seconds > timeout:
                self._dead_reason = f"stalled {seconds}s past {timeout}s timeout"
                raise ShardCrashed(
                    f"shard {self.shard_id} gen {self.generation} "
                    f"hung past its {timeout}s deadline"
                )
            return "ok", self.generation, {"stalled": seconds}
        try:
            return "ok", self.generation, self.state.apply(op, payload)
        except Exception as exc:
            return "err", self.generation, {
                "type": type(exc).__name__, "message": str(exc),
            }

    def kill(self) -> None:
        self._dead_reason = "killed"

    def close(self) -> None:
        self._dead_reason = "closed"

    def alive(self) -> bool:
        return self._dead_reason is None


class ProcessTransport:
    """A standing worker process behind a duplex pipe.

    Crash detection is at the transport boundary: an EOF/broken pipe on
    the connection (the process died) or a reply missing its poll
    deadline (the process hung) both surface as :class:`ShardCrashed`.
    The transport never retries -- failover policy belongs to the
    router, recovery to the supervisor.
    """

    mode = "process"

    def __init__(
        self, shard_id: int, generation: int, shard_map: ShardMap
    ) -> None:
        self.shard_id = shard_id
        self.generation = generation
        ctx = multiprocessing.get_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=shard_worker_main,
            args=(child_conn, shard_id, generation, shard_map),
            daemon=True,
            name=f"shard-{shard_id}-gen{generation}",
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn

    def request(
        self, op: str, payload: dict[str, Any], timeout: float | None
    ) -> tuple[str, int, dict[str, Any]]:
        try:
            self.conn.send((op, payload))
            if not self.conn.poll(timeout):
                raise ShardCrashed(
                    f"shard {self.shard_id} gen {self.generation}: no reply "
                    f"to {op!r} within {timeout}s (hung or dead)"
                )
            return self.conn.recv()
        except (EOFError, BrokenPipeError, OSError) as exc:
            raise ShardCrashed(
                f"shard {self.shard_id} gen {self.generation}: pipe to "
                f"worker broke during {op!r} ({type(exc).__name__})"
            ) from exc

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def close(self) -> None:
        """Graceful shutdown; escalates so no child ever outlives us."""
        try:
            if self.process.is_alive():
                self.conn.send(("exit", {}))
                if self.conn.poll(1.0):
                    self.conn.recv()
        except (EOFError, BrokenPipeError, OSError):
            pass
        self.process.join(timeout=1.0)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=1.0)
        if self.process.is_alive():  # pragma: no cover - still stuck
            self.process.kill()
            self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def alive(self) -> bool:
        return self.process.is_alive()


class ShardHandle:
    """One shard: durable substrate + the current worker incarnation.

    ``meter`` is the one store of the shard's cost: every worker reply's
    meter delta lands there, and :meth:`describe` reports it under
    ``"cost"``.
    """

    def __init__(
        self,
        shard_id: int,
        zrange: tuple[int, int],
        *,
        memory_pages: int,
    ) -> None:
        self.shard_id = shard_id
        self.zrange = zrange
        self.generation = 0
        self.restarts = 0
        self.dispatches = 0
        self.meter = CostMeter()
        self.disk = SimulatedDisk()
        self.pool = BufferPool(self.disk, memory_pages, self.meter)
        self.wal = WriteAheadLog(self.disk, self.meter)
        self.pool.wal = self.wal
        self.relations: dict[str, Relation] = {}
        self.transport: InlineTransport | ProcessTransport | None = None

    def describe(self) -> dict[str, Any]:
        return {
            "shard": self.shard_id,
            "zrange": list(self.zrange),
            "generation": self.generation,
            "restarts": self.restarts,
            "dispatches": self.dispatches,
            "cost": self.meter.snapshot(),
            "mode": self.transport.mode if self.transport else "down",
            "alive": bool(self.transport and self.transport.alive()),
            "tables": sorted(self.relations),
            "rows": sum(len(r) for r in self.relations.values()),
            "wal_last_lsn": self.wal.last_lsn,
        }


class ShardRuntime:
    """The standing shard fleet: storage, workers, and the dispatch gate.

    ``processes=False`` (default) runs every shard on the inline
    transport -- fully deterministic, no IPC.  ``processes=True`` spawns
    real worker processes and degrades shard-by-shard to inline (with
    ``degrade_reason`` recorded) where the platform refuses: loudly,
    never silently.

    The runtime is also a context manager; ``close()`` guarantees no
    worker process outlives it.
    """

    def __init__(
        self,
        universe: Rect,
        n_shards: int,
        *,
        bits: int = 4,
        processes: bool = False,
        fault_plan: Any = None,
        metrics: Any = None,
        flight: FlightRecorder | None = None,
        request_timeout: float = 5.0,
        memory_pages: int = 512,
    ) -> None:
        self.shard_map = ShardMap.split_uniform(universe, n_shards, bits=bits)
        self.processes = processes
        self.plan = fault_plan
        self.metrics = metrics
        #: Optional incident log; the query service hands its own in via
        #: ``attach_shards`` so fleet events land next to service events.
        self.flight = flight
        self.request_timeout = request_timeout
        self.memory_pages = memory_pages
        self.degrade_reason: str | None = None
        #: table -> spatial column the entries are built from.
        self.columns: dict[str, str] = {}
        self._insert_counters: dict[str, int] = {}
        self._dispatch_index = 0
        self.shards = [
            ShardHandle(i, self.shard_map.zrange(i), memory_pages=memory_pages)
            for i in range(n_shards)
        ]
        for shard in self.shards:
            shard.transport = self._spawn_transport(shard.shard_id, 0)
        self._closed = False
        # Late imports break the runtime <-> supervisor/router cycle.
        from repro.shard.router import ShardRouter
        from repro.shard.supervisor import ShardSupervisor

        self.supervisor = ShardSupervisor(self)
        self.router = ShardRouter(self)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def _spawn_transport(
        self, shard_id: int, generation: int
    ) -> InlineTransport | ProcessTransport:
        if self.processes:
            try:
                return ProcessTransport(shard_id, generation, self.shard_map)
            except _SPAWN_ERRORS as exc:
                # Degrade to the in-process path and say why.
                self.degrade_reason = f"{type(exc).__name__}: {exc}"
        return InlineTransport(shard_id, generation, self.shard_map)

    def kill_shard(self, shard_id: int) -> None:
        """Kill the shard's current worker incarnation (volatile half only).

        The durable half is untouched -- exactly what a process crash
        does.  The next request to the shard raises
        :class:`ShardCrashed`; the supervisor restarts it from the WAL.
        """
        shard = self.shards[shard_id]
        if shard.transport is not None:
            shard.transport.kill()
        if self.flight is not None:
            self.flight.record(
                "shard_kill", shard=shard_id, generation=shard.generation
            )

    def close(self) -> None:
        """Stop every worker; idempotent; leaves no child processes."""
        if self._closed:
            return
        self._closed = True
        for shard in self.shards:
            if shard.transport is not None:
                shard.transport.close()

    def __enter__(self) -> "ShardRuntime":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The dispatch gate
    # ------------------------------------------------------------------

    def dispatch(
        self,
        shard: ShardHandle,
        op: str,
        payload: dict[str, Any],
        *,
        cancel: CancellationToken | None = None,
        timeout: float | None = None,
        meter: CostMeter | None = None,
    ) -> dict[str, Any]:
        """Send one op to one shard; the only path routed requests take.

        Applies, in order: cooperative cancellation, the fault plan's
        shard-kill schedule (keyed on the global dispatch index assigned
        here), the transport request with its timeout, the stale-
        generation check, and worker-meter absorption.  Raises
        :class:`ShardCrashed` for transport-level death and
        :class:`ShardError` for worker-side errors (which do *not* mean
        the shard is down).

        ``meter`` is the per-query meter of the request that caused this
        dispatch: the worker's reply meter (its per-request delta) is
        absorbed into it *and* into the shard's cumulative meter, which
        is what extends the trace conservation law across the process
        boundary -- a killed dispatch yields no reply, hence no delta,
        and its re-dispatch yields exactly one.
        """
        if self._closed:
            raise ShardError("shard runtime is closed")
        check_cancel(cancel)
        index = self._dispatch_index
        self._dispatch_index += 1
        shard.dispatches += 1
        if self.metrics is not None:
            self.metrics.counter("shard.dispatches", op=op).inc()
        if self.plan is not None:
            victim = self.plan.take_shard_kill(index, shard.shard_id)
            if victim is not None:
                self.kill_shard(victim)
        if shard.transport is None:  # pragma: no cover - defensive
            raise ShardCrashed(f"shard {shard.shard_id} has no worker")
        status, generation, result = shard.transport.request(
            op, payload, self.request_timeout if timeout is None else timeout
        )
        if generation != shard.generation:
            # A reply computed by a pre-crash incarnation: never consume.
            raise ShardCrashed(
                f"stale reply from shard {shard.shard_id}: generation "
                f"{generation}, current {shard.generation}"
            )
        if status == "err":
            raise ShardError(
                f"shard {shard.shard_id}: {result.get('type')}: "
                f"{result.get('message')}"
            )
        delta = result.pop("meter", None)
        if delta is not None:
            shard.meter.absorb(delta)
            if meter is not None:
                meter.absorb(delta)
        return result

    def _mutate(
        self,
        shard: ShardHandle,
        op: str,
        payload: dict[str, Any],
        *,
        cancel: CancellationToken | None = None,
    ) -> None:
        """Ship a volatile mutation to a worker, crash-tolerantly.

        Mutations commit durably (heap + WAL) *before* this dispatch, so
        a crash here loses only the volatile copy -- and a restart
        rebuilds the worker from the durable heap, which already holds
        the row.  Re-dispatching the lost op after the restart would
        double-apply it; the restart alone *is* the recovery.  A shard
        whose fresh incarnation dies during the reload is genuinely
        unavailable.
        """
        try:
            self.dispatch(shard, op, payload, cancel=cancel)
        except ShardCrashed:
            try:
                self.supervisor.restart(shard)
            except ShardCrashed as exc:
                raise ShardUnavailable(
                    f"shard {shard.shard_id} failed to restart after a "
                    f"crashed {op!r}: {exc}",
                    shard_id=shard.shard_id,
                    attempts=1,
                ) from exc

    # ------------------------------------------------------------------
    # Data definition and mutation (durable first, then volatile)
    # ------------------------------------------------------------------

    def _extended_schema(self, schema: Schema) -> Schema:
        """The source schema prefixed with the logical tuple identity.

        ``pid``/``slot`` persist the *logical* :class:`RecordId` of each
        row (the source relation's tid, or a runtime-assigned id for
        live inserts), so results from shard-local heaps are byte-
        identical to the unsharded oracle's -- no id translation layer.
        """
        for column in schema.columns:
            if column.name in ("pid", "slot"):
                raise ShardError(
                    f"column name {column.name!r} is reserved by the shard "
                    "runtime"
                )
        return Schema([
            Column("pid", ColumnType.INT),
            Column("slot", ColumnType.INT),
            *schema.columns,
        ])

    def create_table(self, name: str, schema: Schema, column: str) -> None:
        """Register a sharded table: one relation per shard, same WAL rules
        as any other relation, plus the empty volatile tables."""
        if name in self.columns:
            raise ShardError(f"table {name!r} already exists")
        if column not in schema.column_names:
            raise ShardError(
                f"table {name!r} has no column {column!r} to shard on"
            )
        extended = self._extended_schema(schema)
        self.columns[name] = column
        self._insert_counters[name] = 0
        for shard in self.shards:
            shard.relations[name] = Relation(
                f"{name}@{shard.shard_id}", extended, shard.pool,
                wal=shard.wal,
            )
            self._mutate(shard, "create", {"table": name})

    def load_relation(
        self, relation: Relation, column: str, *, table: str | None = None
    ) -> int:
        """Bulk-load an existing relation into the fleet.

        Every row is replicated -- durably and volatilely -- into each
        shard whose key range its MBR touches; the source tid rides
        along as the logical identity.  Returns the row count loaded.
        """
        name = relation.name if table is None else table
        self.create_table(name, relation.schema, column)
        batches: dict[int, tuple[Columns, list[list[Any]]]] = {
            shard.shard_id: (Columns(tids=None), []) for shard in self.shards
        }
        count = 0
        for t in relation.scan():
            count += 1
            geom = t[column]
            mbr = geom.mbr()
            row = [t.tid.page_id, t.tid.slot, *t.values]
            for shard_id in self.shard_map.covering_shards(mbr):
                columns, rows = batches[shard_id]
                columns.append(t.tid, mbr, geom)
                rows.append(row)
        for shard in self.shards:
            columns, rows = batches[shard.shard_id]
            shard.relations[name].insert_all(rows)
            if rows:
                self._mutate(
                    shard, "load", {"table": name, "columns": columns}
                )
        return count

    def insert(self, table: str, values: Iterable[Any]) -> RecordId:
        """Insert one row; returns its runtime-assigned logical tid.

        Runtime tids use page id ``-1`` so they can never collide with a
        bulk-loaded source tid (heap page ids are non-negative).
        """
        column = self._column_of(table)
        values = list(values)
        self._insert_counters[table] += 1
        tid = RecordId(-1, self._insert_counters[table])
        source = self._source_schema(table)
        geom = values[source.index_of(column)]
        mbr = geom.mbr()
        for shard_id in self.shard_map.covering_shards(mbr):
            shard = self.shards[shard_id]
            shard.relations[table].insert([tid.page_id, tid.slot, *values])
            self._mutate(
                shard, "insert",
                {"table": table, "entry": (tid, mbr, geom)},
            )
        return tid

    def delete(self, table: str, tid: RecordId) -> int:
        """Delete a logical tuple everywhere it was replicated.

        Returns the number of shards that held a replica.  Durable
        deletes go by pid/slot scan (logged per shard); volatile deletes
        are broadcast -- a shard without the tuple deletes zero rows.
        """
        self._column_of(table)
        hit = 0
        for shard in self.shards:
            rel = shard.relations[table]
            victims = [
                t.tid for t in rel.scan()
                if t["pid"] == tid.page_id and t["slot"] == tid.slot
            ]
            for victim in victims:
                rel.delete(victim)
            self._mutate(shard, "delete", {"table": table, "tid": tid})
            if victims:
                hit += 1
        return hit

    def _column_of(self, table: str) -> str:
        try:
            return self.columns[table]
        except KeyError:
            raise ShardError(f"no sharded table {table!r}") from None

    def _source_schema(self, table: str) -> Schema:
        # Any shard's relation carries the extended schema; strip the
        # identity prefix back off.
        extended = self.shards[0].relations[table].schema
        return Schema(list(extended.columns)[2:])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self) -> dict[str, Any]:
        """One self-describing snapshot of the whole fleet."""
        return {
            "n_shards": len(self.shards),
            "bits": self.shard_map.bits,
            "processes": self.processes,
            "degrade_reason": self.degrade_reason,
            "tables": sorted(self.columns),
            "dispatches": self._dispatch_index,
            "restarts": sum(s.restarts for s in self.shards),
            "shards": [s.describe() for s in self.shards],
        }

    def meter_snapshot(self) -> dict[str, float]:
        return CostMeter.merge([s.meter for s in self.shards]).snapshot()
