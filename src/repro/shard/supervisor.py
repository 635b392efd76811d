"""The shard supervisor: crash detection and WAL-backed restart.

Crash detection covers the three ways a shard dies:

* **exit** -- the worker process terminated (EOF on the pipe);
* **hang** -- a reply missed its deadline (the poll timeout);
* **poisoned IPC** -- the pipe broke mid-message.

All three surface as :class:`~repro.errors.ShardCrashed` at the
transport when a dispatch fails, so the supervisor has exactly one
recovery path: :meth:`ShardSupervisor.restart`.  It replays the shard's
write-ahead log with :func:`repro.wal.recover` -- the same code path
that recovers a whole database from a crashed disk image -- adopts the
recovered substrate, bumps the shard *generation* (the epoch stamp that
makes stale pre-crash replies detectable), spawns a fresh worker and
reloads its volatile tables from the recovered heaps.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.errors import ShardCrashed
from repro.relational.columns import Columns
from repro.storage.record import RecordId
from repro.wal.recovery import recover

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.shard.runtime import ShardHandle, ShardRuntime


class ShardSupervisor:
    """Restarts crashed shards from their write-ahead logs."""

    def __init__(self, runtime: "ShardRuntime") -> None:
        self.runtime = runtime

    def restart(self, shard: "ShardHandle") -> None:
        """Bring a crashed (or suspect) shard back from its WAL.

        The sequence is the whole crash-recovery story in one method:
        kill any remnant of the old incarnation, replay the durable log
        into a fresh substrate, bump the generation, spawn a new worker
        and reload it from the recovered heaps.  The worker reload goes
        straight through the transport -- not the dispatch gate -- so
        restarts never consume dispatch indices (kills stay pinned to
        query boundaries) and never recurse into the kill schedule.
        """
        runtime = self.runtime
        started = time.perf_counter()
        if shard.transport is not None:
            shard.transport.kill()
        relations, report = recover(
            shard.disk,
            memory_pages=runtime.memory_pages,
            meter=shard.meter,
        )
        # Adopt the recovered substrate: recover() rebuilds onto a fresh
        # disk and returns its WAL/pool on the report.
        shard.wal = report.wal
        shard.pool = report.buffer_pool
        shard.disk = report.buffer_pool.disk
        shard.relations = {
            name.rsplit("@", 1)[0]: rel for name, rel in relations.items()
        }
        shard.generation += 1
        shard.restarts += 1
        if runtime.flight is not None:
            runtime.flight.record(
                "wal_recovery",
                shard=shard.shard_id,
                replayed=report.records_replayed,
                last_lsn=report.last_lsn,
            )
        shard.transport = runtime._spawn_transport(
            shard.shard_id, shard.generation
        )
        self._reload_worker(shard)
        if runtime.flight is not None:
            runtime.flight.record(
                "shard_restart",
                shard=shard.shard_id,
                generation=shard.generation,
                restarts=shard.restarts,
            )
        if runtime.plan is not None:
            runtime.plan.note_shard_restart(shard.shard_id)
        if runtime.metrics is not None:
            runtime.metrics.histogram("shard.restart_seconds").observe(
                time.perf_counter() - started
            )

    def _reload_worker(self, shard: "ShardHandle") -> None:
        """Rebuild the new incarnation's volatile tables from the
        recovered durable heaps (logical tids ride in pid/slot)."""
        runtime = self.runtime
        for table, rel in sorted(shard.relations.items()):
            column = runtime.columns[table]
            columns = Columns(tids=None)
            for t in rel.scan():
                geom = t[column]
                columns.append(RecordId(t["pid"], t["slot"]), geom.mbr(), geom)
            self._worker_call(shard, "create", {"table": table})
            if columns:
                self._worker_call(
                    shard, "load", {"table": table, "columns": columns}
                )

    def _worker_call(self, shard: "ShardHandle", op: str, payload: dict) -> None:
        status, generation, result = shard.transport.request(
            op, payload, self.runtime.request_timeout
        )
        if status != "ok" or generation != shard.generation:
            raise ShardCrashed(
                f"shard {shard.shard_id}: reload {op!r} failed "
                f"(status={status}, generation={generation})"
            )
