"""The shard supervisor: heartbeats, crash detection, WAL-backed restart.

Crash detection covers the three ways a shard dies:

* **exit** -- the worker process terminated (EOF on the pipe);
* **hang** -- a reply missed its deadline (the poll timeout);
* **poisoned IPC** -- the pipe broke mid-message.

All three surface as :class:`~repro.errors.ShardCrashed` at the
transport, so the supervisor has exactly one recovery path:
:meth:`ShardSupervisor.restart`.  It replays the shard's write-ahead log
with PR 3's :func:`repro.wal.recover` -- the same code path that
recovers a whole database from a crashed disk image -- adopts the
recovered substrate, bumps the shard *generation* (the epoch stamp that
makes stale pre-crash replies detectable), spawns a fresh worker and
reloads its volatile tables from the recovered heaps.

Heartbeats are lightweight ``ping`` probes with their own (short)
timeout.  They deliberately bypass the runtime's dispatch gate: probes
must not consume dispatch indices, or the fault plan's kill schedule
would depend on supervision cadence and the exhaustive kill-at-every-
boundary oracle would lose determinism.  A seeded fault plan can drop
probes (``heartbeat_drop_rate``); only ``miss_threshold`` *consecutive*
misses declare the shard dead, so a drop-prone network below the burst
cap never triggers a spurious restart.
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
    """Health-checks the fleet and restarts crashed shards."""

    def __init__(
        self,
        runtime: "ShardRuntime",
        *,
        miss_threshold: int = 3,
        heartbeat_timeout: float = 1.0,
    ) -> None:
        if miss_threshold < 1:
            raise ValueError(
                f"miss_threshold must be >= 1, got {miss_threshold}"
            )
        self.runtime = runtime
        self.miss_threshold = miss_threshold
        self.heartbeat_timeout = heartbeat_timeout
        self._misses: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------

    def heartbeat(self, shard: "ShardHandle") -> bool:
        """One ping probe; True when the shard answered from the current
        generation within the heartbeat deadline."""
        runtime = self.runtime
        plan = runtime.plan
        if plan is not None and plan.draw_heartbeat_drop(shard.shard_id):
            # The probe was lost on the (simulated) wire: the shard may
            # be perfectly healthy, so this only counts toward the
            # consecutive-miss threshold.
            self._note(shard, ok=False)
            if runtime.metrics is not None:
                runtime.metrics.counter(
                    "shard.heartbeat_drops", shard=str(shard.shard_id)
                ).inc()
            return False
        started = time.perf_counter()
        try:
            status, generation, _ = shard.transport.request(
                "ping", {}, self.heartbeat_timeout
            )
            ok = status == "ok" and generation == shard.generation
        except ShardCrashed:
            ok = False
        if runtime.metrics is not None:
            from repro.obs.metrics import DURATION_BUCKETS

            runtime.metrics.histogram(
                "shard.heartbeat_seconds", buckets=DURATION_BUCKETS
            ).observe(time.perf_counter() - started)
        self._note(shard, ok=ok)
        if ok and plan is not None:
            plan.note_heartbeat_ok(shard.shard_id)
        return ok

    def _note(self, shard: "ShardHandle", *, ok: bool) -> None:
        if ok:
            self._misses[shard.shard_id] = 0
        else:
            self._misses[shard.shard_id] = (
                self._misses.get(shard.shard_id, 0) + 1
            )

    def misses(self, shard_id: int) -> int:
        return self._misses.get(shard_id, 0)

    # ------------------------------------------------------------------
    # Crash handling
    # ------------------------------------------------------------------

    def check(self, shard: "ShardHandle") -> bool:
        """Probe one shard; restart it after ``miss_threshold``
        consecutive misses.  Returns True when a restart happened."""
        if self.heartbeat(shard):
            return False
        if self._misses.get(shard.shard_id, 0) < self.miss_threshold:
            return False
        self.restart(shard)
        return True

    def check_all(self) -> list[int]:
        """One supervision sweep; returns the ids of restarted shards."""
        return [
            shard.shard_id
            for shard in self.runtime.shards
            if self.check(shard)
        ]

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
        self._misses[shard.shard_id] = 0
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
            columns = Columns()
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
