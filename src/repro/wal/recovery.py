"""Crash recovery: rebuild committed state from anchor + snapshot + log.

``recover(disk)`` takes *any* disk image -- typically the frozen
``crash_image()`` of a :class:`~repro.faults.disk.FaultyDisk`, but a
cleanly shut-down disk works identically -- and returns the durable
relations plus a :class:`RecoveryReport` accounting for every log frame.

The invariants (pinned by ``tests/wal/``):

* **prefix semantics** -- the recovered state equals the state after
  some prefix of the *committed* operations (an operation commits when
  its log frame becomes durable);
* **torn-tail truncation** -- a frame that fails its CRC (or any frame
  after it) is truncated, never replayed;
* **idempotence** -- recovery ends with a fresh checkpoint fusing the
  replayed state, so recovering the recovered image replays zero
  records and yields the identical state.

Replay is LSN-gated: the rebuilt pages are stamped with the LSN of the
record that produced them, only frames beyond the checkpoint watermark
are applied, and application order is strictly monotone in LSN -- the
per-page watermark discipline of ARIES collapsed onto a single ordered
log scan.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import WALError
from repro.relational.relation import Relation
from repro.relational.schema import Column, ColumnType, Schema
from repro.storage.buffer import BufferPool
from repro.storage.costs import CostMeter
from repro.storage.disk import SimulatedDisk
from repro.storage.record import RecordId
from repro.wal.checkpoint import CHECKPOINT_FORMAT, Checkpointer
from repro.wal.log import (
    LogRecordKind,
    WriteAheadLog,
    decode_row,
    decode_tid,
    anchor_crc,
    frame_is_valid,
)


@dataclass(slots=True)
class RecoveryReport:
    """Full account of one recovery pass."""

    wal_found: bool = False
    checkpoint_lsn: int = 0
    last_lsn: int = 0
    records_replayed: int = 0
    records_skipped: int = 0
    records_truncated: int = 0
    torn_tail_detected: bool = False
    pages_repaired: int = 0
    relations: list[str] = field(default_factory=list)
    pending_indexes: list[tuple[str, str, str]] = field(default_factory=list)
    meter: CostMeter = field(default_factory=CostMeter)
    #: The recovered substrate, for callers that continue the workload.
    wal: WriteAheadLog | None = None
    buffer_pool: BufferPool | None = None

    def format(self) -> str:
        """Human-readable multi-line account (the CLI prints this)."""
        if not self.wal_found:
            return "recovery: no write-ahead log found on this disk image"
        lines = [
            "recovery report",
            f"  checkpoint LSN {self.checkpoint_lsn}, last LSN {self.last_lsn}",
            f"  records: {self.records_replayed} replayed, "
            f"{self.records_skipped} skipped, {self.records_truncated} truncated",
            f"  torn log tail detected: {'yes' if self.torn_tail_detected else 'no'}",
            f"  data pages repaired: {self.pages_repaired}",
            f"  relations recovered: {', '.join(self.relations) or '(none)'}",
        ]
        for rel, col, idx_type in self.pending_indexes:
            lines.append(
                f"  index pending rebuild: {rel}.{col} ({idx_type}) -- "
                "pass index_factories to recover() to rebuild"
            )
        return "\n".join(lines)


def _find_anchor(disk: SimulatedDisk, meter: CostMeter) -> dict | None:
    """Scan for the highest-versioned *valid* anchor (dual-superblock)."""
    best: dict | None = None
    for page_id in range(disk.num_pages):
        page = disk.read_page(page_id)
        meter.record_read()
        if not page.slots:
            continue
        obj = page.slots[0]
        if not (isinstance(obj, dict) and obj.get("wal-anchor") is True):
            continue
        try:
            ok = obj["crc"] == anchor_crc(
                obj["version"], obj["log_pages"], obj["checkpoint"],
                obj["relations"],
            )
        except (KeyError, TypeError):
            ok = False
        if ok and (best is None or obj["version"] > best["version"]):
            best = obj
    return best


def _read_frames(
    disk: SimulatedDisk, log_pages: list[int], meter: CostMeter
) -> tuple[list[dict], int, bool]:
    """All valid frames in chain order, plus (truncated count, torn flag).

    The log is append-only, so the first frame that fails validation (bad
    CRC, wrong shape, or a non-monotone LSN) marks the torn tail:
    everything from there on is truncated, never replayed.
    """
    frames: list[dict] = []
    truncated = 0
    torn = False
    last_lsn = 0
    for page_id in log_pages:
        if not 0 <= page_id < disk.num_pages:  # pragma: no cover - defensive
            continue
        page = disk.read_page(page_id)
        meter.record_read()
        for slot in page.slots:
            if slot is None:
                continue
            if torn:
                truncated += 1
                continue
            if not frame_is_valid(slot) or slot["lsn"] <= last_lsn:
                torn = True
                truncated += 1
                continue
            frames.append(slot)
            last_lsn = slot["lsn"]
    return frames, truncated, torn


def _load_checkpoint_payload(
    disk: SimulatedDisk, checkpoint: dict, meter: CostMeter
) -> dict:
    chunks: list[str] = []
    for page_id in checkpoint["pages"]:
        page = disk.read_page(page_id)
        meter.record_read()
        chunks.append(page.slots[0] if page.slots else "")
    text = "".join(chunks)
    if zlib.crc32(text.encode("utf-8")) != checkpoint["crc"]:
        # Cannot happen via the commit protocol (the anchor only ever
        # references fully persisted chunks); guard against hand-edited
        # images anyway.
        raise WALError("checkpoint snapshot failed its CRC check")
    payload = json.loads(text)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise WALError("checkpoint snapshot has the wrong format tag")
    return payload


def _image_has_live_record(disk: SimulatedDisk, tid: RecordId) -> bool:
    """Did the mutation at ``tid`` survive in the durable image?

    Pure introspection for the ``pages_repaired`` accounting -- reads are
    not charged (a real recovery compares LSNs it already paged in).
    """
    if not 0 <= tid.page_id < disk.num_pages:
        return False
    page = disk.read_page(tid.page_id)
    return 0 <= tid.slot < len(page.slots) and page.slots[tid.slot] is not None


def _schema_from_columns(columns: list[dict]) -> Schema:
    return Schema([Column(c["name"], ColumnType(c["type"])) for c in columns])


def recover(
    disk: SimulatedDisk,
    *,
    memory_pages: int = 4000,
    meter: CostMeter | None = None,
    index_factories: dict[tuple[str, str], Callable[[], Any]] | None = None,
    plan: Any = None,
) -> tuple[dict[str, Relation], RecoveryReport]:
    """Rebuild committed relations from a (possibly crashed) disk image.

    Returns ``(relations, report)``.  The relations live on a *fresh*
    disk with a fresh write-ahead log (exposed as ``report.wal`` /
    ``report.buffer_pool``); recovery finishes with a checkpoint fusing
    the replayed state, so recovering the result again is a no-op.

    ``index_factories`` maps ``(relation, column)`` to a zero-argument
    index constructor; an index named by a logged ``attach-index``
    record or by the checkpoint that fused it, and with no factory, is
    surfaced in ``report.pending_indexes`` instead of silently lost.
    Pass the originating :class:`~repro.faults.plan.FaultPlan` as
    ``plan`` to mark its crash event consumed by this recovery.
    """
    report_meter = meter if meter is not None else CostMeter()
    report = RecoveryReport(meter=report_meter)
    factories = index_factories or {}

    anchor = _find_anchor(disk, report_meter)
    if anchor is None:
        # Crash predates even the first anchor write: nothing was ever
        # durable, so the empty state *is* the committed prefix.
        if plan is not None:
            plan.mark_crash_recovered()
        return {}, report
    report.wal_found = True

    checkpoint = anchor.get("checkpoint")
    frames, truncated, torn = _read_frames(
        disk, anchor.get("log_pages", []), report_meter
    )
    report.records_truncated = truncated
    report.torn_tail_detected = torn
    checkpoint_lsn = checkpoint["lsn"] if checkpoint else 0
    max_lsn = max([checkpoint_lsn] + [f["lsn"] for f in frames])
    report.checkpoint_lsn = checkpoint_lsn
    report.last_lsn = max_lsn

    # Fresh durable substrate: recovered relations get their own disk,
    # pool and WAL; LSNs continue past the old log so page stamps stay
    # monotone across the crash.
    new_disk = SimulatedDisk(disk.page_size)
    pool = BufferPool(new_disk, memory_pages, report_meter)
    new_wal = WriteAheadLog(new_disk, report_meter, start_lsn=max_lsn + 1)
    pool.wal = new_wal

    relations: dict[str, Relation] = {}
    translation: dict[RecordId, RecordId] = {}

    def ensure_relation(name: str, columns: list[dict], record_size: int,
                        utilization: float) -> Relation:
        rel = relations.get(name)
        if rel is None:
            rel = Relation(
                name, _schema_from_columns(columns), pool,
                record_size=record_size, utilization=utilization,
                wal=new_wal,
            )
            relations[name] = rel
        return rel

    def restore_index(name: str, column: str, index_type: str) -> None:
        factory = factories.get((name, column))
        if factory is not None:
            relations[name].attach_index(column, factory(), backfill=True)
        else:
            report.pending_indexes.append((name, column, index_type))

    for name, meta in anchor.get("relations", {}).items():
        ensure_relation(
            name, meta["columns"], meta["record_size"], meta["utilization"]
        )

    # Phase 1: rebuild the checkpoint snapshot (rows with their RIDs).
    if checkpoint:
        payload = _load_checkpoint_payload(disk, checkpoint, report_meter)
        for name, snap in payload["relations"].items():
            rel = ensure_relation(
                name, snap["columns"], snap["record_size"], snap["utilization"]
            )
            for rid_data, row in zip(snap["rids"], snap["rows"]):
                t = rel.insert(decode_row(rel.schema, row))
                translation[decode_tid(rid_data)] = t.tid
            if snap.get("clustered"):
                # The rebuilt heap preserves the clustered row order; the
                # flag is restored so strategy selection stays correct.
                rel._clustered = True
            # The checkpoint fused the attach-index records away.
            for column in snap.get("indexed_columns", []):
                restore_index(name, column, "?")

    # Phase 2: replay the log tail in strict LSN order.
    repaired_pages: set[int] = set()
    applied_lsn = checkpoint_lsn
    for frame in frames:
        lsn = frame["lsn"]
        if lsn <= applied_lsn:
            report.records_skipped += 1
            continue
        kind = frame["kind"]
        p = frame["payload"]
        if kind == LogRecordKind.CHECKPOINT.value:
            # A checkpoint whose anchor publication did not survive the
            # crash: its snapshot is unreachable, the records it fused
            # are still in our chain, so it is skipped -- not replayed.
            report.records_skipped += 1
            applied_lsn = lsn
            continue
        rel = relations.get(p["relation"])
        if rel is None:  # pragma: no cover - registration precedes use
            report.records_skipped += 1
            continue
        if kind == LogRecordKind.INSERT.value:
            logged_tid = decode_tid(p["tid"])
            t = rel.insert(decode_row(rel.schema, p["row"]))
            translation[logged_tid] = t.tid
            if not _image_has_live_record(disk, logged_tid):
                repaired_pages.add(logged_tid.page_id)
        elif kind == LogRecordKind.DELETE.value:
            logged_tid = decode_tid(p["tid"])
            actual = translation.get(logged_tid)
            if actual is not None:
                rel.delete(actual)
            if _image_has_live_record(disk, logged_tid):
                repaired_pages.add(logged_tid.page_id)
        elif kind == LogRecordKind.RECLUSTER.value:
            order = [decode_tid(x) for x in p["order"]]
            new_logged = [decode_tid(x) for x in p["new_rids"]]
            new_map = rel.recluster([translation[r] for r in order])
            translation.update({
                nl: new_map[translation[ol]]
                for ol, nl in zip(order, new_logged)
            })
        elif kind == LogRecordKind.ATTACH_INDEX.value:
            restore_index(p["relation"], p["column"], p.get("index_type", "?"))
        else:  # pragma: no cover - unknown kinds are future extensions
            report.records_skipped += 1
            continue
        report.records_replayed += 1
        applied_lsn = lsn

    report.pages_repaired = len(repaired_pages)
    report.relations = sorted(relations)
    report.wal = new_wal
    report.buffer_pool = pool

    # Fuse the replayed state so recovery is idempotent: a second pass
    # over the recovered image finds a checkpoint and an empty tail.
    Checkpointer(new_wal, relations.values()).checkpoint()

    # Replay rebuilt every relation from scratch, so every EpochPin and
    # derived value (query cache, join index, interval tables) must
    # treat any pre-crash snapshot as stale.  The rebuilt modification count could
    # coincidentally equal a pre-crash value (replay compresses the
    # mutation history); one extra bump past the replayed count makes
    # the recovered epoch unambiguous.
    for rel in relations.values():
        rel.bump_epoch()

    if plan is not None:
        plan.mark_crash_recovered()
    return relations, report
