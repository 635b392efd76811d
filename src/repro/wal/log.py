"""The write-ahead log: LSN-stamped, CRC32-framed records on disk.

ARIES-lite for the simulated storage stack.  Every mutation of a durable
relation appends one *frame* -- ``{lsn, kind, payload, crc}`` -- to a
dedicated log region: pages allocated on the **same** ``SimulatedDisk``
as the data, but written *through* (bypassing the buffer pool), so a log
record is durable the moment :meth:`WriteAheadLog.append` returns under
the default ``sync="always"`` policy.  Each physical log write is
charged as one ``log_write`` on the :class:`~repro.storage.costs.CostMeter`
-- the durability surcharge the cost model surfaces on U_I..U_III.

The log's own metadata (the chain of log pages, the latest checkpoint,
registered relation schemas) lives in a pair of alternating **anchor
pages** -- the classic dual-superblock trick: an anchor update that lands
torn at a crash leaves the *previous* anchor intact, so recovery can
always find a consistent view.

Frame integrity is end-to-end: the CRC covers ``(lsn, kind, payload)``,
so a torn tail -- a frame only partially persisted at the crash point --
is detected by :func:`repro.wal.recovery.recover` and truncated, never
replayed.
"""

from __future__ import annotations

import zlib
from enum import Enum
from typing import Any, Sequence

from repro.errors import TransientStorageError, WALError
from repro.storage.costs import CostMeter
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page
from repro.storage.record import RecordId

#: Declared bytes per log frame: with the Table 3 page size (2000) one
#: log page holds 20 frames -- the ``group`` sync policy's amortization.
LOG_RECORD_SIZE = 100

#: Declared bytes per checkpoint snapshot chunk.
CHECKPOINT_CHUNK_SIZE = 1500

#: Bounded retries for the WAL's own physical writes (transient faults).
WAL_WRITE_RETRIES = 5


class LogRecordKind(str, Enum):
    """What a log frame describes."""

    INSERT = "insert"
    DELETE = "delete"
    RECLUSTER = "recluster"
    ATTACH_INDEX = "attach-index"
    CHECKPOINT = "checkpoint"


def frame_crc(lsn: int, kind: str, payload: Any) -> int:
    """CRC32 over the frame content (everything but the crc itself)."""
    raw = repr((lsn, kind, payload)).encode("utf-8", errors="replace")
    return zlib.crc32(raw)


def make_frame(lsn: int, kind: str, payload: dict) -> dict:
    return {
        "lsn": lsn,
        "kind": kind,
        "payload": payload,
        "crc": frame_crc(lsn, kind, payload),
    }


def frame_is_valid(obj: Any) -> bool:
    """True iff ``obj`` is a wholly persisted, untampered log frame."""
    if not isinstance(obj, dict):
        return False
    try:
        lsn, kind, payload, crc = obj["lsn"], obj["kind"], obj["payload"], obj["crc"]
    except KeyError:
        return False
    if not isinstance(lsn, int):
        return False
    return crc == frame_crc(lsn, kind, payload)


def anchor_crc(version: int, log_pages: list, checkpoint: Any, relations: Any) -> int:
    raw = repr((version, log_pages, checkpoint, relations)).encode(
        "utf-8", errors="replace"
    )
    return zlib.crc32(raw)


def encode_tid(tid: RecordId) -> list[int]:
    return [tid.page_id, tid.slot]


def decode_tid(data: Sequence[int]) -> RecordId:
    return RecordId(int(data[0]), int(data[1]))


def encode_row(schema: Any, values: Sequence[Any]) -> list:
    """JSON-safe row encoding, reusing the persistence geometry codec."""
    from repro.persistence import geometry_to_dict  # lazy: avoids cycle

    return [
        geometry_to_dict(v) if col.type.is_spatial else v
        for col, v in zip(schema.columns, values)
    ]


def decode_row(schema: Any, row: Sequence[Any]) -> list:
    """Inverse of :func:`encode_row`."""
    from repro.persistence import geometry_from_dict  # lazy: avoids cycle

    return [
        geometry_from_dict(v) if col.type.is_spatial else v
        for col, v in zip(schema.columns, row)
    ]


class WriteAheadLog:
    """An append-only, CRC-framed log region on a simulated disk.

    ``sync`` policies:

    * ``"always"`` (default): every append physically writes the tail log
      page before returning -- one ``log_write`` per mutation, the
      no-surprises policy the crash-anywhere property assumes;
    * ``"group"``: frames buffer in the tail page and reach the disk when
      the page fills or :meth:`sync` is called -- amortized to
      ``1/frames_per_page`` writes per mutation, at the price that a
      crash loses the unsynced tail (still a clean *prefix*: the WAL rule
      keeps data pages from overtaking the log).

    ``durable_lsn`` is the watermark the buffer pool enforces the WAL
    rule against: no dirty data page with ``page_lsn > durable_lsn`` may
    be physically written.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        meter: CostMeter | None = None,
        *,
        sync: str = "always",
        start_lsn: int = 1,
    ) -> None:
        if sync not in ("always", "group"):
            raise WALError(f"unknown sync policy {sync!r}")
        if start_lsn < 1:
            raise WALError(f"start_lsn must be >= 1, got {start_lsn}")
        self.disk = disk
        self.meter = meter if meter is not None else CostMeter()
        self.sync_policy = sync
        self._next_lsn = start_lsn
        self.last_lsn = start_lsn - 1
        self.durable_lsn = start_lsn - 1
        self._log_pages: list[int] = []
        self._tail: Page | None = None
        self._checkpoint_meta: dict | None = None
        self._relation_meta: dict[str, dict] = {}
        self.records_since_checkpoint = 0
        # Dual anchors: updates alternate between the two pages, so a
        # torn anchor write can never destroy the only copy.
        self._anchors = [disk.allocate_page(), disk.allocate_page()]
        self._anchor_version = 0
        self._write_anchor()

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append(self, kind: LogRecordKind, payload: dict) -> int:
        """Frame, stamp and store one record; returns its LSN.

        Under ``sync="always"`` the record is durable on return.
        """
        lsn = self._next_lsn
        tail = self._tail
        if tail is None or not tail.has_room_for(LOG_RECORD_SIZE):
            # Seal the old tail (making its frames durable first keeps
            # durability in LSN order), then chain a fresh log page and
            # publish it in the anchor before any frame lands on it.
            if tail is not None:
                self._flush_tail()
            tail = self.disk.allocate_page()
            self._tail = tail
            self._log_pages.append(tail.page_id)
            self._write_anchor()
        tail.insert(make_frame(lsn, kind.value, payload), LOG_RECORD_SIZE)
        self._next_lsn += 1
        self.last_lsn = lsn
        if kind is not LogRecordKind.CHECKPOINT:
            self.records_since_checkpoint += 1
        if self.sync_policy == "always":
            self._flush_tail()
        return lsn

    def sync(self) -> None:
        """Force every appended frame to disk (group-commit flush)."""
        if self._tail is not None and self.durable_lsn < self.last_lsn:
            self._flush_tail()

    # ------------------------------------------------------------------
    # Typed record constructors (what Relation mutations call)
    # ------------------------------------------------------------------

    def log_insert(self, relation: str, tid: RecordId, schema: Any,
                   values: Sequence[Any]) -> int:
        return self.append(
            LogRecordKind.INSERT,
            {"relation": relation, "tid": encode_tid(tid),
             "row": encode_row(schema, values)},
        )

    def log_delete(self, relation: str, tid: RecordId) -> int:
        return self.append(
            LogRecordKind.DELETE,
            {"relation": relation, "tid": encode_tid(tid)},
        )

    def log_recluster(
        self,
        relation: str,
        order: Sequence[RecordId],
        new_rids: Sequence[RecordId],
    ) -> int:
        """One atomic commit record for a whole recluster.

        Carries the old RIDs in clustering order *and* the new RIDs they
        became, so recovery can both replay the operation and keep
        translating later records that reference post-recluster ids.
        """
        return self.append(
            LogRecordKind.RECLUSTER,
            {
                "relation": relation,
                "order": [encode_tid(r) for r in order],
                "new_rids": [encode_tid(r) for r in new_rids],
            },
        )

    def log_attach_index(self, relation: str, column: str, index_type: str) -> int:
        return self.append(
            LogRecordKind.ATTACH_INDEX,
            {"relation": relation, "column": column, "index_type": index_type},
        )

    # ------------------------------------------------------------------
    # Relation registry (durable schema metadata)
    # ------------------------------------------------------------------

    def register_relation(self, relation: Any) -> None:
        """Record a relation's static metadata durably in the anchor.

        Recovery needs the schema even when the crash predates the first
        checkpoint; registering is itself a durable (anchor) write.
        """
        self._relation_meta[relation.name] = {
            "columns": [
                {"name": c.name, "type": c.type.value}
                for c in relation.schema.columns
            ],
            "record_size": relation.record_size,
            "utilization": relation.utilization,
        }
        self._write_anchor()

    # ------------------------------------------------------------------
    # Checkpoint support (driven by Checkpointer)
    # ------------------------------------------------------------------

    def write_checkpoint_pages(self, text: str) -> list[int]:
        """Persist a serialized snapshot into fresh chunk pages.

        Each page is written through immediately and charged as one
        ``checkpoint_page`` on the meter.
        """
        page_ids: list[int] = []
        chunk_size = min(CHECKPOINT_CHUNK_SIZE, self.disk.page_size)
        for start in range(0, max(len(text), 1), chunk_size):
            chunk = text[start:start + chunk_size]
            page = self.disk.allocate_page()
            page.insert(chunk, min(len(chunk) or 1, page.capacity))
            self._write_page(page)
            self.meter.record_checkpoint_page()
            page_ids.append(page.page_id)
        return page_ids

    def install_checkpoint(self, lsn: int, page_ids: list[int], crc: int) -> None:
        """Publish a completed checkpoint and truncate replayed log.

        The checkpoint record (at ``lsn``) lives in the current tail
        page; every *earlier* log page is dropped from the chain -- its
        records are fused into the snapshot and will be skipped, not
        replayed.
        """
        self._checkpoint_meta = {"lsn": lsn, "pages": list(page_ids), "crc": crc}
        if self._tail is not None:
            self._log_pages = [self._tail.page_id]
        else:  # pragma: no cover - checkpoint always appends a record first
            self._log_pages = []
        self.records_since_checkpoint = 0
        self._write_anchor()

    @property
    def checkpoint_meta(self) -> dict | None:
        return dict(self._checkpoint_meta) if self._checkpoint_meta else None

    @property
    def log_page_ids(self) -> tuple[int, ...]:
        return tuple(self._log_pages)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _flush_tail(self) -> None:
        if self._tail is None:  # pragma: no cover - guarded by callers
            return
        self._write_page(self._tail)
        self.meter.record_log_write()
        self.durable_lsn = self.last_lsn

    def _write_anchor(self) -> None:
        self._anchor_version += 1
        version = self._anchor_version
        log_pages = list(self._log_pages)
        checkpoint = dict(self._checkpoint_meta) if self._checkpoint_meta else None
        relations = {k: dict(v) for k, v in self._relation_meta.items()}
        payload = {
            "wal-anchor": True,
            "version": version,
            "log_pages": log_pages,
            "checkpoint": checkpoint,
            "relations": relations,
            "crc": anchor_crc(version, log_pages, checkpoint, relations),
        }
        target = self._anchors[version % 2]
        target.slots = [payload]
        target.slot_sizes = [LOG_RECORD_SIZE]
        target.used_bytes = LOG_RECORD_SIZE
        self._write_page(target)
        self.meter.record_log_write()

    def _write_page(self, page: Page) -> None:
        """Write through with bounded retry on transient faults.

        Crash and permanent errors propagate -- a WAL cannot outlive its
        device.
        """
        backoff = 1
        for attempt in range(WAL_WRITE_RETRIES + 1):
            try:
                self.disk.write_page(page)
                return
            except TransientStorageError:
                if attempt == WAL_WRITE_RETRIES:
                    raise
                self.meter.record_retry(backoff)
                backoff *= 2
