"""Checkpoints: fusing the log into a snapshot, then truncating it.

A checkpoint bounds recovery work.  Without one, recovery replays the
entire history; with one, it rebuilds the snapshot and replays only the
log tail.  The snapshot is the engine's one relation image.

The commit protocol is ordered so a crash at *any* physical write leaves
a consistent view:

1. snapshot chunk pages are written through (orphans if we crash here);
2. one ``CHECKPOINT`` log record referencing them is appended durably;
3. the anchor is updated -- new (truncated) log chain + checkpoint
   pointer -- via the dual-anchor alternation, so even a torn anchor
   write falls back to the previous consistent anchor.

Only step 3 makes the checkpoint visible to recovery; until then the old
checkpoint (or none) is used and the full log tail is replayed instead.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Iterable

from repro.wal.log import LogRecordKind, WriteAheadLog, encode_tid

#: Snapshot format tag.
CHECKPOINT_FORMAT = "repro-wal-checkpoint"


def snapshot_relation(relation: Any) -> dict:
    """One relation's checkpoint image: schema and rows (spatial values
    through the :mod:`repro.persistence` geometry codec), with the
    physical identity recovery needs: the RID of every row (so replayed
    log records that reference pre-crash RIDs can be translated onto the
    rebuilt relation), the clustered flag and the indexed columns.
    """
    from repro.persistence import geometry_to_dict  # lazy: avoids cycle

    columns = [
        {"name": c.name, "type": c.type.value} for c in relation.schema.columns
    ]
    rows: list[list] = []
    rids: list[list[int]] = []
    for t in relation.scan():
        row = []
        for column, value in zip(relation.schema.columns, t.values):
            row.append(geometry_to_dict(value) if column.type.is_spatial else value)
        rows.append(row)
        rids.append(encode_tid(t.tid))
    return {
        "name": relation.name,
        "record_size": relation.record_size,
        "utilization": relation.utilization,
        "columns": columns,
        "rows": rows,
        "rids": rids,
        "clustered": relation.is_clustered,
        "indexed_columns": sorted(
            c for c in relation.schema.column_names if relation.has_index_on(c)
        ),
    }


class Checkpointer:
    """Periodic log-to-snapshot fusion for a set of durable relations.

    ``every_ops`` is the cadence: :meth:`maybe_checkpoint` fires once the
    WAL has accumulated that many data records since the last checkpoint.
    Call it after each mutation (the CLI crash demo does), or call
    :meth:`checkpoint` directly for an explicit fuse.
    """

    def __init__(
        self,
        wal: WriteAheadLog,
        relations: Iterable[Any],
        *,
        every_ops: int = 64,
    ) -> None:
        if every_ops < 1:
            raise ValueError(f"every_ops must be positive, got {every_ops}")
        self.wal = wal
        self.relations = list(relations)
        self.every_ops = every_ops
        self.checkpoints_taken = 0

    def track(self, relation: Any) -> None:
        """Include another relation in future checkpoints."""
        if all(r is not relation for r in self.relations):
            self.relations.append(relation)

    def maybe_checkpoint(self) -> int | None:
        """Checkpoint iff the cadence threshold is reached; returns LSN."""
        if self.wal.records_since_checkpoint >= self.every_ops:
            return self.checkpoint()
        return None

    def checkpoint(self) -> int:
        """Fuse log into snapshot, truncate, return the checkpoint LSN."""
        self.wal.sync()  # group mode: nothing may outrun the log
        payload = {
            "format": CHECKPOINT_FORMAT,
            "relations": {r.name: snapshot_relation(r) for r in self.relations},
        }
        text = json.dumps(payload)
        crc = zlib.crc32(text.encode("utf-8"))
        page_ids = self.wal.write_checkpoint_pages(text)
        lsn = self.wal.append(
            LogRecordKind.CHECKPOINT, {"pages": page_ids, "crc": crc}
        )
        self.wal.sync()  # the checkpoint record must be durable first
        self.wal.install_checkpoint(lsn, page_ids, crc)
        self.checkpoints_taken += 1
        return lsn
