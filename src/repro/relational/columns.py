"""One spatial column of a relation as flat arrays (the Theta side).

Every Theta-filter of Table 1 is a test on minimum bounding rectangles,
so the consumers that look at *all* of a relation's MBRs -- the
partition join's scatter and sweep, the planner's sampler, the data
universe of the z-order grid and the interval tier -- read the column
once into :class:`Columns` instead of materialising tuple lists.  The
theta side is untouched: ``geoms`` holds the stored geometry objects,
which exact refinement reads a batch of candidates at a time.

The buffers are plain :mod:`array` objects, so building and reading them
needs no third-party import; numpy views them without copying
(``numpy.frombuffer``) where a consumer wants vectorised arithmetic.
Beside them a column keeps each row's own :class:`RecordId` object
(``tids``, one pointer a row), so a join over the snapshot answers with
the ids its rows already carry and builds none, and whether every
geometry is a :class:`Rect` (``rects``): for ``overlaps`` on rectangles
the exact test is the MBR test (Table 1), so the sweep decides such
columns on the box arrays alone.

:func:`column_snapshot` is how those consumers get one: a relation's
column is extracted once per epoch and retained in the relation's
epoch-scoped memo (DESIGN.md, "Epochs and derived state"); whoever asks
first reads the pages, everyone after that reads the arrays.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any

from repro.geometry.rect import Rect
from repro.relational.relation import Relation
from repro.storage.buffer import BufferPool
from repro.storage.record import RecordId


@dataclass(slots=True)
class Columns:
    """Row ``i`` is ``boxes[4i:4i+4]`` = ``xmin, ymin, xmax, ymax``
    (doubles), ``ids[2i:2i+2]`` = ``page_id, slot`` (signed 32-bit ints:
    both are small counters, the shard runtime mints live-insert ids on
    page ``-1``, and :mod:`array` raises ``OverflowError`` rather than
    wrap), ``tids[i]`` (the :class:`RecordId` those two ints spell, the
    very object the row was stored with) and ``geoms[i]``, in file
    order."""

    boxes: array = field(default_factory=lambda: array("d"))
    ids: array = field(default_factory=lambda: array("i"))
    geoms: list[Any] = field(default_factory=list)
    #: ``None`` for a column that keeps no id objects: what the shard
    #: runtime ships to its workers, which answer with ``ids``.
    tids: list[RecordId] | None = field(default_factory=list)
    #: Every geometry is a :class:`Rect` (true of an empty column).
    #: ``append`` and ``extend`` keep it exact; ``remove`` leaves it as
    #: it was, so it may read ``False`` on a column of rectangles --
    #: never ``True`` on one that holds anything else.
    rects: bool = True
    #: Union of the rows' MBRs, set by :func:`extract_columns` (whose
    #: rows are final: a retained snapshot is read-only); ``None`` for an
    #: empty column and for one assembled row by row, like a shard
    #: worker's table -- the only kind ever appended to or removed from.
    bounds: Rect | None = None

    def __len__(self) -> int:
        return len(self.geoms)

    def append(self, tid: RecordId, mbr: Rect, geom: Any) -> None:
        self.boxes.extend((mbr.xmin, mbr.ymin, mbr.xmax, mbr.ymax))
        self.ids.extend((tid.page_id, tid.slot))
        self.geoms.append(geom)
        if self.tids is not None:
            self.tids.append(tid)
        self.rects = self.rects and type(geom) is Rect

    def extend(self, other: "Columns") -> None:
        self.boxes.extend(other.boxes)
        self.ids.extend(other.ids)
        self.geoms.extend(other.geoms)
        if self.tids is not None:
            if other.tids is None:
                self.tids = None
            else:
                self.tids.extend(other.tids)
        self.rects = self.rects and other.rects

    def remove(self, tid: RecordId) -> int:
        """Drop every row whose id is ``tid``; returns how many went."""
        ids = self.ids
        rows = [
            i for i in range(len(self))
            if ids[2 * i] == tid.page_id and ids[2 * i + 1] == tid.slot
        ]
        for i in reversed(rows):
            del self.boxes[4 * i:4 * i + 4]
            del ids[2 * i:2 * i + 2]
            del self.geoms[i]
            if self.tids is not None:
                del self.tids[i]
        return len(rows)

    def box_array(self):
        """``boxes`` as a float64 ``(n, 4)`` numpy view (no copy)."""
        import numpy as np

        return np.frombuffer(self.boxes, dtype=np.float64).reshape(-1, 4)

    def id_array(self):
        """``ids`` as a signed ``(n, 2)`` numpy view (no copy)."""
        import numpy as np

        return np.frombuffer(self.ids, dtype=np.intc).reshape(-1, 2)


def extract_columns(
    relation: Relation, column: str, pool: BufferPool | None = None
) -> Columns:
    """One sequential pass over ``relation``'s pages, fetched through
    ``pool`` (default: the relation's own, exactly as ``scan`` reads)."""
    if pool is None:
        pool = relation.buffer_pool
    columns = Columns()
    boxes, ids, geoms, tids = columns.boxes, columns.ids, columns.geoms, columns.tids
    for pid in relation.page_ids:
        page = pool.fetch(pid)
        for slot, record in enumerate(page.slots):
            if record is None:
                continue
            geom = record[column]
            mbr = geom.mbr()
            boxes.extend((mbr.xmin, mbr.ymin, mbr.xmax, mbr.ymax))
            ids.extend((pid, slot))
            geoms.append(geom)
            tids.append(record.tid)
    columns.rects = all(type(geom) is Rect for geom in geoms)
    columns.bounds = _bounds(boxes)
    return columns


def column_snapshot(
    relation: Relation, column: str, pool: BufferPool | None = None
) -> Columns:
    """``relation.column`` at the current epoch, extracted at most once
    per epoch and read-only to everyone it is handed to.

    The caller that builds it reads every page through ``pool`` (default:
    the relation's own), exactly as its own extraction would have; a
    caller that finds it built charges the ``relation.num_pages`` page
    accesses it was spared to ``pool``'s meter as buffer hits.  The
    arrays live outside the ``M``-page budget, like an attached index's
    nodes.
    """
    if pool is None:
        pool = relation.buffer_pool
    built = False

    def build() -> Columns:
        nonlocal built
        built = True
        return extract_columns(relation, column, pool)

    columns = relation.derive(("columns", column), build)
    if not built:
        pool.meter.record_hit(relation.num_pages)
    return columns


def _bounds(boxes: array) -> Rect | None:
    if not boxes:
        return None
    return Rect(min(boxes[0::4]), min(boxes[1::4]), max(boxes[2::4]), max(boxes[3::4]))


def data_universe(*columns: Columns) -> Rect:
    """Union of every MBR in ``columns``, grown to positive area; the
    unit square when there is no row at all."""
    bounds = [c.bounds or _bounds(c.boxes) for c in columns if c.boxes]
    if not bounds:
        return Rect(0.0, 0.0, 1.0, 1.0)
    return Rect.union_of(bounds).with_positive_extent()
