"""Uniform grid partitioning with the reference-point rule.

The partition join (after Tsitsigkos & Mamoulis et al., *Parallel
In-Memory Evaluation of Spatial Joins*, 2019) tiles the universe with a
uniform grid and replicates every MBR into each tile it intersects.  The
tiles are then independent join problems, swept one at a time.

Replication would normally produce duplicate result pairs (one per tile
two objects share).  The *reference-point rule* removes them without any
post-hoc dedup pass: the reference point of a candidate pair is the
bottom-left corner of the intersection of the two MBRs, and the pair is
reported only by the tile that owns that point.  Ownership is half-open
(a point on an interior tile seam belongs to the tile on its upper-right)
so exactly one tile owns any reference point, and since the reference
point lies inside both MBRs, the owning tile received both entries.

The scatter runs on flat MBR arrays (:mod:`repro.relational.columns`):
cell ranges, replication and the sort by cell then ``xmin`` are numpy
operations over whole relations, and a tile is a slice of the sorted
arrays.  numpy is imported inside the functions that compute with it,
so importing this package costs a process that never joins nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.errors import JoinError
from repro.geometry.rect import Rect
from repro.relational.columns import Columns
from repro.storage.record import RecordId

#: One index entry in object form: ``(tid, mbr, geometry)``, which
#: :func:`partition_pair` still accepts (see :func:`as_columns`).
Entry = tuple[RecordId, Rect, Any]


@dataclass(frozen=True, slots=True)
class GridSpec:
    """A uniform ``nx`` x ``ny`` tiling of a positive-area universe."""

    universe: Rect
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1:
            raise JoinError(f"grid must have at least one cell, got {self.nx}x{self.ny}")
        if self.universe.width <= 0 or self.universe.height <= 0:
            raise JoinError(
                f"grid universe must have positive area, got {self.universe}"
            )

    @property
    def cell_width(self) -> float:
        return self.universe.width / self.nx

    @property
    def cell_height(self) -> float:
        return self.universe.height / self.ny

    @property
    def num_cells(self) -> int:
        return self.nx * self.ny

    def cell_rect(self, ix: int, iy: int) -> Rect:
        u = self.universe
        cw, ch = self.cell_width, self.cell_height
        return Rect(u.xmin + ix * cw, u.ymin + iy * ch,
                    u.xmin + (ix + 1) * cw, u.ymin + (iy + 1) * ch)

    def owner_cell(self, x: float, y: float) -> tuple[int, int]:
        """The unique cell owning point ``(x, y)`` (half-open tiling).

        Points outside the universe clamp to the border cells, so every
        reference point has an owner even when geometries protrude.
        """
        ix = min(self.nx - 1, max(0, int((x - self.universe.xmin) / self.cell_width)))
        iy = min(self.ny - 1, max(0, int((y - self.universe.ymin) / self.cell_height)))
        return ix, iy

    def owner_cells(self, xs, ys):
        """:meth:`owner_cell` of many points: two int64 arrays ``ix, iy``."""
        import numpy as np

        def along(values, low, step, n):
            q = values - low
            q /= step
            return np.clip(q, 0, n - 1, out=q).astype(np.int64)

        u = self.universe
        return (
            along(xs, u.xmin, self.cell_width, self.nx),
            along(ys, u.ymin, self.cell_height, self.ny),
        )

    def owners(self, xs, ys):
        """The owning tile ``ix * ny + iy`` of many points -- the one
        question a sweep asks its keyspace (see
        :func:`~repro.parallel.plane_sweep.sweep_task`)."""
        ix, iy = self.owner_cells(xs, ys)
        return ix * self.ny + iy

    def covering_cells(self, mbr: Rect) -> Iterator[tuple[int, int]]:
        """All cells whose closed rectangle intersects ``mbr``.

        Closed-set semantics: an MBR touching a tile seam is replicated to
        both neighbouring tiles, so the owner of any reference point on
        the seam is guaranteed to hold both entries of the pair.
        """
        ix0, iy0 = self.owner_cell(mbr.xmin, mbr.ymin)
        ix1, iy1 = self.owner_cell(mbr.xmax, mbr.ymax)
        for iy in range(iy0, iy1 + 1):
            for ix in range(ix0, ix1 + 1):
                yield ix, iy

    @classmethod
    def for_workload(cls, universe: Rect, n_entries: int, workers: int = 1,
                     target_per_cell: int = 128) -> "GridSpec":
        """A square grid sized to the workload.

        Aims for ~``target_per_cell`` entries per tile so the per-tile
        sweeps stay cache-friendly, with at least enough tiles to keep
        ``workers`` busy; degenerate universes are padded to unit extent.
        """
        by_load = math.isqrt(max(0, n_entries) // max(1, target_per_cell))
        by_workers = math.isqrt(4 * max(1, workers) - 1) + 1
        n = min(128, max(1, by_load, by_workers))
        return cls(universe.with_positive_extent(), n, n)


@dataclass(slots=True)
class PartitionTask:
    """One partition's independent join problem, as array slices.

    ``key`` is the partition's id in its keyspace: tile ``ix * ny + iy``
    of a :class:`GridSpec`, or the shard id of a
    :class:`~repro.shard.keyspace.ShardMap`.  ``rows_r`` / ``rows_s`` are
    integer arrays of row numbers into the two relations'
    :class:`Columns` ``r`` / ``s``, sorted by ``xmin`` (the sweep relies
    on that order).  Tasks of one scatter share the columns and own only
    their slice of the sorted row numbers; the sweep gathers a tile's
    boxes when it gets there.
    """

    key: int
    r: Columns
    rows_r: Any
    s: Columns
    rows_s: Any

    @property
    def load(self) -> int:
        """Entries replicated into this partition, both sides."""
        return len(self.rows_r) + len(self.rows_s)


def reference_point(mbr_a: Rect, mbr_b: Rect) -> tuple[float, float]:
    """Bottom-left corner of the intersection of two intersecting MBRs."""
    return max(mbr_a.xmin, mbr_b.xmin), max(mbr_a.ymin, mbr_b.ymin)


def as_columns(entries: Columns | Iterable[Entry]) -> Columns:
    """``entries`` in columnar form: passed through when they already
    are, else built from ``(tid, mbr, geometry)`` triples."""
    if isinstance(entries, Columns):
        return entries
    columns = Columns()
    for entry in entries:
        columns.append(*entry)
    return columns


def scatter(columns: Columns, grid: GridSpec) -> dict[int, Any]:
    """Replicate rows into every grid cell their MBR intersects.

    Returns ``{ix * ny + iy: rows}`` for the non-empty cells: the row
    numbers of the cell's entries, sorted by ``xmin``.  Cell ranges come
    from :meth:`GridSpec.owner_cells` of the two MBR corners, so
    replication is :meth:`GridSpec.covering_cells` row for row.
    """
    import numpy as np

    boxes = columns.box_array()
    ix0, iy0 = grid.owner_cells(boxes[:, 0], boxes[:, 1])
    # Width and cell count of each row's range, computed in the arrays of
    # the max corner's cells (a relation-sized array is ~1 MiB per 100k
    # rows, and the pipeline's peak memory is this function's).
    width, copies = grid.owner_cells(boxes[:, 2], boxes[:, 3])
    width -= ix0
    width += 1
    copies -= iy0
    copies += 1
    copies *= width
    # Most rows sit in one cell; only the others are replicated, the k-th
    # copy of a row going to the k-th cell of its range.
    several = np.flatnonzero(copies > 1)
    rows = np.repeat(several, copies[several])
    first = np.cumsum(copies[several]) - copies[several]
    k = np.arange(len(rows)) - np.repeat(first, copies[several])
    cells = (ix0[rows] + k % width[rows]) * grid.ny + iy0[rows] + k // width[rows]
    once = np.flatnonzero(copies == 1)
    # Row and cell numbers in the narrowest unsigned type that holds them:
    # these are the arrays the sort copies around.
    rows = np.concatenate((once, rows)).astype(np.min_scalar_type(len(boxes)))
    cells = np.concatenate((ix0[once] * grid.ny + iy0[once], cells)).astype(
        np.min_scalar_type(grid.num_cells)
    )
    del ix0, iy0, width, copies, once, k

    order = np.lexsort((boxes[rows, 0], cells))
    rows, cells = rows[order], cells[order]
    distinct, starts = np.unique(cells, return_index=True)
    return dict(zip(distinct.tolist(), np.split(rows, starts[1:])))


def partition_pair(
    entries_r: Columns | Iterable[Entry],
    entries_s: Columns | Iterable[Entry],
    grid: GridSpec,
) -> list[PartitionTask]:
    """Build the per-tile join tasks for two relations' entries.

    Tiles where either side is empty produce no task -- they cannot
    contribute a pair.  Tasks come in ``(ix, iy)`` order, keyed
    ``ix * ny + iy``.
    """
    r, s = as_columns(entries_r), as_columns(entries_s)
    cells_r, cells_s = scatter(r, grid), scatter(s, grid)
    return [
        PartitionTask(cell, r, cells_r[cell], s, cells_s[cell])
        for cell in sorted(cells_r.keys() & cells_s.keys())
    ]
