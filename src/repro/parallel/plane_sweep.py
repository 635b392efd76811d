"""Forward plane sweep over one partition (grid tile or shard range).

The kernel of the partition-parallel join: both entry lists arrive sorted
by ``mbr.xmin``; a single merge pass walks the lists in x order and, for
each entry, scans forward in the *other* list while the x intervals still
overlap.  Candidates that also overlap in y are MBR matches; each is
charged one Theta-filter evaluation.  Surviving candidates pass through
the reference-point ownership test (duplicate avoidance across
partitions, free of charge -- it is bookkeeping, not a predicate) and are
then refined with the exact theta-operator, which dispatches over the
stored geometries via :mod:`repro.predicates.dispatch`.  An optional
*refiner* (see :mod:`repro.intermediate.filter`) replaces that exact
step with the raster-interval second tier: sure hits and misses are
resolved from cell intervals and only ambiguous pairs run the exact
predicate.  Without a refiner an
:class:`~repro.intermediate.filter.ExactRefiner` is constructed, which
is byte-identical to the historical behavior.

:func:`sweep_sorted` is that pass over ``(tid, mbr, geometry)`` entry
lists, with ownership an arbitrary predicate over the reference point;
the z-order range shards (:mod:`repro.shard.worker`) run it, and the
tests keep it as the reference for the grid.  :func:`sweep_task` is the
same pass over one grid tile's MBR arrays: candidate generation, the y
test and the ownership test are array operations, and only refinement
touches objects.  Both charge the same counters for the same input.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.parallel.partitioner import (
    Entry,
    GridSpec,
    PartitionTask,
    reference_point,
)
from repro.predicates.theta import ThetaOperator
from repro.storage.costs import CostMeter
from repro.storage.record import RecordId


def sweep_sorted(
    entries_r: Sequence[Entry],
    entries_s: Sequence[Entry],
    theta: ThetaOperator,
    meter: CostMeter,
    owns: Callable[[float, float], bool],
    refiner=None,
) -> list[tuple[RecordId, RecordId]]:
    """All matching (tid_r, tid_s) pairs whose reference point this
    partition ``owns``.

    ``owns(x, y)`` is the reference-point no-dedup rule: with entries
    replicated into every partition their MBR intersects and exactly one
    partition owning any point, each qualifying pair is emitted exactly
    once across the whole partitioning -- pairs owned elsewhere are
    skipped here and reported there.

    ``refiner`` resolves owned candidates (default: exact refinement;
    pass an :class:`~repro.intermediate.filter.IntervalFilter` for the
    raster second tier).
    """
    if refiner is None:
        from repro.intermediate.filter import ExactRefiner

        refiner = ExactRefiner(theta)
    pairs: list[tuple[RecordId, RecordId]] = []
    i = j = 0
    n_r, n_s = len(entries_r), len(entries_s)
    while i < n_r and j < n_s:
        r_tid, r_mbr, r_geom = entries_r[i]
        s_tid, s_mbr, s_geom = entries_s[j]
        if r_mbr.xmin <= s_mbr.xmin:
            # r opens first: pair it with every s whose x interval starts
            # before r's closes.
            k = j
            while k < n_s:
                s_tid, s_mbr, s_geom = entries_s[k]
                if s_mbr.xmin > r_mbr.xmax:
                    break
                k += 1
                meter.record_filter_eval()
                if s_mbr.ymin > r_mbr.ymax or r_mbr.ymin > s_mbr.ymax:
                    continue
                if not owns(*reference_point(r_mbr, s_mbr)):
                    continue
                if refiner.matches(r_geom, s_geom, meter):
                    pairs.append((r_tid, s_tid))
            i += 1
        else:
            k = i
            while k < n_r:
                r_tid, r_mbr, r_geom = entries_r[k]
                if r_mbr.xmin > s_mbr.xmax:
                    break
                k += 1
                meter.record_filter_eval()
                if r_mbr.ymin > s_mbr.ymax or s_mbr.ymin > r_mbr.ymax:
                    continue
                if not owns(*reference_point(r_mbr, s_mbr)):
                    continue
                if refiner.matches(r_geom, s_geom, meter):
                    pairs.append((r_tid, s_tid))
            j += 1
    return pairs


def _ranges(lo, hi):
    """Index pairs ``(i, j)`` for every ``j`` in ``lo[i]:hi[i]``."""
    import numpy as np

    counts = hi - lo
    outer = np.repeat(np.arange(len(lo)), counts)
    inner = np.arange(len(outer)) - np.repeat(np.cumsum(counts) - counts - lo, counts)
    return outer, inner


def sweep_task(
    grid: GridSpec,
    task: PartitionTask,
    theta: ThetaOperator,
    meter: CostMeter,
    refiner=None,
):
    """Matching pairs owned by ``task``'s tile, as integer rows
    ``page_r, slot_r, page_s, slot_s``.

    :func:`sweep_sorted` over the tile's arrays.  The forward scan
    becomes two ``searchsorted`` ranges -- for each ``r`` the ``s`` with
    ``r.xmin <= s.xmin <= r.xmax`` (``r`` opens first; ties go to ``r``),
    for each ``s`` the ``r`` with ``s.xmin < r.xmin <= s.xmax`` -- whose
    total size is the Theta-filter evaluations the merge loop charges one
    by one.  The y test and the reference-point ownership test run on
    the candidate arrays; survivors are refined one pair at a time on
    the stored geometries, exactly as in the scalar kernel.  Candidates
    never outlive the tile.
    """
    import numpy as np

    if refiner is None:
        from repro.intermediate.filter import ExactRefiner

        refiner = ExactRefiner(theta)
    boxes_r = task.r.box_array()[task.rows_r]
    boxes_s = task.s.box_array()[task.rows_s]
    xmin_r, xmin_s = boxes_r[:, 0], boxes_s[:, 0]
    r_first, s_after = _ranges(
        np.searchsorted(xmin_s, xmin_r, "left"),
        np.searchsorted(xmin_s, boxes_r[:, 2], "right"),
    )
    s_first, r_after = _ranges(
        np.searchsorted(xmin_r, xmin_s, "right"),
        np.searchsorted(xmin_r, boxes_s[:, 2], "right"),
    )
    i = np.concatenate((r_first, r_after))
    j = np.concatenate((s_after, s_first))
    meter.record_filter_eval(len(i))

    r, s = boxes_r[i], boxes_s[j]
    cx, cy = grid.owner_cells(
        np.maximum(r[:, 0], s[:, 0]), np.maximum(r[:, 1], s[:, 1])
    )
    owned = (
        (s[:, 1] <= r[:, 3]) & (r[:, 1] <= s[:, 3])
        & (cx == task.ix) & (cy == task.iy)
    )
    i, j = task.rows_r[i[owned]], task.rows_s[j[owned]]
    geoms_r, geoms_s = task.r.geoms, task.s.geoms
    hits = [
        refiner.matches(geoms_r[a], geoms_s[b], meter)
        for a, b in zip(i.tolist(), j.tolist())
    ]
    return np.hstack((task.r.id_array()[i[hits]], task.s.id_array()[j[hits]]))
