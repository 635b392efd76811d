"""The scalar partition pipeline, kept as the tests' reference.

What :mod:`repro.parallel` and the shard worker ran before they moved to
arrays: replicate ``(tid, mbr, geometry)`` entries with
:meth:`GridSpec.covering_cells` (or :meth:`ShardMap.covering_shards`),
then walk each partition with :func:`sweep_sorted` -- the merge loop,
moved here verbatim from ``repro.parallel.plane_sweep`` -- under the
reference-point ownership rule.  The columnar pipeline must agree with
it pair for pair and counter for counter.
"""

from typing import Callable, Sequence

from repro.intermediate import IntervalFilter
from repro.parallel.partitioner import (
    Entry,
    GridSpec,
    as_columns,
    partition_pair,
    reference_point,
)
from repro.parallel.plane_sweep import sweep_task, task_groups
from repro.parallel.pool import record_pairs
from repro.predicates.theta import ThetaOperator
from repro.shard.keyspace import ShardMap
from repro.shard.worker import ShardWorkerState
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



def scalar_scatter(entries, grid: GridSpec) -> dict:
    """``{(ix, iy): entries}`` with each cell's entries sorted by xmin."""
    cells: dict = {}
    for entry in sorted(entries, key=lambda e: e[1].xmin):
        for cell in grid.covering_cells(entry[1]):
            cells.setdefault(cell, []).append(entry)
    return cells


def scalar_join(entries_r, entries_s, grid: GridSpec, theta, refiner=None):
    """``(sorted pairs, meter)`` of the scalar pipeline."""
    meter = CostMeter()
    cells_r = scalar_scatter(entries_r, grid)
    cells_s = scalar_scatter(entries_s, grid)
    pairs = []
    for cell in sorted(set(cells_r) & set(cells_s)):
        pairs += sweep_sorted(
            cells_r[cell], cells_s[cell], theta, meter,
            lambda x, y, cell=cell: grid.owner_cell(x, y) == cell, refiner,
        )
    return sorted(pairs), meter


def tids(ids) -> list[RecordId]:
    """An ``(k, 2)`` id array as :class:`RecordId` objects."""
    return [RecordId(page, slot) for page, slot in ids.tolist()]


def columnar_sweep(entries_r, entries_s, grid: GridSpec, theta, refiner=None):
    """``(pairs as swept, meter)`` of ``partition_pair`` + ``sweep_task``,
    a group of tiles at a time and with no sort or dedup behind it."""
    meter = CostMeter()
    pairs = []
    for group in task_groups(partition_pair(entries_r, entries_s, grid)):
        rows = sweep_task(grid, group, theta, meter, refiner)
        tids_r, tids_s = group[0].r.tids, group[0].s.tids
        pairs += ((tids_r[i], tids_s[j]) for i, j in rows.tolist())
    return pairs, meter


def _replicas(entries, shard_map: ShardMap, shard: int) -> list:
    return [e for e in entries if shard in shard_map.covering_shards(e[1])]


def scalar_shard_join(entries_r, entries_s, shard_map: ShardMap, theta, interval=None):
    """``(sorted pairs, meter)`` of the scalar pipeline over a shard
    fleet: every shard walks its x-sorted replicas with
    :func:`sweep_sorted` under ``owner_shard`` (and, given an
    ``IntervalSpec``, its own interval filter), and the results are
    concatenated -- what ``repro.shard.worker`` ran before it moved to
    arrays."""
    meter = CostMeter()
    pairs = []
    for shard in range(shard_map.n_shards):
        replicas_r, replicas_s = (
            sorted(_replicas(entries, shard_map, shard), key=lambda e: e[1].xmin)
            for entries in (entries_r, entries_s)
        )
        pairs += sweep_sorted(
            replicas_r, replicas_s, theta, meter,
            lambda x, y, shard=shard: shard_map.owner_shard(x, y) == shard,
            None if interval is None else IntervalFilter(theta, interval),
        )
    return sorted(pairs), meter


def worker_shard_join(entries_r, entries_s, shard_map: ShardMap, theta):
    """``(sorted pairs, meter)`` of the real shard workers: one
    :class:`ShardWorkerState` per shard, loaded with its replicas and
    sent the join payload the router sends."""
    meter = CostMeter()
    rows = []
    payload = {"table_r": "r", "table_s": "s", "theta": theta}
    for shard in range(shard_map.n_shards):
        state = ShardWorkerState(shard, shard_map)
        for table, entries in (("r", entries_r), ("s", entries_s)):
            state.apply("load", {
                "table": table,
                "columns": as_columns(_replicas(entries, shard_map, shard)),
            })
        reply = state.apply("join", payload)
        meter.absorb(reply["meter"])
        rows.append(reply["pairs"])
    return record_pairs(rows), meter
