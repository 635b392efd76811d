"""Sweeping a partitioned join's tiles, in this process.

``run_partitions`` sweeps the tiles a group at a time
(:func:`~repro.parallel.plane_sweep.task_groups`) on one
:class:`CostMeter` and returns the result pairs in sorted order: the
sweeps' row numbers are ordered by the rows' integer ids and answered
with the columns' own ``tids``, so a join builds no :class:`RecordId`
(:func:`sorted_pairs`).  Tiles
are a batching scheme -- they bound how far a forward scan runs, and a
group's arrays stay block-sized and die with the group -- neither a
unit of dispatch (a numpy call per tile costs more than the tile's
arithmetic) nor one of process parallelism: shipping a tile's geometry
to a worker that has nothing resident costs more than sweeping it
(measured: two pool workers ran at 0.10x of one).
Process-parallel joins are the standing shard fleet's
(:mod:`repro.shard`), where every shard's rows are already resident and
a crashed worker is restarted from its write-ahead log.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.errors import JoinError
from repro.parallel.partitioner import GridSpec, PartitionTask
from repro.parallel.plane_sweep import sweep_task, task_groups
from repro.predicates.theta import ThetaOperator
from repro.storage.costs import CostMeter
from repro.storage.record import RecordId


@dataclass(slots=True)
class PoolReport:
    """How the partition run executed: ``requested_workers`` is what the
    caller asked for (it sized the grid), ``effective_workers`` how many
    processes swept tiles -- this one."""

    requested_workers: int
    effective_workers: int = 1


def _pair_order(ids_r, ids_s):
    """The order that sorts pairs of ``(k, 2)`` id rows ``page_id,
    slot`` as their :class:`RecordId` pairs sort.  Each side is packed
    into one int64, ``page_id * 2**32 + slot + 2**31``: exact, and
    ordered as the two signed 32-bit ints are."""
    import numpy as np

    def packed(ids):
        ids = ids.astype(np.int64)
        return (ids[:, 0] << 32) + (ids[:, 1] + (1 << 31))

    return np.lexsort((packed(ids_s), packed(ids_r)))


def record_pairs(rows: list) -> list[tuple[RecordId, RecordId]]:
    """The shard workers' join replies -- id rows ``page_r, slot_r,
    page_s, slot_s``, one array per shard -- as ``(tid_r, tid_s)`` pairs
    in sorted order (the shard router's result).

    Sorting happens on the integer rows, so :class:`RecordId` objects
    are built for the result only and never compared.
    """
    import numpy as np

    if not rows:
        return []
    rows = np.concatenate(rows)
    rows = rows[_pair_order(rows[:, :2], rows[:, 2:])]
    page_r, slot_r, page_s, slot_s = rows.T.tolist()
    return list(zip(map(RecordId, page_r, slot_r), map(RecordId, page_s, slot_s)))


def sorted_pairs(columns_r, columns_s, rows: list) -> list[tuple[RecordId, RecordId]]:
    """Row-number pairs into ``columns_r`` and ``columns_s`` (see
    :func:`sweep_task`), one array per sweep, as ``(tid_r, tid_s)``
    pairs in sorted order.

    The order comes from the rows' integer ids and the pairs are the
    columns' own ``tids``: no :class:`RecordId` is built or compared.
    """
    import numpy as np

    rows = np.concatenate(rows)
    ids_r, ids_s = columns_r.id_array()[rows[:, 0]], columns_s.id_array()[rows[:, 1]]
    i, j = rows[_pair_order(ids_r, ids_s)].T.tolist()
    return list(zip(map(columns_r.tids.__getitem__, i), map(columns_s.tids.__getitem__, j)))


def run_partitions(
    tasks: Sequence[PartitionTask],
    grid: GridSpec,
    theta: ThetaOperator,
    *,
    workers: int = 1,
    metrics=None,
    cancel=None,
    refiner=None,
) -> tuple[list[tuple[RecordId, RecordId]], CostMeter, PoolReport]:
    """Sweep all tiles; returns ``(sorted pairs, meter, report)``.

    ``workers`` is reported back and otherwise unused: the caller sized
    the grid with it, and every tile is swept here whatever its value.

    ``tasks`` are one scatter's: they share their two ``Columns``.
    ``cancel`` (a
    :class:`~repro.core.cancel.CancellationToken`) is checked before
    every group of tiles, so a deadline stops a many-tile sweep at the
    next group boundary: a group walks at most
    :data:`~repro.parallel.plane_sweep.BLOCK` candidates between checks
    (a tile that alone can hold more is a group of one).  A cancelled
    sweep raises and returns no pairs.  ``refiner`` (an
    :class:`~repro.intermediate.filter.IntervalFilter`, or ``None`` for
    exact refinement) resolves every tile's owned candidates.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) receives
    one observation per join: the sweep's wall duration
    (``parallel.chunk_seconds``) and its tile count
    (``parallel.chunk_tiles``).
    """
    from repro.core.cancel import check_cancel

    if workers < 1:
        raise JoinError(f"workers must be positive, got {workers}")
    meter = CostMeter()
    started = time.perf_counter()
    rows = []
    for group in task_groups(tasks):
        check_cancel(cancel)
        rows.append(sweep_task(grid, group, theta, meter, refiner))
    if metrics is not None:
        from repro.obs.metrics import DURATION_BUCKETS  # lazy: optional layer

        metrics.histogram(
            "parallel.chunk_seconds", buckets=DURATION_BUCKETS
        ).observe(time.perf_counter() - started)
        metrics.histogram("parallel.chunk_tiles").observe(len(tasks))
    pairs = sorted_pairs(tasks[0].r, tasks[0].s, rows) if rows else []
    return pairs, meter, PoolReport(requested_workers=workers)
