"""Sweeping a partitioned join's tiles, in this process.

``run_partitions`` sweeps the tiles a group at a time
(:func:`~repro.parallel.plane_sweep.task_groups`) on one
:class:`CostMeter` and returns the result pairs in sorted order.  Tiles
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


def record_pairs(rows: list) -> list[tuple[RecordId, RecordId]]:
    """Result rows (see :func:`sweep_task`), one array per sweep, as
    ``(tid_r, tid_s)`` pairs in sorted order.

    Sorting happens on the integer rows, so :class:`RecordId` objects
    are built for the result only and never compared.
    """
    import numpy as np

    if not rows:
        return []
    rows = np.concatenate(rows)
    page_r, slot_r, page_s, slot_s = rows[np.lexsort(rows.T[::-1])].T.tolist()
    return list(zip(map(RecordId, page_r, slot_r), map(RecordId, page_s, slot_s)))


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
    return record_pairs(rows), meter, PoolReport(requested_workers=workers)
