"""The partition spatial join: grid scatter + plane sweeps over the tiles.

End-to-end driver tying the subsystem together:

1. take each relation's retained column snapshot -- MBR / record-id
   arrays, the rows' own ``RecordId`` objects and a geometry list
   (:func:`~repro.relational.columns.column_snapshot`) -- streaming a
   relation nothing has read since it last changed once through pools
   sharing the paper's ``M``-page budget, and charging one buffer hit
   per page for a relation whose snapshot is already there;
2. tile the data universe with a uniform :class:`GridSpec` and replicate
   each row into every tile its MBR intersects;
3. sweep the tiles, a group at a time, the reference-point rule
   guaranteeing each result pair is emitted by exactly one tile (no
   dedup pass anywhere); rectangle ``overlaps`` pairs are decided by the
   MBR test alone, and the sorted result is the snapshots' own ids;
4. absorb the sweep's cost meter into the caller's meter and return one
   :class:`JoinResult` with combined stats.

Applicability matches the z-order merge: the MBR-intersection filter the
sweep uses is conservative for ``overlaps`` (and operators whose filter
is MBR intersection), so the executor gates this strategy accordingly.
"""

from __future__ import annotations

from repro.errors import JoinError
from repro.geometry.rect import Rect
from repro.join.result import JoinResult
from repro.parallel.partitioner import GridSpec, partition_pair
from repro.parallel.pool import run_partitions
from repro.predicates.theta import ThetaOperator
from repro.relational.columns import Columns, column_snapshot, data_universe
from repro.relational.relation import Relation
from repro.storage.buffer import paired_pools
from repro.storage.costs import CostMeter


def _resolve_grid(
    grid: GridSpec | int | None,
    universe: Rect | None,
    columns_r: Columns,
    columns_s: Columns,
    workers: int,
) -> GridSpec:
    if isinstance(grid, GridSpec):
        return grid
    if universe is None:
        universe = data_universe(columns_r, columns_s)
    if grid is None:
        return GridSpec.for_workload(
            universe, len(columns_r) + len(columns_s), workers
        )
    return GridSpec(universe.with_positive_extent(), grid, grid)


def partition_join(
    rel_r: Relation,
    rel_s: Relation,
    column_r: str,
    column_s: str,
    theta: ThetaOperator,
    *,
    workers: int = 1,
    grid: GridSpec | int | None = None,
    universe: Rect | None = None,
    memory_pages: int = 4000,
    meter: CostMeter | None = None,
    collect_tuples: bool = False,
    tracer=None,
    metrics=None,
    cancel=None,
    refiner=None,
) -> JoinResult:
    """Partition-parallel overlap join of two relations.

    ``grid`` may be a full :class:`GridSpec`, an integer ``n`` for an
    ``n x n`` grid over the data universe, or ``None`` for a workload-fitted
    grid.  The join runs in this process, deterministically; ``workers``
    only raises the workload-fitted grid's minimum tile count.  Result
    pairs are returned in sorted order.

    ``cancel`` (a :class:`~repro.core.cancel.CancellationToken`) is
    checked between the extract/scatter/sweep phases and before every
    group of tiles of the sweep.

    ``refiner`` (see :mod:`repro.intermediate.filter`) replaces the
    exact refinement step inside every sweep; ``None`` keeps the
    historical exact path.
    """
    if workers < 1:
        raise JoinError(f"workers must be positive, got {workers}")
    if meter is None:
        meter = CostMeter()
    from repro.obs.trace import coalesce

    tracer = coalesce(tracer)

    pool_r, pool_s = paired_pools(
        rel_r.buffer_pool.disk, rel_s.buffer_pool.disk, memory_pages, meter
    )
    with tracer.span("partition.extract", meter=meter) as span:
        columns_r = column_snapshot(rel_r, column_r, pool_r)
        columns_s = column_snapshot(rel_s, column_s, pool_s)
        span.set_tag("entries_r", len(columns_r))
        span.set_tag("entries_s", len(columns_s))

    from repro.core.cancel import check_cancel

    check_cancel(cancel)
    with tracer.span("partition.scatter", meter=meter) as span:
        spec = _resolve_grid(grid, universe, columns_r, columns_s, workers)
        tasks = partition_pair(columns_r, columns_s, spec)
        span.set_tag("grid", f"{spec.nx}x{spec.ny}")
        span.set_tag("tiles", len(tasks))

    with tracer.span("partition.sweep", meter=meter, workers=workers) as span:
        pairs, sweep_meter, pool_report = run_partitions(
            tasks, spec, theta, workers=workers,
            metrics=metrics, cancel=cancel, refiner=refiner,
        )
        meter.absorb(sweep_meter)
        span.set_tag("effective_workers", pool_report.effective_workers)
        span.set_tag("pairs", len(pairs))

    result = JoinResult(strategy="partition-sweep")
    result.pairs = pairs  # run_partitions returns them sorted
    if collect_tuples:
        for r_tid, s_tid in result.pairs:
            r_record = pool_r.fetch(r_tid.page_id).get(r_tid.slot)
            s_record = pool_s.fetch(s_tid.page_id).get(s_tid.slot)
            result.tuples.append((r_record, s_record))
    result.stats = meter.snapshot()
    result.stats.update(
        grid_nx=spec.nx, grid_ny=spec.ny,
        partitions=len(tasks), workers=pool_report.effective_workers,
        requested_workers=pool_report.requested_workers,
    )
    return result
