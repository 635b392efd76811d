"""Worker pool for the partition-parallel join, with failure recovery.

``run_partitions`` executes the per-tile plane sweeps either sequentially
in-process (``workers=1`` -- the deterministic path unit tests rely on)
or on a :mod:`multiprocessing` pool.  Each worker runs its share of the
tiles with a *private* :class:`CostMeter`; the caller merges the meters
with :meth:`CostMeter.merge` so the final stats are one combined snapshot
regardless of how the work was spread.

Tiles are assigned to workers by greedy load balancing (largest tile
first, onto the least-loaded worker) -- uniform grids over skewed data
produce very uneven tiles, and a round-robin split would leave most
workers idle behind the densest tile.

Failure handling is explicit, never silent:

* environments without working process support (sandboxes may refuse to
  create semaphores or fork) degrade to the sequential path and report
  the *cause* in the returned :class:`PoolReport`;
* each chunk is collected with an optional timeout; a chunk whose worker
  crashed (e.g. an injected :class:`WorkerError`) or timed out is
  re-executed sequentially in the parent -- a crashed machine does not
  poison the data, so the re-run omits the crash injection -- and the
  recovery is recorded per chunk;
* pool shutdown always runs in a ``finally`` and always joins:
  the pool is ``close()``-d when every dispatched chunk was collected
  (workers drain cleanly and release their IPC resources) and
  ``terminate()``-d only when a chunk is still running past its timeout
  -- the one case where waiting could block forever.  Either way no
  worker process outlives the call.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import JoinError, WorkerError
from repro.parallel.partitioner import GridSpec, PartitionTask
from repro.parallel.plane_sweep import sweep_task
from repro.predicates.theta import ThetaOperator
from repro.storage.costs import CostMeter
from repro.storage.record import RecordId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.faults.plan import FaultPlan


@dataclass(slots=True)
class ChunkRecovery:
    """One worker chunk that failed and was re-executed sequentially."""

    chunk: int
    tiles: int
    cause: str
    recovered: bool = True


@dataclass(slots=True)
class PoolReport:
    """How the partition run actually executed.

    ``degrade_reason`` is set when the process pool could not be used at
    all (and why); ``recoveries`` lists every chunk whose worker crashed
    or timed out and had to be re-run in the parent.
    """

    requested_workers: int
    effective_workers: int
    degrade_reason: str | None = None
    recoveries: list[ChunkRecovery] = field(default_factory=list)

    @property
    def retried_chunks(self) -> int:
        return len(self.recoveries)

    @property
    def degraded(self) -> bool:
        return self.degrade_reason is not None


def _run_chunk(
    tasks: Sequence[PartitionTask],
    grid: GridSpec,
    theta: ThetaOperator,
    fault_plan: "FaultPlan | None" = None,
    chunk_index: int = 0,
    refiner=None,
) -> tuple[Any, CostMeter]:
    """One worker's share: sweep every assigned tile on a private meter.

    Returns the tiles' result rows (see :func:`sweep_task`) as one integer
    array -- which is also what a worker process ships home.

    ``refiner`` (an :class:`~repro.intermediate.filter.IntervalFilter`,
    or ``None`` for exact refinement) is pickled along with the tasks on
    the process-pool path -- workers probe their own copy of the
    approximation memo, and the interval counters ride home on the
    private meter like every other counter.
    """
    import numpy as np

    if fault_plan is not None and fault_plan.should_crash_chunk(chunk_index):
        raise WorkerError(f"injected crash of worker chunk {chunk_index}")
    meter = CostMeter()
    rows = [sweep_task(grid, task, theta, meter, refiner) for task in tasks]
    return np.concatenate(rows), meter


def _record_pairs(chunk_rows: list) -> list[tuple[RecordId, RecordId]]:
    """The chunks' result rows as ``(tid_r, tid_s)`` pairs in sorted order.

    Sorting happens on the integer rows, so :class:`RecordId` objects
    are built for the result only and never compared.
    """
    import numpy as np

    if not chunk_rows:
        return []
    rows = np.concatenate(chunk_rows)
    page_r, slot_r, page_s, slot_s = rows[np.lexsort(rows.T[::-1])].T.tolist()
    return list(zip(map(RecordId, page_r, slot_r), map(RecordId, page_s, slot_s)))


def balance_tasks(
    tasks: Sequence[PartitionTask], workers: int
) -> list[list[PartitionTask]]:
    """Greedy longest-processing-time split of tiles into worker chunks."""
    if workers < 1:
        raise JoinError(f"workers must be positive, got {workers}")
    chunks: list[list[PartitionTask]] = [[] for _ in range(workers)]
    loads = [0] * workers
    for task in sorted(tasks, key=lambda t: t.load, reverse=True):
        w = loads.index(min(loads))
        chunks[w].append(task)
        loads[w] += task.load
    return [c for c in chunks if c]


def _run_chunks_sequentially(
    chunks: list[list[PartitionTask]],
    grid: GridSpec,
    theta: ThetaOperator,
    fault_plan: "FaultPlan | None",
    report: PoolReport,
    metrics=None,
    cancel=None,
    refiner=None,
) -> list[tuple[Any, CostMeter]]:
    """Run every chunk in-process, recovering injected crashes per chunk."""
    from repro.core.cancel import check_cancel

    results = []
    for i, chunk in enumerate(chunks):
        check_cancel(cancel)
        started = time.perf_counter()
        try:
            results.append(_run_chunk(chunk, grid, theta, fault_plan, i, refiner))
        except WorkerError as exc:
            # A deadline may have expired while the crashed attempt ran;
            # recovery is new work, so it honours the token too -- an
            # expired query must not finish the recovery pass.
            check_cancel(cancel)
            results.append(_run_chunk(chunk, grid, theta, refiner=refiner))
            report.recoveries.append(
                ChunkRecovery(chunk=i, tiles=len(chunk), cause=repr(exc))
            )
            if fault_plan is not None:
                fault_plan.note_worker_crash(i, recovered=True)
        if metrics is not None:
            _observe_chunk(metrics, time.perf_counter() - started, len(chunk))
    return results


def _observe_chunk(metrics, seconds: float, tiles: int) -> None:
    from repro.obs.metrics import DURATION_BUCKETS  # lazy: optional layer

    metrics.histogram("parallel.chunk_seconds", buckets=DURATION_BUCKETS).observe(seconds)
    metrics.histogram("parallel.chunk_tiles").observe(tiles)


def run_partitions(
    tasks: Sequence[PartitionTask],
    grid: GridSpec,
    theta: ThetaOperator,
    *,
    workers: int = 1,
    fault_plan: "FaultPlan | None" = None,
    chunk_timeout: float | None = None,
    metrics=None,
    cancel=None,
    refiner=None,
) -> tuple[list[tuple[RecordId, RecordId]], CostMeter, PoolReport]:
    """Sweep all tiles; returns ``(pairs, merged_meter, report)``.

    ``report.effective_workers`` is 1 when the sequential path ran
    (either requested, or because the platform refused to start
    processes -- in which case ``report.degrade_reason`` says why).
    ``chunk_timeout`` bounds each worker chunk in wall-clock seconds;
    a chunk that exceeds it is re-executed sequentially.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) receives
    per-chunk wall durations and tile counts, plus a recovery counter --
    the partition-level timing breakdown that makes a parallel join's
    imbalance visible.  On the process-pool path a chunk's duration is
    measured from dispatch to collection, so concurrent chunks overlap.

    ``cancel`` (a :class:`~repro.core.cancel.CancellationToken`) is the
    per-chunk cooperative cancellation boundary: the sequential path
    checks it before every chunk (a many-tile partition join can be
    stopped mid-sweep), the process-pool path before dispatch and
    between chunk collections.  A chunk already running in a worker
    process finishes (or times out) before the cancellation surfaces --
    cancellation is cooperative, never pre-emptive.
    """
    from repro.core.cancel import check_cancel

    if workers < 1:
        raise JoinError(f"workers must be positive, got {workers}")
    if workers == 1 or len(tasks) <= 1:
        report = PoolReport(requested_workers=workers, effective_workers=1)
        chunk = list(tasks)
        reports = _run_chunks_sequentially([chunk] if chunk else [], grid, theta,
                                           fault_plan, report, metrics, cancel,
                                           refiner)
        return _finish(reports, metrics, report)

    check_cancel(cancel)
    chunks = balance_tasks(tasks, workers)
    report = PoolReport(requested_workers=workers, effective_workers=len(chunks))
    try:
        mp_pool = multiprocessing.get_context().Pool(processes=len(chunks))
    except (OSError, PermissionError, ValueError, ImportError) as exc:
        # No usable process support here: run the chunks in-process, still
        # on private meters, so results and accounting are identical --
        # and say so, instead of silently pretending parallelism.
        report.effective_workers = 1
        report.degrade_reason = f"{type(exc).__name__}: {exc}"
        reports = _run_chunks_sequentially(chunks, grid, theta, fault_plan,
                                           report, metrics, cancel, refiner)
        return _finish(reports, metrics, report)

    results: list[tuple[Any, CostMeter] | None] = []
    causes: list[str | None] = []
    outstanding = 0
    try:
        dispatched = time.perf_counter()
        handles = [
            mp_pool.apply_async(
                _run_chunk,
                ([t.detached() for t in chunk], grid, theta, fault_plan, i, refiner),
            )
            for i, chunk in enumerate(chunks)
        ]
        outstanding = len(handles)
        for i, handle in enumerate(handles):
            # A cancel here leaves ``outstanding`` > 0, so the finally
            # terminates (not drains) the pool -- no orphaned workers.
            check_cancel(cancel)
            try:
                results.append(handle.get(timeout=chunk_timeout))
                causes.append(None)
                outstanding -= 1
                if metrics is not None:
                    _observe_chunk(metrics, time.perf_counter() - dispatched,
                                   len(chunks[i]))
            except multiprocessing.TimeoutError:
                results.append(None)
                causes.append(f"timeout after {chunk_timeout}s")
            except Exception as exc:  # worker crashed: recover below
                results.append(None)
                causes.append(repr(exc))
                outstanding -= 1
    finally:
        # A timed-out chunk is still *running* in its worker: close()
        # would block join() behind it indefinitely, so those runs are
        # terminated.  Every other exit -- clean collection, worker
        # exceptions (the worker itself is idle again), or an error in
        # this parent loop before dispatch completed -- closes the pool
        # and joins it, letting workers drain and release their
        # semaphores/pipes instead of being killed mid-cleanup (which
        # leaks them and trips multiprocessing's atexit warnings).
        if outstanding:
            mp_pool.terminate()
        else:
            mp_pool.close()
        mp_pool.join()

    for i, (chunk, outcome, cause) in enumerate(zip(chunks, results, causes)):
        if outcome is not None:
            continue
        check_cancel(cancel)
        started = time.perf_counter()
        results[i] = _run_chunk(chunk, grid, theta, refiner=refiner)
        report.recoveries.append(
            ChunkRecovery(chunk=i, tiles=len(chunk), cause=cause or "unknown")
        )
        if metrics is not None:
            _observe_chunk(metrics, time.perf_counter() - started, len(chunk))
        if fault_plan is not None:
            fault_plan.note_worker_crash(i, recovered=True)

    return _finish([r for r in results if r is not None], metrics, report)


def _finish(completed, metrics, report: PoolReport):
    """``run_partitions``' return value from the completed chunks."""
    if metrics is not None and report.recoveries:
        metrics.counter("parallel.chunk_recoveries").inc(len(report.recoveries))
    pairs = _record_pairs([rows for rows, _ in completed])
    return pairs, CostMeter.merge([m for _, m in completed]), report
