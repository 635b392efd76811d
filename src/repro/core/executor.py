"""The spatial query executor: one entry point, every strategy.

Strategy names follow the paper's numbering:

========== =====================================================
``scan``        strategy I (nested loop / exhaustive search)
``tree``        strategy II (Algorithm SELECT / Algorithm JOIN)
``join-index``  strategy III (precomputed Valduriez index)
``index-nl``    index-supported join (scan S, probe R's tree)
``zorder``      Orenstein sort-merge (``overlaps`` joins only)
``partition``   partition-parallel grid + plane sweep (``overlaps``)
``auto``        pick by what is available and a selectivity guess
========== =====================================================
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from typing import Any

from repro.core.cancel import CancellationToken, check_cancel
from repro.core.report import AttemptRecord, ExecutionReport
from repro.errors import ExecutionError, JoinError, StorageError
from repro.join.accessor import RelationAccessor
from repro.join.index_join import (
    index_nested_loop_join,
    index_nested_loop_join_swapped,
)
from repro.join.join_index import JoinIndex
from repro.join.nested_loop import RESERVED_PAGES, nested_loop_join, nested_loop_select
from repro.join.result import JoinResult, SelectResult
from repro.join.select import spatial_select
from repro.join.tree_join import tree_join
from repro.join.zorder_merge import zorder_merge_join
from repro.obs.trace import coalesce
from repro.parallel.join import partition_join
from repro.predicates.dispatch import SpatialObject
from repro.predicates.theta import Overlaps, ThetaOperator
from repro.relational.relation import Relation
from repro.storage.costs import CostMeter


@dataclass(slots=True)
class _RegisteredIndex:
    """A join index plus the snapshot it was computed from.

    The relation references keep the operands alive and the captured
    modification counts detect staleness: a mutated base relation
    invalidates the entry.
    """

    rel_r: Relation
    rel_s: Relation
    mod_r: int
    mod_s: int
    index: JoinIndex

    def is_stale(self) -> bool:
        return (
            self.rel_r.modification_count != self.mod_r
            or self.rel_s.modification_count != self.mod_s
        )


#: Order in which :meth:`SpatialQueryExecutor.execute_join` falls back
#: when a strategy dies on a storage or worker failure: the partition
#: sweep first (fastest when applicable), then the synchronized tree
#: join, the z-order merge, and finally the always-applicable nested
#: loop.
FALLBACK_CHAIN: tuple[str, ...] = ("partition", "tree", "zorder", "scan")

#: Executor strategies that can thread the raster-interval refiner
#: between their Theta-filter and exact refinement.
INTERVAL_STRATEGIES: tuple[str, ...] = ("tree", "zorder", "partition")


class SpatialQueryExecutor:
    """Executes spatial selections and joins with pluggable strategies.

    ``workers`` is a sizing input of the ``partition`` strategy (the
    minimum tile count of its grid and the divisor of the planner's
    ``D_PAR``); per-join overrides go through :meth:`join`.  The join
    itself always runs in this process.

    ``tracer`` (a :class:`~repro.obs.trace.Tracer`) makes every
    select/join emit a strategy-level span with per-phase and per-level
    children; ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`)
    collects buffer-pool hit ratios, Theta prune rates, QualPairs
    lengths and partition sweep timings from the layers underneath.  Both
    default to off and cost nothing when off.

    ``cache`` (a :class:`~repro.cache.QueryCache`) short-circuits
    repeated selections and joins: an exact repeat is served at zero
    page reads, a SELECT window nested inside a cached one is refined
    from the stored Theta-candidate set, and misses are admitted under
    the cache's cost-aware policy.  Entries are invalidated by the
    operand relations' modification epochs, so a cached executor never
    serves stale answers.  Default off; with no cache the dispatch path
    is byte-identical to previous behavior.

    ``interval`` enables the raster-interval second tier for joins
    (``Theta -> interval -> exact``, see :mod:`repro.intermediate`):
    ``True`` rasterizes on a data-fitted default grid, an
    :class:`~repro.intermediate.filter.IntervalSpec` fixes the grid,
    ``None``/``False`` keeps the historical exact refinement.  The tier
    applies to the ``tree``, ``zorder`` and ``partition`` strategies
    under the ``overlaps`` operator; every other strategy/operator pair
    ignores it.  Per-object approximations are cached in epoch-pinned
    per-grid stores shared across queries, so a mutated relation is
    re-rasterized and never filtered through stale intervals.

    The executor is *reentrant*: :meth:`select`, :meth:`join` and
    :meth:`execute_join` accept per-call ``tracer``/``metrics``/``cache``
    overrides (falling back to the instance-level handles), keep no
    per-query mutable state on ``self``, and guard the join-index
    registry with a lock -- one executor instance can serve many
    concurrent sessions, each tracing into its own tracer while sharing
    one cache and one metrics registry (see :mod:`repro.server`).
    """

    def __init__(
        self,
        memory_pages: int = 4000,
        workers: int = 1,
        *,
        tracer=None,
        metrics=None,
        cache=None,
        interval=None,
    ) -> None:
        if memory_pages <= 10:
            raise JoinError(f"memory_pages must exceed 10, got {memory_pages}")
        if workers < 1:
            raise JoinError(f"workers must be positive, got {workers}")
        self.memory_pages = memory_pages
        self.workers = workers
        self.tracer = coalesce(tracer)
        self.metrics = metrics
        self.cache = cache
        self.interval = interval
        if cache is not None and metrics is not None:
            cache.attach_metrics(metrics)
        self._join_indices: dict[
            tuple[int, int, str, str, str], _RegisteredIndex
        ] = {}
        self._registry_lock = threading.Lock()
        #: Per-grid approximation stores (IntervalSpec -> store), shared
        #: across queries so relation rasterization happens once per
        #: epoch, guarded like the join-index registry.
        self._interval_stores: dict[Any, Any] = {}
        self._interval_lock = threading.Lock()

    def _handles(self, tracer, metrics, cache):
        """Resolve per-call observability/cache overrides (None = default)."""
        return (
            self.tracer if tracer is None else coalesce(tracer),
            self.metrics if metrics is None else metrics,
            self.cache if cache is None else cache,
        )

    # ------------------------------------------------------------------
    # Join-index registry
    # ------------------------------------------------------------------

    def precompute_join_index(
        self,
        rel_r: Relation,
        rel_s: Relation,
        column_r: str,
        column_s: str,
        theta: ThetaOperator,
    ) -> JoinIndex:
        """Build and register a join index for later ``join-index`` runs."""
        ji = JoinIndex.precompute(rel_r, rel_s, column_r, column_s, theta)
        with self._registry_lock:
            self._join_indices[
                self._key(rel_r, rel_s, column_r, column_s, theta)
            ] = _RegisteredIndex(
                rel_r, rel_s,
                rel_r.modification_count, rel_s.modification_count, ji,
            )
        return ji

    def join_index_for(
        self,
        rel_r: Relation,
        rel_s: Relation,
        column_r: str,
        column_s: str,
        theta: ThetaOperator,
    ) -> JoinIndex | None:
        """The registered, still-fresh index for this join, or None.

        Entries whose base relations mutated since precomputation are
        dropped on lookup -- a stale join index silently returns wrong
        answers, which is worse than recomputing.
        """
        key = self._key(rel_r, rel_s, column_r, column_s, theta)
        with self._registry_lock:
            entry = self._join_indices.get(key)
            if entry is None:
                return None
            if entry.is_stale():
                del self._join_indices[key]
                return None
            return entry.index

    @staticmethod
    def _key(rel_r: Relation, rel_s: Relation, column_r: str, column_s: str,
             theta: ThetaOperator) -> tuple[int, int, str, str, str]:
        # Relation *identity*, not name: two distinct relations may share
        # a name, and a registry keyed by name would serve one relation's
        # index for the other's join.  The never-recycled ``uid`` (not
        # ``id()``) keeps the key unambiguous for the process lifetime.
        return (rel_r.uid, rel_s.uid, column_r, column_s, theta.name)

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------

    def select(
        self,
        relation: Relation,
        column: str,
        query: SpatialObject,
        theta: ThetaOperator,
        *,
        strategy: str = "auto",
        order: str = "bfs",
        meter: CostMeter | None = None,
        tracer=None,
        metrics=None,
        cache=None,
        cancel: CancellationToken | None = None,
    ) -> SelectResult:
        """Spatial selection ``{t in relation : query theta t.column}``.

        With a cache attached, an exact or containment hit is served
        inside the ``executor.select`` span (tagged ``cache=exact`` /
        ``cache=containment``) without touching storage; misses execute
        normally, collect the Theta-candidate set as a free byproduct
        of tree traversals, and are offered to the admission policy.
        Admission pins the relation's epoch before dispatch and refuses
        the result if the epoch moved while the query ran -- a torn
        answer computed under a concurrent writer belongs to no epoch.

        ``tracer``/``metrics``/``cache`` override the instance handles
        for this call (per-session tracing over shared state).
        ``cancel`` (a :class:`~repro.core.cancel.CancellationToken`) is
        checked on entry, at every tree level of the traversal, and
        once more before admission -- a result that finished past its
        deadline is discarded, never cached.
        """
        from repro.gridfile.gridfile import GridFile

        check_cancel(cancel)
        tracer, metrics, cache = self._handles(tracer, metrics, cache)
        if meter is None:
            meter = CostMeter()
        if strategy == "auto":
            if relation.has_index_on(column):
                index = relation.index_on(column)
                strategy = "grid" if isinstance(index, GridFile) else "tree"
            else:
                strategy = "scan"
        with tracer.span(
            "executor.select", meter=meter, strategy=strategy
        ) as span:
            if cache is not None:
                with tracer.span("cache.probe", meter=meter) as probe:
                    tier, served = cache.probe_select(
                        relation, column, query, theta,
                        strategy=strategy, order=order, meter=meter,
                    )
                    probe.set_tag("tier", tier or "miss")
                if served is not None:
                    span.set_tag("cache", tier)
                    return served
                span.set_tag("cache", "miss")
            candidates: list | None = None
            if cache is not None and strategy == "tree":
                from repro.cache.keys import window_monotone

                if window_monotone(theta):
                    candidates = []
            epoch = relation.modification_count
            cost_before = meter.total()
            result = self._dispatch_select(
                relation, column, query, theta,
                strategy=strategy, order=order, meter=meter,
                candidates_out=candidates, tracer=tracer, metrics=metrics,
                cancel=cancel,
            )
            check_cancel(cancel)  # a post-deadline result must not be cached
            if cache is not None:
                cache.admit_select(
                    relation, column, query, theta,
                    strategy=strategy, order=order, result=result,
                    candidates=candidates,
                    measured_cost=meter.total() - cost_before,
                    epoch=epoch,
                )
            return result

    def _dispatch_select(
        self,
        relation: Relation,
        column: str,
        query: SpatialObject,
        theta: ThetaOperator,
        *,
        strategy: str,
        order: str,
        meter: CostMeter,
        candidates_out: list | None = None,
        tracer=None,
        metrics=None,
        cancel: CancellationToken | None = None,
    ) -> SelectResult:
        from repro.gridfile.gridfile import GridFile

        tracer = self.tracer if tracer is None else tracer
        metrics = self.metrics if metrics is None else metrics
        if strategy == "scan":
            return nested_loop_select(
                relation, column, query, theta,
                meter=meter, memory_pages=self.memory_pages,
            )
        if strategy == "tree":
            tree = relation.index_on(column)
            return spatial_select(
                tree, query, theta,
                accessor=self._cold_accessor(relation, meter, metrics),
                meter=meter, order=order,
                tracer=tracer, metrics=metrics,
                candidates_out=candidates_out,
                cancel=cancel,
            )
        if strategy == "grid":
            from repro.gridfile.join import grid_select

            grid = relation.index_on(column)
            if not isinstance(grid, GridFile):
                raise JoinError(
                    f"index on {relation.name}.{column} is not a grid file"
                )
            return grid_select(grid, query, theta, meter=meter)
        raise JoinError(f"unknown selection strategy {strategy!r}")

    def _cold_accessor(
        self, relation: Relation, meter: CostMeter, metrics=None
    ) -> RelationAccessor:
        """A relation accessor over a fresh pool charging to ``meter``."""
        from repro.storage.buffer import BufferPool

        pool = BufferPool(relation.buffer_pool.disk, self.memory_pages, meter)
        if metrics is not None:
            pool.attach_metrics(metrics, pool=relation.name)
        return RelationAccessor(relation, pool)

    # ------------------------------------------------------------------
    # Join
    # ------------------------------------------------------------------

    def join(
        self,
        rel_r: Relation,
        column_r: str,
        rel_s: Relation,
        column_s: str,
        theta: ThetaOperator,
        *,
        strategy: str = "auto",
        meter: CostMeter | None = None,
        collect_tuples: bool = False,
        order: str = "bfs",
        workers: int | None = None,
        predicted_cost: float | None = None,
        tracer=None,
        metrics=None,
        cache=None,
        cancel: CancellationToken | None = None,
        interval=None,
    ) -> JoinResult:
        """Spatial join ``rel_r join_theta rel_s`` on the given columns.

        ``workers`` overrides the executor-wide worker count for the
        ``partition`` strategy; other strategies ignore it.

        ``interval`` overrides the executor-wide second-tier setting for
        this call (``None`` = instance default, ``False`` = force exact,
        ``True`` = data-fitted grid, an ``IntervalSpec`` = that grid).
        The filter changes which pairs reach the exact predicate, never
        which pairs are reported -- strategy labels and cache keys are
        identical with and without it.

        With a cache attached, an exact repeat of a join (same operand
        identities and epochs, same predicate, same strategy) is served
        from the stored pair list at zero page reads; symmetric
        operators share one entry across both operand orders.  Misses
        execute normally and are offered to the admission policy, which
        records the strategy this call actually dispatched (callers in
        the fallback chain pass the strategy that *ran*, never the one
        originally requested) alongside ``predicted_cost`` -- the model
        price of that same strategy, when the caller planned one.
        Admission pins both operand epochs before dispatch; results
        computed while either operand mutated are refused.

        ``tracer``/``metrics``/``cache`` override the instance handles
        for this call (per-session tracing over shared state).
        ``cancel`` is checked on entry, at tree-level and
        partition-tile boundaries inside the strategies, and once more
        before admission (no post-deadline cache fills).
        """
        check_cancel(cancel)
        tracer, metrics, cache = self._handles(tracer, metrics, cache)
        if meter is None:
            meter = CostMeter()
        if workers is None:
            workers = self.workers
        if interval is None:
            interval = self.interval
        if strategy == "auto":
            strategy = self._pick_join_strategy(rel_r, column_r, rel_s, column_s, theta)

        with tracer.span(
            "executor.join", meter=meter, strategy=strategy
        ) as span:
            if cache is not None:
                with tracer.span("cache.probe", meter=meter) as probe:
                    tier, served = cache.probe_join(
                        rel_r, column_r, rel_s, column_s, theta,
                        strategy=strategy, collect_tuples=collect_tuples,
                        meter=meter,
                    )
                    probe.set_tag("tier", tier or "miss")
                if served is not None:
                    span.set_tag("cache", tier)
                    return served
                span.set_tag("cache", "miss")
            interval_filter = self._resolve_interval(
                interval, strategy, rel_r, column_r, rel_s, column_s, theta
            )
            if interval_filter is not None:
                span.set_tag("interval", interval_filter.spec.level)
            epoch_r = rel_r.modification_count
            epoch_s = rel_s.modification_count
            cost_before = meter.total()
            result = self._dispatch_join(
                rel_r, column_r, rel_s, column_s, theta,
                strategy=strategy, meter=meter,
                collect_tuples=collect_tuples, order=order, workers=workers,
                tracer=tracer, metrics=metrics, cancel=cancel,
                interval_filter=interval_filter,
            )
            check_cancel(cancel)  # a post-deadline result must not be cached
            if cache is not None:
                cache.admit_join(
                    rel_r, column_r, rel_s, column_s, theta,
                    strategy=strategy, result=result,
                    collect_tuples=collect_tuples,
                    measured_cost=meter.total() - cost_before,
                    predicted_cost=predicted_cost,
                    epoch_r=epoch_r, epoch_s=epoch_s,
                )
            return result

    def _dispatch_join(
        self,
        rel_r: Relation,
        column_r: str,
        rel_s: Relation,
        column_s: str,
        theta: ThetaOperator,
        *,
        strategy: str,
        meter: CostMeter,
        collect_tuples: bool,
        order: str,
        workers: int,
        tracer=None,
        metrics=None,
        cancel: CancellationToken | None = None,
        interval_filter=None,
    ) -> JoinResult:
        tracer = self.tracer if tracer is None else tracer
        metrics = self.metrics if metrics is None else metrics
        if strategy == "scan":
            return nested_loop_join(
                rel_r, rel_s, column_r, column_s, theta,
                memory_pages=self.memory_pages, meter=meter,
                collect_tuples=collect_tuples,
            )
        if strategy == "tree":
            tree_r = rel_r.index_on(column_r)
            tree_s = rel_s.index_on(column_s)
            return tree_join(
                tree_r, tree_s, theta,
                accessor_r=self._cold_accessor(rel_r, meter, metrics),
                accessor_s=self._cold_accessor(rel_s, meter, metrics),
                meter=meter, order=order, collect_tuples=collect_tuples,
                tracer=tracer, metrics=metrics, cancel=cancel,
                refiner=interval_filter,
            )
        if strategy == "index-nl":
            tree_r = rel_r.index_on(column_r)
            return index_nested_loop_join(
                rel_s, column_s, tree_r, theta,
                accessor_r=self._cold_accessor(rel_r, meter, metrics),
                meter=meter, memory_pages=self.memory_pages, order=order,
            )
        if strategy == "index-nl-swapped":
            tree_s = rel_s.index_on(column_s)
            return index_nested_loop_join_swapped(
                rel_r, column_r, tree_s, theta,
                accessor_s=self._cold_accessor(rel_s, meter, metrics),
                meter=meter, memory_pages=self.memory_pages, order=order,
            )
        if strategy == "join-index":
            ji = self.join_index_for(rel_r, rel_s, column_r, column_s, theta)
            if ji is None:
                raise JoinError(
                    "no join index registered for this join; call "
                    "precompute_join_index first"
                )
            return ji.join(
                meter=meter, memory_pages=self.memory_pages,
                collect_tuples=collect_tuples,
            )
        if strategy == "grid":
            from repro.gridfile.gridfile import GridFile
            from repro.gridfile.join import grid_join

            grid_r = rel_r.index_on(column_r)
            grid_s = rel_s.index_on(column_s)
            if not isinstance(grid_r, GridFile) or not isinstance(grid_s, GridFile):
                raise JoinError("grid join requires grid-file indices on both sides")
            return grid_join(grid_r, grid_s, theta, meter=meter)
        if strategy == "zorder":
            if not isinstance(theta, Overlaps):
                raise JoinError(
                    "the z-order sort-merge strategy applies to the "
                    "'overlaps' operator only (Section 2.2)"
                )
            universe = self._common_universe(rel_r, column_r, rel_s, column_s)
            return zorder_merge_join(
                rel_r, rel_s, column_r, column_s,
                universe=universe, meter=meter, memory_pages=self.memory_pages,
                tracer=tracer, refiner=interval_filter,
            )
        if strategy == "partition":
            if not isinstance(theta, Overlaps):
                raise JoinError(
                    "the partition-parallel strategy applies to the "
                    "'overlaps' operator only (its plane-sweep filter is "
                    "MBR intersection)"
                )
            return partition_join(
                rel_r, rel_s, column_r, column_s, theta,
                workers=workers, meter=meter, memory_pages=self.memory_pages,
                collect_tuples=collect_tuples,
                tracer=tracer, metrics=metrics, cancel=cancel,
                refiner=interval_filter,
            )
        raise JoinError(f"unknown join strategy {strategy!r}")

    # ------------------------------------------------------------------
    # Resilient execution
    # ------------------------------------------------------------------

    def execute_join(
        self,
        rel_r: Relation,
        column_r: str,
        rel_s: Relation,
        column_s: str,
        theta: ThetaOperator,
        *,
        strategy: str = "auto",
        meter: CostMeter | None = None,
        collect_tuples: bool = False,
        order: str = "bfs",
        workers: int | None = None,
        plan=None,
        tracer=None,
        metrics=None,
        cache=None,
        cancel: CancellationToken | None = None,
        interval=None,
    ) -> tuple[JoinResult, ExecutionReport]:
        """Join with a strategy-fallback chain and a full execution report.

        The requested (or auto-picked) strategy runs first; if it dies on
        a storage failure -- a transient fault that outlasted the buffer
        pool's retry budget, a permanently lost page -- the next
        applicable strategy of :data:`FALLBACK_CHAIN` is tried, until one
        succeeds or the chain is exhausted (:class:`ExecutionError`).

        Every attempt is recorded in the returned
        :class:`~repro.core.report.ExecutionReport`: strategy, outcome,
        failure cause, per-attempt I/O retries and backoff.  When the
        operands live on a :class:`~repro.faults.disk.FaultyDisk`, the
        report also enumerates the faults injected during this execution
        and whether each was consumed by a retry or recovery.  ``meter``
        accumulates the cost of *all* attempts, failed ones included --
        failed work is work.

        On a clean run this is exactly :meth:`join` plus a one-attempt
        report with zero retries and zero fallbacks.

        ``plan`` (a :class:`~repro.core.optimizer.JoinPlan`) enables
        model-vs-measured drift detection: the winning attempt's metered
        total is compared against the cost formula that prices the
        strategy which actually ran, and the resulting
        :class:`~repro.obs.drift.DriftReport` is attached to the
        execution report (``report.drift``).

        With a cache attached, each attempt is admitted under the
        strategy it actually ran (the attempt's own), priced by the
        plan's prediction *for that strategy* -- a fallback's entry
        never carries the requested strategy's label or cost.

        ``cancel`` is re-checked before every attempt of the chain, and
        :class:`~repro.errors.QueryCancelled` /
        :class:`~repro.errors.DeadlineExceeded` raised inside an attempt
        are *not* fallback triggers: a cancelled partition join must not
        burn the remaining deadline on a doomed tree join.  They unwind
        straight out of the chain.

        ``interval`` forwards the second-tier setting to every attempt
        (see :meth:`join`).  When the winning attempt actually ran the
        filter, drift detection and admission pricing look up the plan's
        ``<model>+INT`` prediction -- the model is held to the cost of
        the path that executed, not the unfiltered one.
        """
        tracer, metrics, cache = self._handles(tracer, metrics, cache)
        if meter is None:
            meter = CostMeter()
        if interval is None:
            interval = self.interval
        first = strategy
        if first == "auto":
            first = self._pick_join_strategy(rel_r, column_r, rel_s, column_s, theta)
        chain = [first] + [
            s for s in FALLBACK_CHAIN
            if s != first
            and self._strategy_applicable(s, rel_r, column_r, rel_s, column_s, theta)
        ]

        fault_plan = self._fault_plan_for(rel_r, rel_s)
        events_before = len(fault_plan.events) if fault_plan is not None else 0

        report = ExecutionReport(
            query=(
                f"JOIN {rel_r.name}.{column_r} {theta.name} "
                f"{rel_s.name}.{column_s}"
            ),
            requested_strategy=strategy,
        )
        result: JoinResult | None = None
        for strat in chain:
            check_cancel(cancel)
            attempt_meter = CostMeter(charges=meter.charges)
            attempt_label = (
                strat + "+interval"
                if self._interval_active(interval, strat, theta) else strat
            )
            try:
                result = self.join(
                    rel_r, column_r, rel_s, column_s, theta,
                    strategy=strat, meter=attempt_meter,
                    collect_tuples=collect_tuples, order=order, workers=workers,
                    predicted_cost=self._planned_cost(plan, attempt_label),
                    tracer=tracer, metrics=metrics, cache=cache,
                    cancel=cancel, interval=interval,
                )
            except StorageError as exc:
                meter.absorb(attempt_meter)
                report.attempts.append(AttemptRecord(
                    strategy=strat, ok=False,
                    error_type=type(exc).__name__, error=str(exc),
                    io_retries=attempt_meter.io_retries,
                    backoff_steps=attempt_meter.backoff_steps,
                    stats=attempt_meter.snapshot(),
                ))
                continue
            meter.absorb(attempt_meter)
            report.attempts.append(AttemptRecord(
                strategy=strat, ok=True,
                io_retries=attempt_meter.io_retries,
                backoff_steps=attempt_meter.backoff_steps,
                stats=attempt_meter.snapshot(),
            ))
            if result.strategy.startswith("cached-"):
                # Served by the query cache inside :meth:`join`: record
                # the tier so reports and the CLI can show it.
                report.cached = result.strategy[len("cached-"):]
            break

        if fault_plan is not None:
            new_events = fault_plan.events[events_before:]
            report.fault_events = [e.describe() for e in new_events]
            report.fault_summary = {
                "injected": len(new_events),
                "consumed": sum(1 for e in new_events if e.consumed),
                "outstanding": sum(1 for e in new_events if not e.consumed),
            }

        if result is None:
            raise ExecutionError(
                "every join strategy failed: "
                + "; ".join(a.describe() for a in report.attempts),
                report,
            )

        if plan is not None and report.cached is None:
            # Drift compares the model against a *measured execution*;
            # a cache hit measured ~zero by design, which is savings,
            # not model drift -- cached runs are skipped.
            from repro.obs.drift import drift_from_plan

            winner = next(a for a in report.attempts if a.ok)
            winner_label = (
                winner.strategy + "+interval"
                if self._interval_active(interval, winner.strategy, theta)
                else winner.strategy
            )
            report.drift = drift_from_plan(
                plan, winner_label, winner.stats.get("total", 0.0),
                query=report.query,
            )
        if metrics is not None:
            metrics.absorb_meter(meter, strategy=report.strategy)
        return result, report

    @staticmethod
    def _planned_cost(plan, strategy: str) -> float | None:
        """The plan's predicted cost for the strategy this attempt runs.

        A plan prices every applicable model; the fallback chain may
        execute a different strategy than the plan chose, so the price
        is looked up per attempt -- admission must never see strategy A
        labelled with strategy B's cost.
        """
        if plan is None:
            return None
        from repro.obs.drift import model_for_strategy

        model = model_for_strategy(strategy, plan.predicted_costs)
        if model is None:
            return None
        return plan.predicted_costs[model]

    def plan_and_execute_join(
        self,
        rel_r: Relation,
        column_r: str,
        rel_s: Relation,
        column_s: str,
        theta: ThetaOperator,
        **kwargs: Any,
    ) -> tuple[JoinResult, ExecutionReport]:
        """Optimize with the Section 4 formulas, execute, check for drift.

        Convenience wrapper: runs :func:`~repro.core.optimizer.plan_join`
        (telling it whether a fresh join index is registered), executes
        the plan's strategy through :meth:`execute_join`, and returns the
        result with a drift-annotated report.  Extra keyword arguments
        are forwarded to :meth:`execute_join`.

        When the executor (or the call) enables the interval tier, the
        planner weighs its probe/build/save delta per query
        (``interval=...`` to :func:`~repro.core.optimizer.plan_join`) and
        the *plan's* verdict decides whether the filter actually runs --
        ``plan.use_interval`` wins over the blanket setting.
        """
        from repro.core.optimizer import executable_strategy, plan_join

        ji = self.join_index_for(rel_r, rel_s, column_r, column_s, theta)
        cache = kwargs.get("cache") or self.cache
        interval = kwargs.pop("interval", None)
        if interval is None:
            interval = self.interval
        plan = plan_join(
            rel_r, column_r, rel_s, column_s, theta,
            join_index_available=ji is not None,
            memory_pages=self.memory_pages,
            workers=self.workers,
            cache=cache,
            interval=interval or None,
        )
        if interval:
            kwargs["interval"] = plan.interval_spec if plan.use_interval else False
        return self.execute_join(
            rel_r, column_r, rel_s, column_s, theta,
            strategy=executable_strategy(plan), plan=plan, **kwargs,
        )

    def _strategy_applicable(
        self,
        strategy: str,
        rel_r: Relation,
        column_r: str,
        rel_s: Relation,
        column_s: str,
        theta: ThetaOperator,
    ) -> bool:
        """Can this fallback strategy run at all on these operands?"""
        if strategy in ("partition", "zorder"):
            return isinstance(theta, Overlaps)
        if strategy == "tree":
            return rel_r.has_index_on(column_r) and rel_s.has_index_on(column_s)
        return strategy == "scan"

    @staticmethod
    def _fault_plan_for(rel_r: Relation, rel_s: Relation):
        """The operands' fault plan, when they live on a FaultyDisk."""
        for rel in (rel_r, rel_s):
            plan = getattr(rel.buffer_pool.disk, "plan", None)
            if plan is not None:
                return plan
        return None

    # ------------------------------------------------------------------
    # Nearest-neighbor queries
    # ------------------------------------------------------------------

    def nearest(
        self,
        relation: Relation,
        column: str,
        query: Any,
        k: int = 1,
        *,
        meter: CostMeter | None = None,
    ) -> list[tuple[float, Any]]:
        """The ``k`` tuples whose spatial column is closest to ``query``.

        Requires an R-tree index on the column (branch-and-bound needs
        the hierarchy).  Returns ``(distance, tuple)`` pairs, nearest
        first.
        """
        from repro.trees.knn import nearest_neighbors
        from repro.trees.rtree import RTree

        if meter is None:
            meter = CostMeter()
        index = relation.index_on(column)
        if not isinstance(index, RTree):
            raise JoinError(
                f"nearest-neighbor search needs an R-tree index on "
                f"{relation.name}.{column}"
            )
        accessor = self._cold_accessor(relation, meter, self.metrics)
        found = nearest_neighbors(index, query, k=k, meter=meter)
        return [(dist, accessor.visit(tid, None)) for dist, tid in found]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _pick_join_strategy(
        self,
        rel_r: Relation,
        column_r: str,
        rel_s: Relation,
        column_s: str,
        theta: ThetaOperator,
    ) -> str:
        """Availability-driven pick, mirroring the paper's conclusions.

        A registered join index wins outright (lookup is cheapest when it
        exists and the study shows it superior at low selectivity, the
        regime precomputation targets).  Overlap joins whose operands fit
        in memory go to the partition-parallel plane sweep -- it needs no
        index, emits no duplicates, and dominates tree joins on in-memory
        workloads (Tsitsigkos & Mamoulis et al., 2019).  Otherwise two
        trees enable the generalization-tree join, one tree the
        index-supported join, and the nested loop remains the fallback.
        """
        if self.join_index_for(rel_r, rel_s, column_r, column_s, theta) is not None:
            return "join-index"
        if isinstance(theta, Overlaps) and self._fits_in_memory(rel_r, rel_s):
            return "partition"
        has_r = rel_r.has_index_on(column_r)
        has_s = rel_s.has_index_on(column_s)
        if has_r and has_s:
            return "tree"
        if has_r:
            return "index-nl"
        if has_s:
            # Probe S's tree while scanning R: same strategy, swapped roles.
            return "index-nl-swapped"
        return "scan"

    def _fits_in_memory(self, rel_r: Relation, rel_s: Relation) -> bool:
        """True when both operands fit the usable ``M - 10`` page budget."""
        return rel_r.num_pages + rel_s.num_pages <= self.memory_pages - RESERVED_PAGES

    @staticmethod
    def _interval_active(interval, strategy: str, theta: ThetaOperator) -> bool:
        """Would the second tier run for this (setting, strategy, theta)?"""
        return (
            bool(interval)
            and strategy in INTERVAL_STRATEGIES
            and isinstance(theta, Overlaps)
        )

    def _resolve_interval(
        self,
        interval,
        strategy: str,
        rel_r: Relation,
        column_r: str,
        rel_s: Relation,
        column_s: str,
        theta: ThetaOperator,
    ):
        """The :class:`~repro.intermediate.filter.IntervalFilter` for this
        call, or ``None`` for the exact path.

        The filter's memo is seeded from the executor's per-grid
        :class:`~repro.intermediate.store.ApproximationStore`, which pins
        each relation's ``modification_count`` at build time -- a mutated
        operand re-rasterizes instead of reusing stale intervals.  The
        filter itself is a throwaway per-call object (its on-demand memo
        may absorb tree node regions that the shared store must not
        retain across epochs).
        """
        if not self._interval_active(interval, strategy, theta):
            return None
        from repro.intermediate import (
            ApproximationStore,
            IntervalFilter,
            IntervalSpec,
        )

        if isinstance(interval, IntervalSpec):
            spec = interval
        else:
            spec = IntervalSpec(
                universe=self._common_universe(rel_r, column_r, rel_s, column_s)
            )
        with self._interval_lock:
            store = self._interval_stores.get(spec)
            if store is None:
                store = ApproximationStore(spec)
                self._interval_stores[spec] = store
            tables = dict(store.table_for(rel_r, column_r))
            tables.update(store.table_for(rel_s, column_s))
        return IntervalFilter(theta, spec, tables)

    def _common_universe(self, rel_r: Relation, column_r: str,
                         rel_s: Relation, column_s: str):
        from repro.relational.columns import data_universe, extract_columns

        return data_universe(
            extract_columns(rel_r, column_r), extract_columns(rel_s, column_s)
        )
