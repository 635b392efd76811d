"""The spatial query executor: one entry point, every strategy.

Which strategies exist, what each applies to and what it costs is the
table in :mod:`repro.core.strategies`; this module is everything around
a strategy run -- handle resolution, ``auto`` (the planner's pick),
tracing spans, the query cache, the interval tier, cancellation and the
fallback chain.
"""

from __future__ import annotations

from dataclasses import replace

from typing import Any

from repro.core.cancel import CancellationToken, check_cancel
from repro.core.optimizer import JoinPlan, plan_join
from repro.core.report import AttemptRecord, ExecutionReport
from repro.core.strategies import (
    JOIN_STRATEGIES,
    METERED_COUNTERS,
    SELECT_STRATEGIES,
    ExecContext,
    JoinOperands,
    JoinStrategy,
    applicable,
    lookup,
    metered_work,
)
from repro.costmodel.profile import predicate_kinds, seconds
from repro.errors import ExecutionError, JoinError, StorageError
from repro.join.join_index import JoinIndex
from repro.join.result import JoinResult, SelectResult
from repro.obs.drift import drift_from_plan
from repro.obs.trace import coalesce
from repro.predicates.dispatch import SpatialObject
from repro.predicates.theta import ThetaOperator
from repro.relational.relation import EpochPin, Relation
from repro.storage.costs import CostMeter


class SpatialQueryExecutor:
    """Executes spatial selections and joins with pluggable strategies.

    ``workers`` is a sizing input of the ``partition`` strategy (the
    minimum tile count of its grid); per-join overrides go through
    :meth:`join`.  The join itself always runs in this process.

    ``tracer`` (a :class:`~repro.obs.trace.Tracer`) makes every
    select/join emit a strategy-level span with per-phase and per-level
    children; ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`)
    collects buffer-pool hit ratios, Theta prune rates, QualPairs
    lengths and partition sweep timings from the layers underneath.  Both
    default to off and cost nothing when off.

    ``cache`` (a :class:`~repro.cache.QueryCache`) short-circuits
    repeated selections and joins: an exact repeat is served at zero
    page reads, a SELECT window nested inside a cached one is refined
    from the stored Theta-candidate set, and misses are admitted by the
    seconds their metered work takes.  Entries are invalidated by the
    operand relations' modification epochs, so a cached executor never
    serves stale answers.  Default off; with no cache the dispatch path
    is byte-identical to previous behavior.

    ``interval`` enables the raster-interval second tier for joins
    (``Theta -> interval -> exact``, see :mod:`repro.intermediate`):
    ``True`` rasterizes on a data-fitted default grid, an
    :class:`~repro.intermediate.filter.IntervalSpec` fixes the grid,
    ``None``/``False`` keeps the historical exact refinement.  The tier
    applies to the partition sweep under the ``overlaps`` operator; every
    other strategy/operator pair ignores it.  One rule decides whether
    it runs: ``auto`` decides the tier (the planner weighs it and the
    plan's verdict runs), an explicit ``partition`` forces it as set.
    Per-object approximations are kept per grid in each relation's
    epoch-scoped memo, so a mutated relation is re-rasterized and never
    filtered through stale intervals.

    The executor is *reentrant*: :meth:`select`, :meth:`join` and
    :meth:`execute_join` accept per-call ``tracer``/``metrics``/``cache``
    overrides (falling back to the instance-level handles) and keep no
    mutable state on ``self`` -- registered join indices and interval
    tables live on the relations they derive from -- so one executor
    instance can serve many concurrent sessions, each tracing into its
    own tracer while sharing one cache and one metrics registry (see
    :mod:`repro.server`).
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

    def _context(
        self, *, meter=None, tracer=None, metrics=None, cache=None,
        cancel=None, workers=None, interval=None, order="bfs",
        collect_tuples=False,
    ) -> ExecContext:
        """The per-query context: each per-call override, or the instance
        default where the caller passed ``None``, resolved exactly once."""
        return ExecContext(
            meter=CostMeter() if meter is None else meter,
            tracer=self.tracer if tracer is None else coalesce(tracer),
            metrics=self.metrics if metrics is None else metrics,
            cache=self.cache if cache is None else cache,
            cancel=cancel,
            memory_pages=self.memory_pages,
            workers=self.workers if workers is None else workers,
            order=order,
            collect_tuples=collect_tuples,
            interval=self.interval if interval is None else interval,
        )

    def _operands(self, rel_r, column_r, rel_s, column_s, theta) -> JoinOperands:
        return JoinOperands(
            rel_r, column_r, rel_s, column_s, theta,
            join_index=self.join_index_for(rel_r, rel_s, column_r, column_s, theta),
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
        """Build and register a join index for later ``join-index`` runs.

        The index is part of the data (Section 4.2 maintains it with its
        base relations): it is kept in ``rel_r``'s epoch-scoped memo with
        a pin on ``rel_s``, so every executor over the same relation
        objects finds it and it is released with them.
        """
        epoch_r, pin_s = rel_r.modification_count, EpochPin.of(rel_s)
        ji = JoinIndex.precompute(rel_r, rel_s, column_r, column_s, theta)
        rel_r.keep_derived(
            self._key(rel_s, column_r, column_s, theta), (ji, pin_s), epoch_r
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

        An index whose base relations mutated since precomputation is
        never returned -- a stale join index silently returns wrong
        answers, which is worse than recomputing.
        """
        kept = rel_r.derived(self._key(rel_s, column_r, column_s, theta))
        if kept is None or not kept[1].fresh():
            return None
        return kept[0]

    @staticmethod
    def _key(rel_s: Relation, column_r: str, column_s: str,
             theta: ThetaOperator) -> tuple[str, int, str, str, str]:
        # The second operand's *identity*, not its name: two distinct
        # relations may share a name, and a key by name would serve one
        # relation's index for the other's join.  The never-recycled
        # ``uid`` (not ``id()``) keeps the key unambiguous for the
        # process lifetime.
        return ("join-index", rel_s.uid, column_r, column_s, theta.name)

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
        check_cancel(cancel)
        if strategy == "auto":
            strategy = "tree" if relation.has_index_on(column) else "scan"
        run = lookup(SELECT_STRATEGIES, strategy, "selection")
        ctx = self._context(
            meter=meter, tracer=tracer, metrics=metrics, cache=cache,
            cancel=cancel, order=order,
        )
        meter, cache = ctx.meter, ctx.cache
        with ctx.tracer.span(
            "executor.select", meter=meter, strategy=strategy
        ) as span:
            want_candidates = False
            if cache is not None:
                served = _probe(
                    ctx, span, cache.probe_select,
                    relation, column, query, theta,
                    strategy=strategy, order=order,
                )
                if served is not None:
                    return served
                from repro.cache.keys import window_monotone

                want_candidates = window_monotone(theta)
            epoch = relation.modification_count
            before = _counted(meter)
            result, candidates = run(
                ctx, relation, column, query, theta, want_candidates
            )
            check_cancel(cancel)  # a post-deadline result must not be cached
            if cache is not None:
                work = metered_work(
                    strategy, _counted(meter, before),
                    kinds=predicate_kinds(theta, relation.schema.column(column).type),
                    rows=(len(relation), 1), matches=len(result.matches),
                )
                cache.admit_select(
                    relation, column, query, theta,
                    strategy=strategy, order=order, result=result,
                    candidates=candidates, measured_cost=seconds(work),
                    epoch=epoch,
                )
            return result

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
        Under ``auto`` the setting is what the planner may use: the tier
        runs only where the plan says it pays.  An explicit ``partition``
        forces the tier as set; every other strategy ignores it.  The
        filter changes which pairs reach the exact predicate, never
        which pairs are reported -- strategy labels and cache keys are
        identical with and without it.

        With a cache attached, an exact repeat of a join (same operand
        identities and epochs, same predicate, same strategy) is served
        from the stored pair list at zero page reads; symmetric
        operators share one entry across both operand orders.  Misses
        execute normally and are offered to the admission policy.
        Admission pins both operand epochs before dispatch; results
        computed while either operand mutated are refused.

        ``tracer``/``metrics``/``cache`` override the instance handles
        for this call (per-session tracing over shared state).
        ``cancel`` is checked on entry, at tree-level and
        tile-group boundaries inside the strategies, and once more
        before admission (no post-deadline cache fills).
        """
        check_cancel(cancel)
        ops = self._operands(rel_r, column_r, rel_s, column_s, theta)
        ctx = self._context(
            meter=meter, collect_tuples=collect_tuples, order=order,
            workers=workers, tracer=tracer, metrics=metrics, cache=cache,
            cancel=cancel, interval=interval,
        )
        ctx, first, _plan = self._strategy_for(strategy, ops, ctx)
        return self._attempt(ctx, ops, first)

    def _attempt(
        self, ctx: ExecContext, ops: JoinOperands, strategy: JoinStrategy
    ) -> JoinResult:
        """One strategy run: span, cache probe, run, post-deadline check,
        epoch-pinned admission.

        The entry is admitted under the strategy that *ran* (in a
        fallback chain never the one originally requested), priced by
        the seconds of this run's own metered work, so admission never
        sees strategy A labelled with B's cost.
        """
        meter, cache = ctx.meter, ctx.cache
        with ctx.tracer.span(
            "executor.join", meter=meter, strategy=strategy.name
        ) as span:
            if cache is not None:
                served = _probe(
                    ctx, span, cache.probe_join, *ops.positional,
                    strategy=strategy.name, collect_tuples=ctx.collect_tuples,
                )
                if served is not None:
                    return served
            reason = strategy.refusal(ops)
            if reason is not None:
                raise JoinError(reason)
            if strategy.filters(ctx.interval, ops.theta):
                refiner = self._interval_filter(ctx.interval, ops)
                span.set_tag("interval", refiner.spec.level)
                ctx = replace(ctx, refiner=refiner)
            epoch_r = ops.rel_r.modification_count
            epoch_s = ops.rel_s.modification_count
            before = _counted(meter)
            result = strategy.run(ctx, ops)
            check_cancel(ctx.cancel)  # a post-deadline result must not be cached
            if cache is not None:
                work = metered_work(
                    strategy.name, _counted(meter, before),
                    kinds=ops.kinds, rows=ops.rows, matches=len(result.pairs),
                )
                cache.admit_join(
                    *ops.positional,
                    strategy=strategy.name, result=result,
                    collect_tuples=ctx.collect_tuples,
                    measured_cost=seconds(work),
                    epoch_r=epoch_r, epoch_s=epoch_s,
                )
            return result

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
        order: str = "bfs",
        workers: int | None = None,
        plan=None,
        tracer=None,
        interval=None,
    ) -> tuple[JoinResult, ExecutionReport]:
        """Join with a strategy-fallback chain and a full execution report.

        The requested (or auto-picked) strategy runs first; if it dies on
        a storage failure -- a transient fault that outlasted the buffer
        pool's retry budget, a permanently lost page -- the next
        applicable fallback link of
        :data:`~repro.core.strategies.JOIN_STRATEGIES` is tried, until one
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

        The run's plan -- ``plan`` (a
        :class:`~repro.core.optimizer.JoinPlan`) when the caller passes
        one, else the plan behind ``auto``'s pick -- enables
        model-vs-measured drift detection: the seconds of the winning
        attempt's metered work are compared with the seconds the plan
        predicted for the strategy which actually ran -- its
        ``partition+INT`` prediction when that attempt ran the interval
        filter -- and the resulting
        :class:`~repro.obs.drift.DriftReport` is attached to the
        execution report (``report.drift``).  An explicit strategy with
        no ``plan`` reports no drift.

        Resolving ``auto`` is the chain's first step: planning reads the
        operands, and when that dies on a storage failure it is recorded
        as a failed ``auto`` attempt and the chain starts at its first
        fallback link.

        ``interval`` is the second-tier setting (see :meth:`join`): under
        ``auto`` every attempt runs the plan's verdict on the tier, under
        an explicit strategy every attempt runs the setting.
        """
        ops = self._operands(rel_r, column_r, rel_s, column_s, theta)
        ctx = self._context(
            meter=meter, order=order, workers=workers, tracer=tracer,
            interval=interval,
        )
        meter = ctx.meter
        fault_plan = self._fault_plan_for(ops.rel_r, ops.rel_s)
        events_before = len(fault_plan.events) if fault_plan is not None else 0

        report = ExecutionReport(query=ops.query, requested_strategy=strategy)
        try:
            ctx, first, auto_plan = self._strategy_for(strategy, ops, ctx)
            plan = plan or auto_plan
        except StorageError as exc:
            first = None
            report.attempts.append(AttemptRecord(
                strategy=strategy, ok=False,
                error_type=type(exc).__name__, error=str(exc),
            ))
        chain = [first] if first is not None else []
        chain += [s for s in applicable(ops) if s.fallback and s is not first]

        result: JoinResult | None = None
        for link in chain:
            attempt_meter = CostMeter()
            failure: StorageError | None = None
            try:
                result = self._attempt(replace(ctx, meter=attempt_meter), ops, link)
            except StorageError as exc:
                failure = exc
            meter.absorb(attempt_meter)
            report.attempts.append(AttemptRecord(
                strategy=link.name, ok=failure is None,
                error_type=None if failure is None else type(failure).__name__,
                error=None if failure is None else str(failure),
                stats=attempt_meter.snapshot(),
            ))
            if failure is None:
                winner = link
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

        if result.strategy.startswith("cached-"):
            # Served by the query cache inside the attempt: record the
            # tier so reports and the CLI can show it.
            report.cached = result.strategy[len("cached-"):]
        elif plan is not None:
            # Drift compares the model against a *measured execution*;
            # a cache hit measured ~zero by design, which is savings,
            # not model drift -- cached runs are skipped.
            work = metered_work(
                winner.name, report.attempts[-1].stats,
                kinds=ops.kinds, rows=ops.rows, matches=len(result.pairs),
            )
            report.drift = drift_from_plan(
                plan, winner.name, seconds(work),
                interval=winner.filters(ctx.interval, ops.theta),
                query=report.query,
            )
        if ctx.metrics is not None:
            ctx.metrics.absorb_meter(meter, strategy=report.strategy)
        return result, report

    def plan_and_execute_join(
        self,
        rel_r: Relation,
        column_r: str,
        rel_s: Relation,
        column_s: str,
        theta: ThetaOperator,
        **kwargs: Any,
    ) -> tuple[JoinResult, ExecutionReport]:
        """:meth:`execute_join` under ``auto``: plan, execute down the
        fallback chain, report drift.  Keyword arguments are
        :meth:`execute_join`'s, minus ``strategy``."""
        return self.execute_join(
            rel_r, column_r, rel_s, column_s, theta, strategy="auto", **kwargs
        )

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

        ctx = self._context(meter=meter)
        index = relation.index_on(column)
        if not isinstance(index, RTree):
            raise JoinError(
                f"nearest-neighbor search needs an R-tree index on "
                f"{relation.name}.{column}"
            )
        accessor = ctx.cold_accessor(relation)
        found = nearest_neighbors(index, query, k=k, meter=ctx.meter)
        return [(dist, accessor.visit(tid, None)) for dist, tid in found]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _strategy_for(
        self, name: str, ops: JoinOperands, ctx: ExecContext
    ) -> tuple[ExecContext, JoinStrategy, JoinPlan | None]:
        """The context to run under, the strategy registered under
        ``name``, and the plan that picked it.

        This is the executor's one planning step.  ``auto`` is
        :func:`~repro.core.optimizer.plan_join`'s pick for these operands
        (and their registered join index) at this call's memory and
        interval setting, and it runs the plan's verdict on the interval
        tier: ``plan.interval_spec`` where ``plan.use_interval``, the
        exact path elsewhere.  An
        explicit strategy runs under the setting as given, with no plan.

        The plan is kept on the left operand for as long as neither
        operand changes: it reads both column snapshots and samples both
        trees, and a repeat of the join -- a cache hit above all -- must
        not pay for that again.  Planning may read pages, so it may
        raise a :class:`~repro.errors.StorageError`.
        """
        if name != "auto":
            return ctx, lookup(JOIN_STRATEGIES, name, "join"), None
        rel_r, rel_s = ops.rel_r, ops.rel_s
        interval = ctx.interval or None
        # The partner by ``uid``, as in :meth:`_key`; attaching an
        # index moves no epoch, so the key names the indexes too.
        key = (
            "auto", rel_s.uid, ops.column_r, ops.column_s, ops.theta.name,
            rel_r.has_index_on(ops.column_r), rel_s.has_index_on(ops.column_s),
            ops.join_index is not None, ctx.memory_pages, interval,
        )
        plan = rel_r.derive_with(key, rel_s, lambda: plan_join(
            *ops.positional,
            join_index=ops.join_index,
            memory_pages=ctx.memory_pages,
            interval=interval,
        ))
        ctx = replace(ctx, interval=plan.interval_spec if plan.use_interval else False)
        return ctx, lookup(JOIN_STRATEGIES, plan.strategy, "join"), plan

    def _interval_filter(self, interval, ops: JoinOperands):
        """A fresh :class:`~repro.intermediate.filter.IntervalFilter` for
        one partition-sweep attempt under the (truthy) second-tier
        setting ``interval``.

        The filter's memo is seeded from each operand's
        :func:`~repro.intermediate.store.approximation_table`, which
        lives in the relation's epoch-scoped memo -- a mutated operand
        re-rasterizes instead of reusing stale intervals.  The filter
        itself is a throwaway per-attempt object (its on-demand memo may
        absorb geometries that the shared tables must not retain across
        epochs).
        """
        from repro.intermediate import (
            IntervalFilter,
            IntervalSpec,
            approximation_table,
        )

        spec = interval
        if not isinstance(spec, IntervalSpec):
            spec = IntervalSpec(universe=ops.universe())
        tables = dict(approximation_table(ops.rel_r, ops.column_r, spec))
        tables.update(approximation_table(ops.rel_s, ops.column_s, spec))
        return IntervalFilter(ops.theta, spec, tables)


def _counted(meter: CostMeter, since: dict[str, int] | None = None) -> dict[str, int]:
    """The counters :func:`~repro.core.strategies.metered_work` reads, as
    ``meter`` holds them now -- or their growth ``since`` an earlier
    reading, which is one run's on a meter shared across calls."""
    now = {name: getattr(meter, name) for name in METERED_COUNTERS}
    if since is None:
        return now
    return {name: count - since[name] for name, count in now.items()}


def _probe(ctx: ExecContext, span, probe, *query, **key):
    """A cache hit for this query or ``None``, tagged on both spans."""
    with ctx.tracer.span("cache.probe", meter=ctx.meter) as probe_span:
        tier, served = probe(*query, meter=ctx.meter, **key)
        probe_span.set_tag("tier", tier or "miss")
    span.set_tag("cache", tier or "miss")
    return served
