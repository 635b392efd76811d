"""The join-strategy registry and the per-query execution context.

The paper's comparative study (Sections 4.4-4.5) treats a join strategy
as one thing: an algorithm, the operands it applies to, and what it
costs.  :data:`JOIN_STRATEGIES` holds exactly that, one
:class:`JoinStrategy` per algorithm, and every consumer -- executor
dispatch and fallback chain, the planner's ``predicted_seconds``, the
drift detector's lookup, the strategy comparison and the CLI's
``--strategy`` choices -- reads the table.  Adding a strategy is adding
an entry here.

A strategy's ``price`` is the *work* it is predicted to do, by kind
(:data:`~repro.costmodel.profile.WORK_KINDS`); :func:`metered_work` is
the same vector read off a run's meter.  The measured profile turns
both into seconds, the one unit every runtime price is in: the plan's
ranking, cache admission and drift.  Table 3's units stay in
:mod:`repro.costmodel`, where they draw the paper's figures.

Strategies know nothing of caching, tracing spans around them, fallback
or sharding: ``run(ctx, operands)`` unpacks the :class:`ExecContext`
into the keywords its kernel takes and returns the kernel's result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.core.cancel import CancellationToken
from repro.costmodel.estimation import sample_select_evals
from repro.costmodel.profile import predicate_kinds
from repro.errors import JoinError
from repro.join.accessor import RelationAccessor
from repro.join.index_join import (
    index_nested_loop_join,
    index_nested_loop_join_swapped,
)
from repro.join.nested_loop import nested_loop_join, nested_loop_select
from repro.join.result import JoinResult
from repro.join.select import spatial_select
from repro.join.tree_join import tree_join
from repro.join.zorder_merge import zorder_merge_join
from repro.parallel.join import partition_join
from repro.predicates.theta import Overlaps, ThetaOperator
from repro.relational.columns import column_snapshot, data_universe
from repro.relational.relation import Relation
from repro.storage.buffer import BufferPool
from repro.storage.costs import CostMeter

#: Suffix of the ``predicted_work`` entry that prices a strategy *with*
#: the raster-interval tier threaded in (``partition+INT``).
INTERVAL_SUFFIX = "+INT"


@dataclass(frozen=True, slots=True)
class ExecContext:
    """Every cross-cutting handle of one query, resolved once per public
    call from the keywords the caller passed and the executor's defaults.

    ``interval`` is the second-tier *setting* (falsy, ``True`` or an
    ``IntervalSpec``); ``refiner`` is the filter an attempt built from it
    for the partition sweep, ``None`` on the exact path.
    """

    meter: CostMeter
    tracer: Any
    metrics: Any
    cache: Any
    cancel: CancellationToken | None
    memory_pages: int
    workers: int
    order: str
    collect_tuples: bool
    interval: Any
    refiner: Any = None

    def cold_accessor(self, relation: Relation) -> RelationAccessor:
        """A relation accessor over a fresh pool charging to ``meter``."""
        pool = BufferPool(relation.buffer_pool.disk, self.memory_pages, self.meter)
        if self.metrics is not None:
            pool.attach_metrics(self.metrics, pool=relation.name)
        return RelationAccessor(relation, pool)


@dataclass(frozen=True, slots=True)
class JoinOperands:
    """What is joined: ``rel_r.column_r theta rel_s.column_s``.

    ``join_index`` is the fresh registered
    :class:`~repro.join.join_index.JoinIndex` for exactly this join, if
    there is one: the ``join-index`` strategy prices and runs it.
    """

    rel_r: Relation
    column_r: str
    rel_s: Relation
    column_s: str
    theta: ThetaOperator
    join_index: Any = None

    @property
    def positional(self) -> tuple[Relation, str, Relation, str, ThetaOperator]:
        """The five arguments in the order every public join call takes."""
        return (self.rel_r, self.column_r, self.rel_s, self.column_s, self.theta)

    @property
    def query(self) -> str:
        return (
            f"JOIN {self.rel_r.name}.{self.column_r} {self.theta.name} "
            f"{self.rel_s.name}.{self.column_s}"
        )

    @property
    def rows(self) -> tuple[int, int]:
        return len(self.rel_r), len(self.rel_s)

    @property
    def kinds(self) -> tuple[str, str]:
        """The ``(exact, pair)`` work kinds of these operands' predicate."""
        return predicate_kinds(
            self.theta,
            self.rel_r.schema.column(self.column_r).type,
            self.rel_s.schema.column(self.column_s).type,
        )

    def universe(self):
        """Union of both columns' MBRs, off each operand's retained
        snapshot (a metered scan only for an operand nothing has read
        since it last changed, ``num_pages`` buffer hits otherwise)."""
        return data_universe(
            column_snapshot(self.rel_r, self.column_r),
            column_snapshot(self.rel_s, self.column_s),
        )


@dataclass(frozen=True, slots=True)
class JoinStrategy:
    """One join algorithm: applicability, capabilities, price, kernel."""

    name: str
    run: Callable[[ExecContext, JoinOperands], JoinResult]
    #: Why the strategy cannot run on these operands (the ``JoinError``
    #: text), or ``None`` when it can.
    refusal: Callable[[JoinOperands], str | None] = lambda ops: None
    #: Threads the raster-interval refiner between its Theta filter and
    #: exact refinement.  Only the partition sweep does; every other
    #: strategy refines exactly under any interval setting.
    interval: bool = False
    #: A link of the storage-failure fallback chain, tried in table order.
    fallback: bool = False
    #: ``(operands, p, memory_pages) -> predicted work by kind``, from
    #: the sampled selectivity ``p``, the memory budget and the
    #: structures the operands hold; ``None`` for a strategy the planner
    #: never picks.
    price: Callable[[JoinOperands, float, int], dict[str, float]] | None = None

    def filters(self, interval: Any, theta: ThetaOperator) -> bool:
        """Does a run under this second-tier setting thread the refiner?"""
        return bool(interval) and self.interval and isinstance(theta, Overlaps)


# ----------------------------------------------------------------------
# Refusals
# ----------------------------------------------------------------------

def _no_index(rel: Relation, column: str) -> str | None:
    if rel.has_index_on(column):
        return None
    return f"{rel.name} has no index on column {column!r}"


def _overlaps_only(reason: str) -> Callable[[JoinOperands], str | None]:
    return lambda ops: None if isinstance(ops.theta, Overlaps) else reason


def _unregistered(ops: JoinOperands) -> str | None:
    if ops.join_index is None:
        return (
            "no join index registered for this join; call "
            "precompute_join_index first"
        )
    return None


# ----------------------------------------------------------------------
# Kernels: ``ctx`` unpacked into each kernel's own keywords
# ----------------------------------------------------------------------

def _run_partition(ctx: ExecContext, ops: JoinOperands) -> JoinResult:
    return partition_join(
        ops.rel_r, ops.rel_s, ops.column_r, ops.column_s, ops.theta,
        workers=ctx.workers, meter=ctx.meter, memory_pages=ctx.memory_pages,
        collect_tuples=ctx.collect_tuples,
        tracer=ctx.tracer, metrics=ctx.metrics, cancel=ctx.cancel,
        refiner=ctx.refiner,
    )


def _run_tree(ctx: ExecContext, ops: JoinOperands) -> JoinResult:
    return tree_join(
        ops.rel_r.index_on(ops.column_r), ops.rel_s.index_on(ops.column_s),
        ops.theta,
        accessor_r=ctx.cold_accessor(ops.rel_r),
        accessor_s=ctx.cold_accessor(ops.rel_s),
        meter=ctx.meter, order=ctx.order, collect_tuples=ctx.collect_tuples,
        tracer=ctx.tracer, metrics=ctx.metrics, cancel=ctx.cancel,
    )


def _run_zorder(ctx: ExecContext, ops: JoinOperands) -> JoinResult:
    return zorder_merge_join(
        ops.rel_r, ops.rel_s, ops.column_r, ops.column_s,
        universe=ops.universe(), meter=ctx.meter,
        memory_pages=ctx.memory_pages, tracer=ctx.tracer,
    )


def _run_scan(ctx: ExecContext, ops: JoinOperands) -> JoinResult:
    return nested_loop_join(
        ops.rel_r, ops.rel_s, ops.column_r, ops.column_s, ops.theta,
        memory_pages=ctx.memory_pages, meter=ctx.meter,
        collect_tuples=ctx.collect_tuples,
    )


def _run_index_nl(ctx: ExecContext, ops: JoinOperands) -> JoinResult:
    return index_nested_loop_join(
        ops.rel_s, ops.column_s, ops.rel_r.index_on(ops.column_r), ops.theta,
        accessor_r=ctx.cold_accessor(ops.rel_r),
        meter=ctx.meter, memory_pages=ctx.memory_pages, order=ctx.order,
    )


def _run_index_nl_swapped(ctx: ExecContext, ops: JoinOperands) -> JoinResult:
    # Probe S's tree while scanning R: same strategy, swapped roles.
    return index_nested_loop_join_swapped(
        ops.rel_r, ops.column_r, ops.rel_s.index_on(ops.column_s), ops.theta,
        accessor_s=ctx.cold_accessor(ops.rel_s),
        meter=ctx.meter, memory_pages=ctx.memory_pages, order=ctx.order,
    )


def _run_join_index(ctx: ExecContext, ops: JoinOperands) -> JoinResult:
    return ops.join_index.join(
        meter=ctx.meter, memory_pages=ctx.memory_pages,
        collect_tuples=ctx.collect_tuples,
    )


# ----------------------------------------------------------------------
# Work: predicted by each strategy's price, counted by a run's meter
# ----------------------------------------------------------------------

#: The meter counters :func:`metered_work` reads.
METERED_COUNTERS = ("page_reads", "theta_filter_evals", "theta_exact_evals", "interval_probes")


def metered_work(
    strategy: str,
    counted: Mapping[str, float],
    *,
    kinds: tuple[str, str],
    rows: tuple[int, int],
    matches: int,
) -> dict[str, float]:
    """What a run of ``strategy`` did, as work kinds: the profile's fit
    regresses wall time on it, and cache admission and drift price it in
    seconds.

    ``counted`` holds the run's meter counters (a
    :meth:`~repro.storage.costs.CostMeter.snapshot`, or the growth of
    the counters over the run); ``kinds`` are the operands' ``(exact,
    pair)`` kinds, ``rows`` their ``(|R|, |S|)`` and ``matches`` the
    answer's size.  A selection is read the same way: a tree traversal
    as ``tree``, a scan as ``scan``.
    """
    exact, pair = kinds
    work = {"io": float(counted.get("page_reads", 0))}
    if strategy == "scan":
        # Every pair is tested; the matching ones run the full test.
        work[pair] = float(counted.get("theta_exact_evals", 0))
        work[exact] = float(matches)
        return work
    work[exact] = float(counted.get("theta_exact_evals", 0))
    work["interval_probe"] = float(counted.get("interval_probes", 0))
    if strategy == "partition":
        work["sweep_row"] = float(sum(rows))
        work["sweep_pair"] = float(
            counted.get("interval_probes", 0) or counted.get("theta_exact_evals", 0)
        )
        return work
    work["theta"] = float(counted.get("theta_filter_evals", 0))
    if strategy == "index-nl":
        work["probe"] = float(rows[1])
    elif strategy == "index-nl-swapped":
        work["probe"] = float(rows[0])
    return work


def _refinements(ops: JoinOperands, p: float) -> dict[str, float]:
    """The exact refinements of a filter-and-refine run: one per
    expected match of the ``|R| x |S|`` pairs."""
    return {ops.kinds[0]: p * len(ops.rel_r) * len(ops.rel_s)}


def _price_partition(ops: JoinOperands, p: float, memory_pages: int) -> dict[str, float]:
    # Both column snapshots were just read by the planner's sampler, so
    # the join finds them as buffer hits: no page is read.
    refine = _refinements(ops, p)
    return {"sweep_row": float(sum(ops.rows)), "sweep_pair": sum(refine.values()), **refine}


def _price_tree(ops: JoinOperands, p: float, memory_pages: int) -> dict[str, float]:
    # Counted on the actual trees (Section 4's full tree's count is ~10x
    # low at 100 rows).  Algorithm JOIN tests a pair of nodes once for
    # both its sides, where an index nested loop tests each node
    # once per probing object: half the mean of the two probe directions'
    # sampled totals predicts the join's metered Θ-filter evaluations
    # within 0.75-1.4x on the calibration's rectangles and 12-gons of
    # 100-3,000 rows (EXPERIMENTS.md), 0.6x on denser data.  Each
    # relation's pages are read once, as the index nested loops read them.
    return {
        "theta": (_probe_evals(ops, False) + _probe_evals(ops, True)) / 4.0,
        "io": float(ops.rel_r.num_pages + ops.rel_s.num_pages),
        **_refinements(ops, p),
    }


def _price_scan(ops: JoinOperands, p: float, memory_pages: int) -> dict[str, float]:
    # The blocked loop as it runs: every pair of the actual operands
    # tested, the matching ones in full, R read once in (M-10)-page
    # chunks and S once per chunk.
    chunks = -(-ops.rel_r.num_pages // max(1, memory_pages - 10))
    return {
        ops.kinds[1]: float(len(ops.rel_r) * len(ops.rel_s)),
        **_refinements(ops, p),
        "io": float(ops.rel_r.num_pages + chunks * ops.rel_s.num_pages),
    }


def _probe_evals(ops: JoinOperands, swapped: bool) -> float:
    """Θ-filter tests of one tree selection per tuple of S (of R when
    ``swapped``) on the other's tree: ``|outer|`` times the nodes a
    sampled selection examines (Section 4.3's ``C_II^Θ``, counted on
    the actual tree).  Kept on the probed relation until either operand
    moves: the tree join's price asks for both directions, each index
    nested loop's for one, and every plan of an unchanged pair again."""
    outer, column, inner, inner_column = ops.rel_s, ops.column_s, ops.rel_r, ops.column_r
    if swapped:
        outer, column, inner, inner_column = inner, inner_column, outer, column

    def count() -> float:
        # The planner has just read the snapshot: look, do not charge.
        columns = outer.derived(("columns", column)) or column_snapshot(outer, column)
        return len(outer) * sample_select_evals(
            inner.index_on(inner_column), columns.geoms, ops.theta.filter_operator(),
            reverse=not swapped,
        )

    key = ("probe-evals", outer.uid, column, inner_column, ops.theta.name, swapped)
    return inner.derive_with(key, outer, count)


def _price_index_nl(swapped: bool):
    """Section 4.3's index-supported join: one tree selection per tuple
    of the scanned relation (S, or R when ``swapped``) on the other's
    tree (:func:`_probe_evals`); both relations' pages are read once
    (the probes' pages stay in the pool)."""
    def price(ops: JoinOperands, p: float, memory_pages: int) -> dict[str, float]:
        return {
            "probe": float(len(ops.rel_r if swapped else ops.rel_s)),
            "theta": _probe_evals(ops, swapped),
            "io": float(ops.rel_r.num_pages + ops.rel_s.num_pages),
            **_refinements(ops, p),
        }
    return price


def _price_join_index(ops: JoinOperands, p: float, memory_pages: int) -> dict[str, float]:
    # The index's own pages, as the join reads them; the tuples fetched
    # under ``collect_tuples`` stay unpriced, as for every strategy.
    return {"io": float(ops.join_index.pages)}


#: Every join algorithm, keyed by its executor name.  Table order is the
#: order :meth:`~repro.core.executor.SpatialQueryExecutor.execute_join`
#: falls back in when a strategy dies on a storage failure: the
#: partition sweep first (fastest when applicable), then the synchronized
#: tree join, the z-order merge, and finally the always-applicable nested
#: loop.  Paper numbering: ``scan`` is strategy I, ``tree`` strategy II
#: (Algorithm JOIN), ``join-index`` strategy III (Valduriez), ``index-nl``
#: the index-supported join, ``zorder`` Orenstein's sort-merge.
JOIN_STRATEGIES: dict[str, JoinStrategy] = {s.name: s for s in (
    JoinStrategy(
        "partition", _run_partition,
        refusal=_overlaps_only(
            "the partition-parallel strategy applies to the "
            "'overlaps' operator only (its plane-sweep filter is "
            "MBR intersection)"
        ),
        interval=True, fallback=True, price=_price_partition,
    ),
    JoinStrategy(
        "tree", _run_tree,
        refusal=lambda ops: (
            _no_index(ops.rel_r, ops.column_r) or _no_index(ops.rel_s, ops.column_s)
        ),
        fallback=True, price=_price_tree,
    ),
    JoinStrategy(
        "zorder", _run_zorder,
        refusal=_overlaps_only(
            "the z-order sort-merge strategy applies to the "
            "'overlaps' operator only (Section 2.2)"
        ),
        fallback=True,
    ),
    JoinStrategy("scan", _run_scan, fallback=True, price=_price_scan),
    JoinStrategy(
        "index-nl", _run_index_nl,
        refusal=lambda ops: _no_index(ops.rel_r, ops.column_r),
        price=_price_index_nl(swapped=False),
    ),
    JoinStrategy(
        "index-nl-swapped", _run_index_nl_swapped,
        refusal=lambda ops: _no_index(ops.rel_s, ops.column_s),
        price=_price_index_nl(swapped=True),
    ),
    JoinStrategy(
        "join-index", _run_join_index, refusal=_unregistered,
        price=_price_join_index,
    ),
)}


def applicable(ops: JoinOperands) -> list[JoinStrategy]:
    """The registered strategies that can run on ``ops``, in table order."""
    return [s for s in JOIN_STRATEGIES.values() if s.refusal(ops) is None]


def strategy_for_label(label: str) -> JoinStrategy | None:
    """The descriptor behind a result's strategy label.

    Router labels carry the shard count in a bracket suffix and a
    ``shard-`` prefix (``"shard-partition[3]"``): a sharded join is the
    same grid-partition sweep with the grid spread across workers, and
    its price holds for the *fleet-merged* meter, which the
    reference-point rule keeps invariant under the split.
    """
    return JOIN_STRATEGIES.get(label.split("[")[0].removeprefix("shard-"))


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------

def _select_tree(ctx, relation, column, query, theta, want_candidates):
    # The traversal reports its Theta-candidate set as a free byproduct
    # (what the cache's containment tier stores).
    candidates = [] if want_candidates else None
    result = spatial_select(
        relation.index_on(column), query, theta,
        accessor=ctx.cold_accessor(relation),
        meter=ctx.meter, order=ctx.order,
        tracer=ctx.tracer, metrics=ctx.metrics,
        candidates_out=candidates, cancel=ctx.cancel,
    )
    return result, candidates


def _select_scan(ctx, relation, column, query, theta, want_candidates):
    result = nested_loop_select(
        relation, column, query, theta,
        meter=ctx.meter, memory_pages=ctx.memory_pages,
    )
    return result, None


#: Selection algorithms: ``run(ctx, relation, column, query, theta,
#: want_candidates) -> (SelectResult, Theta candidates | None)``.
SELECT_STRATEGIES = {"tree": _select_tree, "scan": _select_scan}


def lookup(table: Mapping[str, Any], name: Any, kind: str) -> Any:
    """The descriptor registered under ``name``.

    Anything else -- a non-string from the wire included -- is refused
    with a typed error before a span opens or the cache is probed.
    """
    strategy = table.get(name) if isinstance(name, str) else None
    if strategy is None:
        raise JoinError(f"unknown {kind} strategy {name!r}")
    return strategy
