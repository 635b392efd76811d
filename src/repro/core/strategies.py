"""The join-strategy registry and the per-query execution context.

The paper's comparative study (Sections 4.4-4.5) treats a join strategy
as one thing: an algorithm, the operands it applies to, and one cost
formula ``D_*``.  :data:`JOIN_STRATEGIES` holds exactly that, one
:class:`JoinStrategy` per algorithm, and every consumer -- executor
dispatch and fallback chain, the planner's ``predicted_costs``, the
drift detector's model lookup, the strategy comparison and the CLI's
``--strategy`` choices -- reads the table.  Adding a strategy is adding
an entry here.

Strategies know nothing of caching, tracing spans around them, fallback
or sharding: ``run(ctx, operands)`` unpacks the :class:`ExecContext`
into the keywords its kernel takes and returns the kernel's result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple

from repro.core.cancel import CancellationToken
from repro.costmodel.distributions import Distribution
from repro.costmodel.estimation import sample_select_evals
from repro.costmodel.join_costs import (
    d_join_index,
    d_nested_loop,
    d_partition,
    d_tree_clustered,
    d_tree_unclustered,
    join_index_ios,
)
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

#: Suffix of the ``predicted_costs`` entry that prices a model *with* the
#: raster-interval tier's probe/build/save delta (``D_PAR+INT``).
INTERVAL_SUFFIX = "+INT"


@dataclass(frozen=True, slots=True)
class ExecContext:
    """Every cross-cutting handle of one query, resolved once per public
    call from the keywords the caller passed and the executor's defaults.

    ``interval`` is the second-tier *setting* (falsy, ``True`` or an
    ``IntervalSpec``); ``refiner`` is the filter an attempt built from it
    for the strategy it is about to run, ``None`` on the exact path.
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

    ``join_index`` is the fresh registered index for exactly this join,
    if there is one.  (The planner, which is only told *whether* one
    exists, passes any non-``None`` marker; only ``run`` dereferences it.)
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
    #: exact refinement (the blocked scans and the join index have no
    #: refine site to replace).
    interval: bool = False
    #: A link of the storage-failure fallback chain, tried in table order.
    fallback: bool = False
    #: Section-4 model names ``price`` may emit, preferred first.
    models: tuple[str, ...] = ()
    #: ``(operands, distribution, workers) -> {model name: Price}``.
    price: Callable[[JoinOperands, Distribution, int], dict[str, "Price"]] = (
        lambda ops, dist, workers: {}
    )

    def filters(self, interval: Any, theta: ThetaOperator) -> bool:
        """Does a run under this second-tier setting thread the refiner?"""
        return bool(interval) and self.interval and isinstance(theta, Overlaps)

    def model_in(self, predicted_costs: Mapping[str, float], interval: bool) -> str | None:
        """The entry of a plan's ``predicted_costs`` that prices a run.

        A run that threaded the interval refiner is held to the
        ``<model>+INT`` prediction -- the cost of the path that executed
        -- and to the base formula when the plan never priced the filter.
        """
        for model in self.models:
            if interval and model + INTERVAL_SUFFIX in predicted_costs:
                return model + INTERVAL_SUFFIX
            if model in predicted_costs:
                return model
        return None


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
        refiner=ctx.refiner,
    )


def _run_zorder(ctx: ExecContext, ops: JoinOperands) -> JoinResult:
    return zorder_merge_join(
        ops.rel_r, ops.rel_s, ops.column_r, ops.column_s,
        universe=ops.universe(), meter=ctx.meter,
        memory_pages=ctx.memory_pages,
        tracer=ctx.tracer, refiner=ctx.refiner,
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
# Prices: Table 3 units and the work the profile turns into seconds
# ----------------------------------------------------------------------

class Price(NamedTuple):
    """One model's prediction for a run.

    ``units`` is the Section-4 cost in Table 3's units, which drift
    detection and cache admission compare with the metered total;
    ``work`` is the predicted work by kind
    (:data:`~repro.costmodel.profile.WORK_KINDS`), which the measured
    profile turns into the seconds the planner ranks by.
    """

    units: float
    work: dict[str, float]


def _kinds(ops: JoinOperands) -> tuple[str, str]:
    """The ``(exact, pair)`` work kinds of these operands' predicate."""
    return predicate_kinds(
        ops.theta,
        ops.rel_r.schema.column(ops.column_r).type,
        ops.rel_s.schema.column(ops.column_s).type,
    )


def _refinements(ops: JoinOperands, dist: Distribution) -> dict[str, float]:
    """The exact refinements of a filter-and-refine run: one per
    expected match of the ``|R| x |S|`` pairs."""
    return {_kinds(ops)[0]: dist.params.p * len(ops.rel_r) * len(ops.rel_s)}


def _price_partition(ops: JoinOperands, dist: Distribution, workers: int) -> dict[str, Price]:
    # Both column snapshots were just read by the planner's sampler, so
    # the join finds them as buffer hits: no page is read.
    rows = (len(ops.rel_r), len(ops.rel_s))
    refine = _refinements(ops, dist)
    return {"D_PAR": Price(
        d_partition(dist.params, rows, workers),
        {"sweep_row": float(sum(rows)), "sweep_pair": sum(refine.values()), **refine},
    )}


def _price_tree(ops: JoinOperands, dist: Distribution, workers: int) -> dict[str, Price]:
    # Counted on the actual trees, not the fitted full tree (whose count
    # is ~10x low at 100 rows).  Algorithm JOIN tests a pair of nodes
    # once for both its sides, where an index nested loop tests each node
    # once per probing object: half the mean of the two probe directions'
    # sampled totals predicts the join's metered Θ-filter evaluations
    # within 0.75-1.4x on the calibration's rectangles and 12-gons of
    # 100-3,000 rows (EXPERIMENTS.md), 0.6x on denser data.  Each
    # relation's pages are read once, as the index nested loops read them.
    work = {
        "theta": (_probe_evals(ops, False) + _probe_evals(ops, True)) / 4.0,
        "io": float(ops.rel_r.num_pages + ops.rel_s.num_pages),
        **_refinements(ops, dist),
    }
    if ops.rel_r.is_clustered and ops.rel_s.is_clustered:
        return {"D_IIb": Price(d_tree_clustered(dist), work)}
    return {"D_IIa": Price(d_tree_unclustered(dist), work)}


def _price_scan(ops: JoinOperands, dist: Distribution, workers: int) -> dict[str, Price]:
    # The blocked loop as it runs: every pair of the actual operands
    # tested, the matching ones in full, R read once in (M-10)-page
    # chunks and S once per chunk.
    chunks = -(-ops.rel_r.num_pages // (dist.params.big_m - 10))
    return {"D_I": Price(d_nested_loop(dist.params), {
        _kinds(ops)[1]: float(len(ops.rel_r) * len(ops.rel_s)),
        **_refinements(ops, dist),
        "io": float(ops.rel_r.num_pages + chunks * ops.rel_s.num_pages),
    })}


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


def _price_index_nl(model: str, swapped: bool):
    """Section 4.3's index-supported join: one tree selection per tuple
    of the scanned relation (S, or R when ``swapped``) on the other's
    tree (:func:`_probe_evals`); both relations' pages are read once
    (the probes' pages stay in the pool)."""
    def price(ops: JoinOperands, dist: Distribution, workers: int) -> dict[str, Price]:
        params = dist.params
        probes = float(len(ops.rel_r if swapped else ops.rel_s))
        evals = _probe_evals(ops, swapped)
        pages = float(ops.rel_r.num_pages + ops.rel_s.num_pages)
        return {model: Price(
            evals * params.c_theta + pages * params.c_io,
            {"probe": probes, "theta": evals, "io": pages, **_refinements(ops, dist)},
        )}
    return price


def _price_join_index(ops: JoinOperands, dist: Distribution, workers: int) -> dict[str, Price]:
    return {"D_III": Price(d_join_index(dist), {"io": join_index_ios(dist)})}


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
        interval=True, fallback=True, models=("D_PAR",),
        price=_price_partition,
    ),
    JoinStrategy(
        "tree", _run_tree,
        refusal=lambda ops: (
            _no_index(ops.rel_r, ops.column_r) or _no_index(ops.rel_s, ops.column_s)
        ),
        interval=True, fallback=True, models=("D_IIb", "D_IIa"),
        price=_price_tree,
    ),
    JoinStrategy(
        "zorder", _run_zorder,
        refusal=_overlaps_only(
            "the z-order sort-merge strategy applies to the "
            "'overlaps' operator only (Section 2.2)"
        ),
        interval=True, fallback=True,
    ),
    JoinStrategy(
        "scan", _run_scan, fallback=True, models=("D_I",), price=_price_scan,
    ),
    JoinStrategy(
        "index-nl", _run_index_nl,
        refusal=lambda ops: _no_index(ops.rel_r, ops.column_r),
        models=("D_INL",), price=_price_index_nl("D_INL", swapped=False),
    ),
    JoinStrategy(
        "index-nl-swapped", _run_index_nl_swapped,
        refusal=lambda ops: _no_index(ops.rel_s, ops.column_s),
        models=("D_INL'",), price=_price_index_nl("D_INL'", swapped=True),
    ),
    JoinStrategy(
        "join-index", _run_join_index, refusal=_unregistered,
        models=("D_III",), price=_price_join_index,
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
    its formula prices the *fleet-merged* meter, which the
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
