"""Cost-based strategy choice: the paper's model used as an optimizer.

The comparative study (Section 4.5) tells a query optimizer exactly what
it needs: given a selectivity, which strategy is cheapest?  This module
closes the loop -- it estimates the selectivity from the actual data by
sampling, instantiates the Section 4 cost formulas at the *actual*
relation geometry (tree height and fan-out read off the attached index,
page arithmetic off the relation), and ranks the applicable strategies
by the *seconds* their predicted work takes under the measured profile
(:mod:`repro.costmodel.profile`).  Table 3's units, in which the 1993
study ranks, are kept beside them: drift detection and cache admission
compare them with metered totals.

``format_explain`` returns the full decision record: the estimate, each
strategy's predicted seconds and cost, and the pick -- so callers can
audit a choice the way they would read an EXPLAIN plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.strategies import (
    INTERVAL_SUFFIX,
    JOIN_STRATEGIES,
    JoinOperands,
    applicable,
)
from repro.costmodel.distributions import make_distribution
from repro.costmodel.estimation import (
    IntervalResolutionEstimate,
    SelectivityEstimate,
    sample_interval_resolution,
    sample_join_selectivity,
)
from repro.costmodel.join_costs import with_interval_filter
from repro.costmodel.parameters import ModelParameters
from repro.costmodel.profile import MEASURED_PROFILE, seconds
from repro.predicates.theta import Overlaps, ThetaOperator
from repro.relational.columns import column_snapshot, data_universe
from repro.relational.relation import Relation


@dataclass(slots=True)
class JoinPlan:
    """The optimizer's decision record for one join."""

    #: The model with the least ``predicted_seconds``.
    strategy: str
    estimate: SelectivityEstimate
    parameters: ModelParameters
    #: Each model's cost in Table 3's units (what drift and admission
    #: compare with a metered total).
    predicted_costs: dict[str, float] = field(default_factory=dict)
    #: Probability the query cache serves this join without executing.
    hit_probability: float = 0.0
    #: ``predicted_costs`` scaled by ``1 - hit_probability``: the
    #: expected cost once cache hits are free.  ``predicted_costs``
    #: stays raw so drift detection compares model vs. an actual
    #: *execution*, never a cache serve.
    discounted_costs: dict[str, float] = field(default_factory=dict)
    #: Whether the raster-interval second tier is predicted to pay for
    #: the chosen strategy (its ``<model>+INT`` entry beats the base).
    use_interval: bool = False
    #: The sampled resolution estimate the decision was based on.
    interval_resolution: IntervalResolutionEstimate | None = None
    #: The grid the filter would rasterize on (an ``IntervalSpec``).
    interval_spec: object | None = None
    #: Each model's predicted work by kind (``repro.costmodel.profile``).
    predicted_work: dict[str, dict[str, float]] = field(default_factory=dict)
    #: ``predicted_work`` under the measured profile: the ranking.
    predicted_seconds: dict[str, float] = field(default_factory=dict)

    def format_explain(self) -> str:
        lines = [
            f"estimated selectivity: p = {self.estimate.p:.3e} "
            f"({self.estimate.matches}/{self.estimate.sample_pairs} sampled pairs, "
            f"std err {self.estimate.std_error:.1e})",
            f"model: n={self.parameters.n} k={self.parameters.k} "
            f"N={self.parameters.N} m={self.parameters.m}",
            "predicted seconds, and costs in Table 3 units:",
        ]
        for name, secs in sorted(self.predicted_seconds.items(), key=lambda kv: kv[1]):
            marker = "  -> " if name == self.strategy else "     "
            lines.append(
                f"{marker}{name:12s} {secs:12.6f} s {self.predicted_costs[name]:16.1f}"
            )
        if self.interval_resolution is not None:
            res = self.interval_resolution
            lines.append(
                f"interval filter: {'on' if self.use_interval else 'off'} "
                f"(resolves {res.resolve_fraction:.0%} of "
                f"{res.candidates} sampled candidates)"
            )
        if self.hit_probability > 0.0:
            best = self.discounted_costs.get(
                self.strategy, self.predicted_costs.get(self.strategy, 0.0)
            )
            lines.append(
                f"cache hit probability: {self.hit_probability:.2f} "
                f"(expected cost {best:.1f})"
            )
        return "\n".join(lines)


def fit_parameters(
    rel_r: Relation,
    column_r: str,
    p: float,
    *,
    memory_pages: int = 4000,
) -> ModelParameters:
    """Model parameters matching the actual relation and index geometry.

    The balanced-tree abstraction is fitted to the attached index: ``k``
    is the index fan-out, ``n`` the smallest height making the full tree
    at least as large as the relation.  Page arithmetic comes from the
    relation itself.
    """
    n_tuples = max(2, len(rel_r))
    if rel_r.has_index_on(column_r):
        index = rel_r.index_on(column_r)
        k = getattr(index, "max_entries", None) or getattr(index, "k", 10)
    else:
        k = 10
    k = max(2, int(k))
    n = max(1, math.ceil(math.log(n_tuples * (k - 1) + 1, k)) - 1)
    return ModelParameters(
        n=n,
        k=k,
        p=min(1.0, max(0.0, p)),
        v=rel_r.record_size,
        l=rel_r.utilization,
        h=n,
        s=rel_r.buffer_pool.disk.page_size,
        z=100,
        big_m=max(11, memory_pages),
    )


def plan_join(
    rel_r: Relation,
    column_r: str,
    rel_s: Relation,
    column_s: str,
    theta: ThetaOperator,
    *,
    join_index_available: bool = False,
    memory_pages: int = 4000,
    sample_pairs: int = 400,
    seed: int = 0,
    distribution: str = "uniform",
    workers: int = 1,
    cache=None,
    interval=None,
    interval_sample_pairs: int = 200,
) -> JoinPlan:
    """Estimate, predict, rank -- and return the full decision record.

    Only executable strategies are ranked -- each applicable, priced
    entry of :data:`~repro.core.strategies.JOIN_STRATEGIES` prices
    itself: the tree strategies require indices on both columns, the
    index nested loops one, the join-index strategy requires
    ``join_index_available``, and the partition-parallel sweep
    (``D_PAR``, whose Table-3 cost is predicted at ``workers`` workers)
    requires the ``overlaps`` operator.  Each price is a cost in Table 3's
    units (``predicted_costs``) and the work behind it
    (``predicted_work``); ``plan.strategy`` is the model whose work takes
    the fewest seconds under the measured profile
    (:data:`~repro.costmodel.profile.MEASURED_PROFILE`,
    ``predicted_seconds``).
    The UNIFORM distribution is the sensible default when nothing is
    known about the operator's locality.

    When a :class:`~repro.cache.cache.QueryCache` is passed, the plan
    also carries the cache's hit probability for this join and each
    strategy's cost discounted by it.  The discount is uniform -- a hit
    serves the answer regardless of which strategy would have computed
    it -- so the *ranking* is unchanged; what changes is the expected
    cost a caller should budget for.

    ``interval`` asks the planner to also weigh the raster-interval
    second tier: pass an
    :class:`~repro.intermediate.filter.IntervalSpec` (or ``True`` for a
    data-fitted default grid).  The planner samples how many candidate
    pairs the intervals resolve outright
    (:func:`~repro.costmodel.estimation.estimate_interval_resolution`),
    adds a ``<model>+INT`` predicted cost and work per filter-capable
    strategy (:func:`~repro.costmodel.join_costs.with_interval_filter`,
    :func:`interval_work`) and sets ``plan.use_interval`` when the chosen
    strategy's filtered variant takes fewer seconds.  The base ranking --
    and thus ``plan.strategy`` -- is computed exactly as without
    ``interval``.

    Both samplers and the default interval grid's universe work off each
    operand's retained column snapshot
    (:func:`~repro.relational.columns.column_snapshot`): a relation is
    read here only if nothing has read it since it last changed.
    """
    columns_r = column_snapshot(rel_r, column_r)
    columns_s = column_snapshot(rel_s, column_s)
    estimate = sample_join_selectivity(
        columns_r.geoms, columns_s.geoms, theta,
        sample_pairs=sample_pairs, seed=seed,
    )
    params = fit_parameters(rel_r, column_r, estimate.p, memory_pages=memory_pages)
    dist = make_distribution(distribution, params)

    ops = JoinOperands(
        rel_r, column_r, rel_s, column_s, theta,
        join_index=join_index_available or None,
    )
    costs: dict[str, float] = {}
    work: dict[str, dict[str, float]] = {}
    filterable: list[str] = []
    for strategy in applicable(ops):
        priced = strategy.price(ops, dist, workers)
        for name, price in priced.items():
            costs[name], work[name] = price
        if strategy.interval:
            filterable += priced
    best = rank(work)

    use_interval = False
    resolution: IntervalResolutionEstimate | None = None
    spec = None
    if interval and isinstance(theta, Overlaps):
        from repro.intermediate.filter import IntervalSpec

        spec = interval
        if not isinstance(spec, IntervalSpec):
            spec = IntervalSpec(universe=data_universe(columns_r, columns_s))
        resolution = sample_interval_resolution(
            columns_r.geoms, columns_s.geoms, spec,
            sample_pairs=interval_sample_pairs, seed=seed,
        )
        candidates = (
            resolution.mbr_fraction * float(len(rel_r)) * float(len(rel_s))
        )
        build_objects = float(len(rel_r) + len(rel_s))
        for name in filterable:
            costs[name + INTERVAL_SUFFIX] = with_interval_filter(
                costs[name], params,
                candidates=candidates,
                resolve_fraction=resolution.resolve_fraction,
                build_objects=build_objects,
            )
            work[name + INTERVAL_SUFFIX] = interval_work(
                work[name], candidates=candidates,
                resolve_fraction=resolution.resolve_fraction,
                build_objects=build_objects,
            )
        filtered = work.get(best + INTERVAL_SUFFIX)
        use_interval = filtered is not None and seconds(filtered) < seconds(work[best])

    hit_p = 0.0
    if cache is not None:
        hit_p = cache.join_hit_probability(rel_r, column_r, rel_s, column_s, theta)
    return JoinPlan(
        strategy=best,
        estimate=estimate,
        parameters=params,
        predicted_costs=costs,
        hit_probability=hit_p,
        discounted_costs={
            name: cost * (1.0 - hit_p) for name, cost in costs.items()
        },
        use_interval=use_interval,
        interval_resolution=resolution,
        interval_spec=spec,
        predicted_work=work,
        predicted_seconds={name: seconds(w) for name, w in work.items()},
    )


def rank(
    work: Mapping[str, Mapping[str, float]],
    profile: Mapping[str, float] = MEASURED_PROFILE,
) -> str:
    """The model whose predicted ``work`` takes the fewest seconds under
    ``profile``: ``plan_join``'s pick.  ``<model>+INT`` entries are not
    ranked -- the interval tier is weighed for the pick afterwards, it
    is no strategy of its own."""
    return min(
        (name for name in work if INTERVAL_SUFFIX not in name),
        key=lambda name: seconds(work[name], profile),
    )


def interval_work(
    base: dict[str, float],
    *,
    candidates: float,
    resolve_fraction: float,
    build_objects: float,
) -> dict[str, float]:
    """``base`` with the raster-interval tier threaded in: every
    candidate pair is probed, every object approximated once, and the
    resolved share of the refinements is saved
    (:func:`~repro.costmodel.join_costs.interval_filter_delta`'s three
    terms, as work)."""
    work = {
        kind: count * (1.0 - resolve_fraction) if kind.startswith("exact.") else count
        for kind, count in base.items()
    }
    work["interval_probe"] = candidates
    work["interval_build"] = build_objects
    return work


def executable_strategy(plan: JoinPlan) -> str:
    """The :class:`SpatialQueryExecutor` strategy name for a plan."""
    return next(
        s.name for s in JOIN_STRATEGIES.values() if plan.strategy in s.models
    )
