"""Cost-based strategy choice: the comparative study's question, asked
of the operands at hand.

The comparative study (Section 4.5) tells a query optimizer exactly what
it needs: given a selectivity, which strategy is cheapest?  This module
answers it for one join -- it estimates the selectivity from the actual
data by sampling, has each applicable strategy predict the work it
would do from three things only (that selectivity, the memory budget
and the structures it is handed: relations, trees, a join index), and
ranks the strategies by the *seconds* that work takes under the
measured profile (:mod:`repro.costmodel.profile`).  Section 4's model
of a full tree, and Table 3's units in which the 1993 study ranks, stay
in :mod:`repro.costmodel` for the paper's figures.

``format_explain`` returns the full decision record: the estimate, each
strategy's predicted seconds, and the pick -- so callers can audit a
choice the way they would read an EXPLAIN plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.strategies import (
    INTERVAL_SUFFIX,
    JOIN_STRATEGIES,
    JoinOperands,
    applicable,
)
from repro.costmodel.estimation import (
    IntervalResolutionEstimate,
    SelectivityEstimate,
    sample_interval_resolution,
    sample_join_selectivity,
)
from repro.costmodel.profile import MEASURED_PROFILE, seconds
from repro.predicates.theta import Overlaps, ThetaOperator
from repro.relational.columns import column_snapshot, data_universe
from repro.relational.relation import Relation

#: Sampled pairs behind the interval tier's resolve fraction.
INTERVAL_SAMPLE_PAIRS = 200


@dataclass(slots=True)
class JoinPlan:
    """The optimizer's decision record for one join."""

    #: The strategy with the least ``predicted_seconds``.
    strategy: str
    estimate: SelectivityEstimate
    #: Whether the raster-interval second tier is predicted to pay for
    #: the chosen strategy (its ``<strategy>+INT`` entry beats the base).
    use_interval: bool = False
    #: The sampled resolution estimate the decision was based on.
    interval_resolution: IntervalResolutionEstimate | None = None
    #: The grid the filter would rasterize on (an ``IntervalSpec``).
    interval_spec: object | None = None
    #: Each strategy's predicted work by kind (``repro.costmodel.profile``).
    predicted_work: dict[str, dict[str, float]] = field(default_factory=dict)
    #: ``predicted_work`` under the measured profile: the ranking.
    predicted_seconds: dict[str, float] = field(default_factory=dict)

    def format_explain(self) -> str:
        lines = [
            f"estimated selectivity: p = {self.estimate.p:.3e} "
            f"({self.estimate.matches}/{self.estimate.sample_pairs} sampled pairs, "
            f"std err {self.estimate.std_error:.1e})",
            "predicted seconds:",
        ]
        for name, secs in sorted(self.predicted_seconds.items(), key=lambda kv: kv[1]):
            marker = "  -> " if name == self.strategy else "     "
            lines.append(f"{marker}{name:20s} {secs:12.6f} s")
        if self.interval_resolution is not None:
            res = self.interval_resolution
            lines.append(
                f"interval filter: {'on' if self.use_interval else 'off'} "
                f"(resolves {res.resolve_fraction:.0%} of "
                f"{res.candidates} sampled candidates)"
            )
        return "\n".join(lines)


def plan_join(
    rel_r: Relation,
    column_r: str,
    rel_s: Relation,
    column_s: str,
    theta: ThetaOperator,
    *,
    join_index=None,
    memory_pages: int = 4000,
    sample_pairs: int = 400,
    seed: int = 0,
    workers: int = 1,
    interval=None,
) -> JoinPlan:
    """Estimate, predict, rank -- and return the full decision record.

    Only executable strategies are ranked -- each applicable, priced
    entry of :data:`~repro.core.strategies.JOIN_STRATEGIES` prices
    itself: the tree strategies require indices on both columns, the
    index nested loops one, the join-index strategy the registered
    :class:`~repro.join.join_index.JoinIndex` passed as ``join_index``
    (priced by the pages it holds), and the partition-parallel sweep
    the ``overlaps`` operator.  Each price is the work the strategy is
    predicted to do (``predicted_work``, keyed by strategy name) from
    the sampled selectivity, ``memory_pages`` and the structures it
    runs on; ``plan.strategy`` is the strategy whose work takes the
    fewest seconds under the measured profile
    (:data:`~repro.costmodel.profile.MEASURED_PROFILE`,
    ``predicted_seconds``).  ``workers`` is accepted for the callers
    that size the sweep's grid by it; the sweep runs in one process, so
    no price depends on it.

    ``interval`` asks the planner to also weigh the raster-interval
    second tier: pass an
    :class:`~repro.intermediate.filter.IntervalSpec` (or ``True`` for a
    data-fitted default grid).  The planner samples how many candidate
    pairs the intervals resolve outright
    (:func:`~repro.costmodel.estimation.estimate_interval_resolution`),
    adds a ``<strategy>+INT`` predicted work per filter-capable strategy
    (:func:`interval_work`) and sets ``plan.use_interval`` when the chosen
    strategy's filtered variant takes fewer seconds.  The base ranking --
    and thus ``plan.strategy`` -- is computed exactly as without
    ``interval``.  One rule runs the verdict: the executor's ``auto``
    decides the tier (it plans with the call's interval setting and
    threads the tier only where ``plan.use_interval`` says it pays), an
    explicit strategy forces it as set.

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
    ops = JoinOperands(rel_r, column_r, rel_s, column_s, theta, join_index=join_index)
    work = {
        strategy.name: strategy.price(ops, estimate.p, memory_pages)
        for strategy in applicable(ops) if strategy.price is not None
    }
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
            sample_pairs=INTERVAL_SAMPLE_PAIRS, seed=seed,
        )
        candidates = (
            resolution.mbr_fraction * float(len(rel_r)) * float(len(rel_s))
        )
        build_objects = float(len(rel_r) + len(rel_s))
        for name in [name for name in work if JOIN_STRATEGIES[name].interval]:
            work[name + INTERVAL_SUFFIX] = interval_work(
                work[name], candidates=candidates,
                resolve_fraction=resolution.resolve_fraction,
                build_objects=build_objects,
            )
        filtered = work.get(best + INTERVAL_SUFFIX)
        use_interval = filtered is not None and seconds(filtered) < seconds(work[best])

    return JoinPlan(
        strategy=best,
        estimate=estimate,
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
    """The strategy whose predicted ``work`` takes the fewest seconds
    under ``profile``: ``plan_join``'s pick.  ``<strategy>+INT`` entries are not
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
    resolved share of the refinements is saved."""
    work = {
        kind: count * (1.0 - resolve_fraction) if kind.startswith("exact.") else count
        for kind, count in base.items()
    }
    work["interval_probe"] = candidates
    work["interval_build"] = build_objects
    return work


def executable_strategy(plan: JoinPlan) -> str:
    """The :class:`SpatialQueryExecutor` strategy name for a plan."""
    return plan.strategy
