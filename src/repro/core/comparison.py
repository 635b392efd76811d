"""Run every applicable strategy on one query and tabulate costs.

This is the empirical mirror of the paper's comparative study: instead of
plugging parameters into the Section 4 formulas, the strategies are
actually executed against the simulated storage and their meters read
out.  All strategies must of course return the same match set -- the
comparison raises if they disagree, which doubles as an integration
check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import JoinError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.obs.drift import DriftReport
from repro.core.executor import SpatialQueryExecutor
from repro.core.report import ExecutionReport
from repro.core.strategies import JoinOperands, applicable, metered_work
from repro.costmodel.profile import seconds
from repro.join.result import JoinResult
from repro.predicates.theta import ThetaOperator
from repro.relational.relation import Relation
from repro.storage.costs import COUNTER_FIELDS, CostMeter

#: Meter counters the fixed table columns already summarize; everything
#: else declared on :class:`CostMeter` renders as an extra column when
#: non-zero.  Derived from the dataclass, not a hand-kept list, so a
#: counter added to the meter can never silently vanish from the table.
_CORE_COUNTERS = frozenset({
    "page_reads", "page_writes", "theta_filter_evals",
    "theta_exact_evals", "update_computations",
})


@dataclass(slots=True)
class ComparisonRow:
    """One strategy's measured costs.

    ``counters`` carries *every* :class:`CostMeter` counter of the run
    (keys are the meter's declared fields); the named attributes remain
    as convenient views of the classic columns.
    """

    strategy: str
    matches: int
    page_reads: int
    page_writes: int
    predicate_evals: int
    update_computations: int
    total_cost: float
    counters: dict[str, int] = field(default_factory=dict)


@dataclass(slots=True)
class ComparisonReport:
    """All strategies' rows plus the agreed-on match count.

    ``execution_reports`` is populated by resilient comparisons: one
    :class:`~repro.core.report.ExecutionReport` per strategy, recording
    retries, fallbacks, and consumed faults for that strategy's run.
    """

    query: str
    rows: list[ComparisonRow] = field(default_factory=list)
    execution_reports: dict[str, ExecutionReport] = field(default_factory=dict)
    drift: DriftReport | None = None

    def cheapest(self) -> ComparisonRow:
        if not self.rows:
            raise JoinError("empty comparison report")
        return min(self.rows, key=lambda r: r.total_cost)

    def row(self, strategy: str) -> ComparisonRow:
        for r in self.rows:
            if r.strategy == strategy:
                return r
        raise JoinError(f"no row for strategy {strategy!r}")

    def extra_counter_names(self) -> list[str]:
        """Meter counters beyond the classic columns, in declaration
        order, that at least one row actually incremented.

        Driven by :data:`~repro.storage.costs.COUNTER_FIELDS` (itself
        derived from the ``CostMeter`` dataclass), so counters added to
        the meter -- io_retries, log_writes, cache_probes, the interval
        tier's counters -- show up here without touching this module.
        """
        return [
            name for name in COUNTER_FIELDS
            if name not in _CORE_COUNTERS
            and any(r.counters.get(name, 0) for r in self.rows)
        ]

    def format_table(self) -> str:
        extras = self.extra_counter_names()
        header = (
            f"{'strategy':<18}{'matches':>9}{'reads':>9}{'writes':>9}"
            f"{'evals':>11}{'updates':>9}"
            + "".join(f"{name:>{max(9, len(name) + 2)}}" for name in extras)
            + f"{'total':>14}"
        )
        lines = [self.query, header, "-" * len(header)]
        for r in sorted(self.rows, key=lambda r: r.total_cost):
            extra_cells = "".join(
                f"{r.counters.get(name, 0):>{max(9, len(name) + 2)}}"
                for name in extras
            )
            lines.append(
                f"{r.strategy:<18}{r.matches:>9}{r.page_reads:>9}"
                f"{r.page_writes:>9}{r.predicate_evals:>11}"
                f"{r.update_computations:>9}{extra_cells}{r.total_cost:>14.1f}"
            )
        if self.drift is not None:
            lines.append("")
            lines.append(self.drift.format())
        return "\n".join(lines)


class StrategyComparison:
    """Executes a query under every applicable strategy and compares."""

    def __init__(self, memory_pages: int = 4000) -> None:
        self.executor = SpatialQueryExecutor(memory_pages)

    def compare_join(
        self,
        rel_r: Relation,
        column_r: str,
        rel_s: Relation,
        column_s: str,
        theta: ThetaOperator,
        *,
        include_join_index: bool = True,
        include_zorder: bool = False,
        resilient: bool = False,
        check_drift: bool = False,
        interval=None,
    ) -> ComparisonReport:
        """Run every applicable registered join strategy; verify agreement.

        ``scan`` is the reference and runs first, the rest follow in
        table order.  ``zorder`` is opt-in, ``include_join_index``
        precomputes (or skips) the join index, and ``index-nl-swapped``
        -- ``index-nl`` with the operand roles exchanged -- is left out:
        one row per algorithm.

        With ``resilient=True`` each strategy runs through
        :meth:`SpatialQueryExecutor.execute_join` -- transient storage
        faults are retried, failed strategies fall back down the chain,
        and the per-strategy :class:`ExecutionReport` lands in
        ``report.execution_reports``.  The agreement check is unchanged:
        whatever survived must produce the reference pair set.

        With ``check_drift=True`` the join is additionally planned once
        and every measured strategy the plan priced gets a row in
        ``report.drift``: its predicted seconds beside the seconds of
        the work its meter counted -- the empirical table and the
        planner's claims about it, side by side.

        ``interval`` forwards the raster-interval second-tier setting to
        every strategy run (see :meth:`SpatialQueryExecutor.join`); the
        agreement check then doubles as a filter-exactness check.
        """
        executor = self.executor
        ji = executor.join_index_for(rel_r, rel_s, column_r, column_s, theta)
        if include_join_index and ji is None:
            ji = executor.precompute_join_index(
                rel_r, rel_s, column_r, column_s, theta
            )
        ops = JoinOperands(rel_r, column_r, rel_s, column_s, theta, join_index=ji)
        report = ComparisonReport(query=ops.query)

        def run(strategy: str) -> JoinResult:
            meter = CostMeter()
            if resilient:
                res, exec_report = executor.execute_join(
                    rel_r, column_r, rel_s, column_s, theta,
                    strategy=strategy, meter=meter, interval=interval,
                )
                report.execution_reports[strategy] = exec_report
                # Strategy extras (grid size, workers, ...) come from the
                # winning attempt; the counters cover *all* attempts.
                stats = dict(res.stats)
                stats.update(meter.snapshot())
            else:
                res = executor.join(
                    rel_r, column_r, rel_s, column_s, theta,
                    strategy=strategy, meter=meter, interval=interval,
                )
                stats = res.stats
            report.rows.append(_row_from(strategy, len(res.pair_set()), stats))
            return res

        reference = run("scan").pair_set()

        skipped = {"scan", "index-nl-swapped"}
        if not include_zorder:
            skipped.add("zorder")
        if not include_join_index:
            skipped.add("join-index")
        for strategy in applicable(ops):
            if strategy.name in skipped:
                continue
            res = run(strategy.name)
            if res.pair_set() != reference:
                raise JoinError(
                    f"strategy disagreement: {strategy.name} found "
                    f"{len(res.pair_set())} pairs, scan {len(reference)}"
                )

        if check_drift:
            from repro.core.optimizer import plan_join
            from repro.obs.drift import drift_from_measurements

            plan = plan_join(
                *ops.positional,
                join_index=ops.join_index,
                memory_pages=executor.memory_pages,
            )
            report.drift = drift_from_measurements(
                plan,
                [
                    (r.strategy, seconds(metered_work(
                        r.strategy, r.counters,
                        kinds=ops.kinds, rows=ops.rows, matches=r.matches,
                    )))
                    for r in report.rows
                ],
                query=report.query,
            )
        return report


def _row_from(strategy: str, matches: int, stats: dict[str, float]) -> ComparisonRow:
    return ComparisonRow(
        strategy=strategy,
        matches=matches,
        page_reads=int(stats.get("page_reads", 0)),
        page_writes=int(stats.get("page_writes", 0)),
        predicate_evals=int(
            stats.get("theta_filter_evals", 0) + stats.get("theta_exact_evals", 0)
        ),
        update_computations=int(stats.get("update_computations", 0)),
        total_cost=float(stats.get("total", 0.0)),
        counters={name: int(stats.get(name, 0)) for name in COUNTER_FIELDS},
    )
