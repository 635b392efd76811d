"""Model-vs-measured drift detection.

The optimizer picks strategies from the Section 4 cost formulas; nothing
so far verified that the formulas still track the engine they describe
after three PRs of parallel, fault-injection and WAL machinery.  This
module closes the loop: after an executed query, compare the cost the
formula predicted (the number the strategy was *chosen by*) against the
metered actuals, and flag disagreement beyond a threshold.

The error metric is the one :mod:`repro.costmodel.fitting` already uses
to score distributions against measured pi tables: the squared
difference of natural logs, with the same ``1e-12`` floor.  The default
threshold, :data:`DEFAULT_DRIFT_TOLERANCE`, is one decade --
``ln(10)**2`` -- matching the paper's log-log figures, where model and
measurement agreeing within an order of magnitude is agreement and
anything beyond it is a visible departure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.errors import ObservabilityError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.core.optimizer import JoinPlan

#: Same probability/cost floor as ``costmodel.fitting._FLOOR``: costs are
#: compared in log space, so exact zeros must be clamped.
FLOOR = 1e-12

#: One decade of disagreement in the squared-log metric of
#: :func:`repro.costmodel.fitting._fit_error`.
DEFAULT_DRIFT_TOLERANCE = math.log(10.0) ** 2

def log_error(predicted: float, measured: float) -> float:
    """Squared natural-log error, fitting.py's agreement metric."""
    return (
        math.log(max(measured, FLOOR)) - math.log(max(predicted, FLOOR))
    ) ** 2


def model_for_strategy(
    strategy: str, predicted_costs: dict[str, float], interval: bool = False
) -> str | None:
    """The model formula in ``predicted_costs`` that prices ``strategy``.

    ``strategy`` is an executor strategy name or a router label such as
    ``"shard-partition[3]"``; the registry resolves both and declares
    which formulas price each strategy.  ``interval`` says the run
    threaded the raster-interval refiner, which prefers the matching
    ``<model>+INT`` entry (see
    :meth:`~repro.core.strategies.JoinStrategy.model_in`).
    """
    from repro.core.strategies import strategy_for_label

    descriptor = strategy_for_label(strategy)
    if descriptor is None:
        return None
    return descriptor.model_in(predicted_costs, interval)


@dataclass(slots=True)
class DriftRow:
    """One strategy's predicted-vs-measured comparison."""

    strategy: str
    model: str
    predicted: float
    measured: float
    log_error: float
    drifted: bool

    @property
    def ratio(self) -> float:
        """measured / predicted (clamped at the log-space floor)."""
        return max(self.measured, FLOOR) / max(self.predicted, FLOOR)

    def describe(self) -> str:
        flag = "DRIFT" if self.drifted else "ok"
        return (
            f"{self.strategy:<12} {self.model:<6} "
            f"predicted={self.predicted:14.1f} measured={self.measured:14.1f} "
            f"x{self.ratio:8.3f} log-err={self.log_error:7.3f} [{flag}]"
        )


@dataclass(slots=True)
class DriftReport:
    """Predicted-vs-measured rows for one query, plus the verdict."""

    query: str
    threshold: float = DEFAULT_DRIFT_TOLERANCE
    rows: list[DriftRow] = field(default_factory=list)

    @property
    def drifted(self) -> bool:
        return any(r.drifted for r in self.rows)

    @property
    def worst(self) -> DriftRow | None:
        return max(self.rows, key=lambda r: r.log_error, default=None)

    def row(self, strategy: str) -> DriftRow:
        for r in self.rows:
            if r.strategy == strategy:
                return r
        raise ObservabilityError(f"no drift row for strategy {strategy!r}")

    def format(self) -> str:
        lines = [
            f"drift report: {self.query}",
            f"tolerance: squared-log error <= {self.threshold:.3f} "
            f"(one decade = {DEFAULT_DRIFT_TOLERANCE:.3f})",
        ]
        lines += [f"  {r.describe()}" for r in self.rows]
        if not self.rows:
            lines.append("  (no strategy with a model formula was measured)")
        elif self.drifted:
            worst = self.worst
            lines.append(
                f"MODEL DRIFT: {worst.strategy} off by x{worst.ratio:.2f} "
                f"(log-err {worst.log_error:.2f} > {self.threshold:.2f})"
            )
        else:
            lines.append("model tracks the measured engine within tolerance")
        return "\n".join(lines)


def drift_from_plan(
    plan: "JoinPlan",
    strategy: str,
    measured_total: float,
    *,
    interval: bool = False,
    query: str = "",
    threshold: float = DEFAULT_DRIFT_TOLERANCE,
) -> DriftReport:
    """One-row drift report for an executed plan.

    ``strategy`` is the executor strategy that actually ran (it may
    differ from the plan's pick after a fallback), ``interval`` whether
    it ran the raster-interval tier; ``measured_total`` is the weighted
    meter total of the winning attempt.  When the executed strategy has
    no formula in the plan, the report has zero rows and never flags --
    absence of a model is not drift.
    """
    return drift_from_measurements(
        plan, [(strategy, measured_total)],
        interval=interval, query=query, threshold=threshold,
    )


def drift_from_measurements(
    plan: "JoinPlan",
    measurements: Iterable[tuple[str, float]],
    *,
    interval: bool = False,
    query: str = "",
    threshold: float = DEFAULT_DRIFT_TOLERANCE,
) -> DriftReport:
    """Drift rows for every measured strategy the plan can price.

    ``measurements`` are ``(executor_strategy, measured_total)`` pairs --
    exactly what a :class:`~repro.core.comparison.ComparisonReport`'s
    rows provide.  Strategies without a formula are skipped.
    """
    report = DriftReport(query=query, threshold=threshold)
    for strategy, measured in measurements:
        model = model_for_strategy(strategy, plan.predicted_costs, interval)
        if model is None:
            continue
        predicted = plan.predicted_costs[model]
        err = log_error(predicted, measured)
        report.rows.append(DriftRow(
            strategy=strategy,
            model=model,
            predicted=predicted,
            measured=measured,
            log_error=err,
            drifted=err > threshold,
        ))
    return report
