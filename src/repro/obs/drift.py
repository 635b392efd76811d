"""Model-vs-measured drift detection.

The optimizer picks strategies by the seconds their predicted work
takes under the measured profile; this module closes the loop: after an
executed query, compare the seconds the plan predicted for the strategy
that ran (the number it was *chosen by*) with the seconds of the work
its meter counted (:func:`~repro.core.strategies.metered_work`), and
flag disagreement beyond a threshold.  Both sides are priced by the
same profile from deterministic counts, never by a wall clock, so a
drift row reads the same on every run.

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


@dataclass(slots=True)
class DriftRow:
    """One strategy's predicted-vs-measured comparison, in seconds."""

    strategy: str
    #: The plan entry that priced the run: the strategy's name, with
    #: ``+INT`` when the run threaded the interval tier.
    priced: str
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
            f"{self.strategy:<12} {self.priced:<14} "
            f"predicted={self.predicted:10.6f} s measured={self.measured:10.6f} s "
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
            lines.append("  (no measured strategy was priced by the plan)")
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
    measured: float,
    *,
    interval: bool = False,
    query: str = "",
    threshold: float = DEFAULT_DRIFT_TOLERANCE,
) -> DriftReport:
    """One-row drift report for an executed plan.

    ``strategy`` is the executor strategy that actually ran (it may
    differ from the plan's pick after a fallback), ``interval`` whether
    it ran the raster-interval tier; ``measured`` is the seconds of the
    winning attempt's metered work.  When the plan did not price the
    executed strategy, the report has zero rows and never flags --
    absence of a prediction is not drift.
    """
    return drift_from_measurements(
        plan, [(strategy, measured)],
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
    """Drift rows for every measured strategy the plan priced.

    ``measurements`` are ``(strategy, measured seconds)`` pairs; a
    strategy is an executor name or a router label such as
    ``"shard-partition[3]"``.  A run that threaded the interval tier is
    held to the plan's ``<strategy>+INT`` prediction where the plan made
    one.  Strategies the plan did not price are skipped.
    """
    from repro.core.strategies import INTERVAL_SUFFIX, strategy_for_label

    report = DriftReport(query=query, threshold=threshold)
    for strategy, measured in measurements:
        descriptor = strategy_for_label(strategy)
        if descriptor is None or descriptor.name not in plan.predicted_seconds:
            continue
        priced = descriptor.name
        if interval and priced + INTERVAL_SUFFIX in plan.predicted_seconds:
            priced += INTERVAL_SUFFIX
        predicted = plan.predicted_seconds[priced]
        err = log_error(predicted, measured)
        report.rows.append(DriftRow(
            strategy=strategy,
            priced=priced,
            predicted=predicted,
            measured=measured,
            log_error=err,
            drifted=err > threshold,
        ))
    return report
