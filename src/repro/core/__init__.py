"""High-level public API: plan and execute spatial selections and joins.

This is the layer a downstream user talks to:

* :class:`~repro.core.executor.SpatialQueryExecutor` runs a selection or
  join with an explicitly chosen strategy or the planner's pick, returning
  results together with the cost breakdown;
* :class:`~repro.core.comparison.StrategyComparison` runs *all* applicable
  strategies on the same inputs and tabulates their measured costs --
  the empirical counterpart of the paper's comparative study.

Both, and the planner, read one table: :mod:`repro.core.strategies`
declares each join algorithm once (applicability, capabilities, cost
formula, kernel).
"""

from repro.core.executor import SpatialQueryExecutor
from repro.core.comparison import StrategyComparison
from repro.core.optimizer import JoinPlan, executable_strategy, plan_join
from repro.core.report import AttemptRecord, ExecutionReport

__all__ = [
    "AttemptRecord",
    "ExecutionReport",
    "SpatialQueryExecutor",
    "StrategyComparison",
    "JoinPlan",
    "plan_join",
    "executable_strategy",
]
