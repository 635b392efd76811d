"""Drift detection: log-space tolerance, plan lookup, executor wiring."""

import math

import pytest

from repro.core.comparison import StrategyComparison
from repro.core.executor import SpatialQueryExecutor
from repro.core.optimizer import plan_join
from repro.errors import ObservabilityError
from repro.obs import (
    DEFAULT_DRIFT_TOLERANCE,
    DriftReport,
    drift_from_measurements,
    drift_from_plan,
    log_error,
)
from repro.predicates.theta import Overlaps
from repro.workloads.assembly import build_indexed_relation


class FakePlan:
    """Just enough of a JoinPlan: predicted seconds by strategy."""

    def __init__(self, **seconds):
        self.predicted_seconds = {
            name.replace("_", "-"): secs for name, secs in seconds.items()
        }


class TestLogError:
    def test_equal_costs_zero_error(self):
        assert log_error(1234.5, 1234.5) == 0.0

    def test_one_decade_equals_default_tolerance(self):
        assert log_error(100.0, 1000.0) == pytest.approx(DEFAULT_DRIFT_TOLERANCE)
        assert DEFAULT_DRIFT_TOLERANCE == pytest.approx(math.log(10.0) ** 2)

    def test_symmetric_and_floored(self):
        assert log_error(10.0, 1000.0) == pytest.approx(log_error(1000.0, 10.0))
        assert math.isfinite(log_error(0.0, 5.0))


class TestModelMapping:
    def test_strategy_to_model(self):
        plan = FakePlan(scan=1.0, tree=2.0, join_index=3.0, partition=4.0)
        for strategy in ("scan", "tree", "join-index", "partition"):
            row = drift_from_plan(plan, strategy, 1.0).row(strategy)
            assert row.priced == strategy
            assert row.predicted == plan.predicted_seconds[strategy]

    def test_unknown_strategy_unpriced(self):
        assert drift_from_plan(FakePlan(scan=1.0), "zorder", 1.0).rows == []
        assert drift_from_plan(FakePlan(scan=1.0), "tree", 1.0).rows == []


class TestDriftFromPlan:
    def test_within_tolerance(self):
        report = drift_from_plan(FakePlan(scan=1000.0), "scan", 2000.0)
        assert not report.drifted
        row = report.row("scan")
        assert row.priced == "scan"
        assert row.ratio == pytest.approx(2.0)

    def test_beyond_one_decade_flags(self):
        report = drift_from_plan(FakePlan(scan=100.0), "scan", 10_000.0)
        assert report.drifted
        assert report.worst.strategy == "scan"
        assert "DRIFT" in report.row("scan").describe()
        assert "MODEL DRIFT" in report.format()

    def test_no_model_means_no_rows_not_drift(self):
        report = drift_from_plan(FakePlan(scan=100.0), "zorder", 500.0)
        assert report.rows == []
        assert not report.drifted
        assert "no measured strategy was priced" in report.format()

    def test_missing_row_lookup_raises(self):
        with pytest.raises(ObservabilityError, match="no drift row"):
            DriftReport(query="q").row("tree")

    def test_custom_threshold(self):
        tight = drift_from_plan(FakePlan(scan=100.0), "scan", 300.0,
                                threshold=0.5)
        assert tight.drifted
        loose = drift_from_plan(FakePlan(scan=100.0), "scan", 300.0)
        assert not loose.drifted


class TestDriftFromMeasurements:
    def test_skips_unpriced_strategies(self):
        plan = FakePlan(scan=50_000.0, partition=40_000.0)
        report = drift_from_measurements(
            plan,
            [("scan", 56_000.0), ("zorder", 44_000.0), ("partition", 44_000.0)],
        )
        assert [r.strategy for r in report.rows] == ["scan", "partition"]


@pytest.fixture(scope="module")
def workload():
    ir_r = build_indexed_relation(120, seed=11, max_extent=40.0)
    ir_s = build_indexed_relation(100, seed=12, max_extent=40.0)
    return ir_r, ir_s


class TestExecutorWiring:
    """The acceptance path: plan, execute, compare within fitting tolerance."""

    def test_execute_join_attaches_drift(self, workload):
        ir_r, ir_s = workload
        executor = SpatialQueryExecutor()
        plan = plan_join(ir_r.relation, "shape", ir_s.relation, "shape",
                         Overlaps())
        _, report = executor.execute_join(
            ir_r.relation, "shape", ir_s.relation, "shape", Overlaps(),
            strategy="tree", plan=plan,
        )
        assert report.drift is not None
        row = report.drift.row("tree")
        assert row.priced == "tree"
        # The tree's predicted work tracks what its meter counts within
        # fitting.py's one-decade tolerance -- the planner's
        # self-consistency claim.
        assert not row.drifted
        assert row.log_error <= DEFAULT_DRIFT_TOLERANCE
        # The drift verdict is part of the human-readable account.
        assert "drift report" in report.format()

    def test_no_plan_means_no_drift_section(self, workload):
        ir_r, ir_s = workload
        executor = SpatialQueryExecutor()
        _, report = executor.execute_join(
            ir_r.relation, "shape", ir_s.relation, "shape", Overlaps(),
            strategy="tree",
        )
        assert report.drift is None
        assert "drift" not in report.format()

    def test_plan_and_execute_join_convenience(self, workload):
        ir_r, ir_s = workload
        executor = SpatialQueryExecutor()
        result, report = executor.plan_and_execute_join(
            ir_r.relation, "shape", ir_s.relation, "shape", Overlaps()
        )
        assert report.succeeded
        assert report.drift is not None
        assert report.drift.rows  # the planned strategy is always priced
        assert len(result.pairs) == 25

    def test_comparison_check_drift(self, workload):
        ir_r, ir_s = workload
        report = StrategyComparison().compare_join(
            ir_r.relation, "shape", ir_s.relation, "shape", Overlaps(),
            check_drift=True,
        )
        assert report.drift is not None
        strategies = {r.strategy for r in report.drift.rows}
        assert {"scan", "tree", "partition", "join-index"} <= strategies
        # Each price counts what its run does: the join index's is the
        # pages it holds.
        assert not report.drift.row("scan").drifted
        assert not report.drift.row("tree").drifted
        assert not report.drift.row("join-index").drifted
        assert "drift report" in report.format_table()

    def test_comparison_without_flag_unchanged(self, workload):
        ir_r, ir_s = workload
        report = StrategyComparison().compare_join(
            ir_r.relation, "shape", ir_s.relation, "shape", Overlaps(),
        )
        assert report.drift is None
        assert "drift" not in report.format_table()


@pytest.mark.parametrize("geometry", ["rect", "polygon"])
@pytest.mark.parametrize("seed", [1, 7, 42])
def test_warm_partition_join_tracks_d_par(geometry, seed):
    """The planner reads both column snapshots before the join runs, so a
    planned partition join reads no page; the sweep's price predicts
    exactly that and the drift row stays within tolerance instead of
    flagging the spared I/O."""
    from tests.core.test_planner_parity import relations

    rel_r, rel_s = relations(geometry, seed)
    result, report = SpatialQueryExecutor().plan_and_execute_join(
        rel_r, "shape", rel_s, "shape", Overlaps()
    )
    assert report.strategy == "partition"
    assert report.attempts[-1].stats["page_reads"] == 0
    row = report.drift.row("partition")
    assert row.priced == "partition"
    assert not row.drifted, row.describe()
