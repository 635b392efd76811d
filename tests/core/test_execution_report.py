"""Resilient execution: fallback chain, ExecutionReport, fault audits."""

import pytest

from repro.core import SpatialQueryExecutor
from repro.core.report import (
    MAX_RENDERED_FAULT_EVENTS,
    AttemptRecord,
    ExecutionReport,
)
from repro.errors import ExecutionError
from repro.faults import FaultPlan, FaultyDisk
from repro.predicates.theta import Overlaps, WithinDistance
from repro.storage.costs import CostMeter
from repro.storage.disk import SimulatedDisk
from repro.workloads.assembly import build_indexed_relation

#: The fallback links of an indexed overlap join, in the order the
#: executor's chain walks them.
CHAIN = ["partition", "tree", "zorder", "scan"]


def build_pair(disk, n=120):
    ir_r = build_indexed_relation(n, seed=1, disk=disk)
    ir_s = build_indexed_relation(n, seed=2, disk=disk)
    return ir_r.relation, ir_s.relation


@pytest.fixture(scope="module")
def clean_reference():
    rel_r, rel_s = build_pair(SimulatedDisk())
    executor = SpatialQueryExecutor()
    return executor.join(
        rel_r, "shape", rel_s, "shape", Overlaps(), strategy="scan"
    ).pair_set()


class TestCleanPath:
    """With fault injection disabled the machinery must cost nothing."""

    def test_single_attempt_zero_retries_zero_fallbacks(self, clean_reference):
        rel_r, rel_s = build_pair(SimulatedDisk())
        executor = SpatialQueryExecutor()
        for strategy in CHAIN:
            res, report = executor.execute_join(
                rel_r, "shape", rel_s, "shape", Overlaps(), strategy=strategy
            )
            assert res.pair_set() == clean_reference
            assert len(report.attempts) == 1
            assert report.attempts[0].ok
            assert report.strategy == strategy
            assert report.retries == 0
            assert report.fallbacks == 0
            assert report.backoff_steps == 0
            assert report.fault_summary == {}

    def test_result_identical_to_plain_join(self, clean_reference):
        executor = SpatialQueryExecutor()
        # A pair each: the second partition join of one pair would find
        # its column snapshots retained and charge hits, not reads.
        rel_r, rel_s = build_pair(SimulatedDisk())
        plain_meter = CostMeter()
        plain = executor.join(
            rel_r, "shape", rel_s, "shape", Overlaps(),
            strategy="partition", meter=plain_meter,
        )
        rel_r, rel_s = build_pair(SimulatedDisk())
        exec_meter = CostMeter()
        resilient, _ = executor.execute_join(
            rel_r, "shape", rel_s, "shape", Overlaps(),
            strategy="partition", meter=exec_meter,
        )
        assert resilient.pair_set() == plain.pair_set()
        # Identical charges: the resilient wrapper adds no I/O.
        assert exec_meter.snapshot() == plain_meter.snapshot()

    def test_auto_strategy_recorded(self):
        rel_r, rel_s = build_pair(SimulatedDisk())
        executor = SpatialQueryExecutor()
        res, report = executor.execute_join(
            rel_r, "shape", rel_s, "shape", WithinDistance(10.0)
        )
        assert report.requested_strategy == "auto"
        assert report.succeeded


class TestSeededFaultRun:
    def test_every_strategy_survives_and_agrees(self, clean_reference):
        plan = FaultPlan(seed=17, read_rate=0.05, write_rate=0.05,
                         torn_rate=0.02)
        rel_r, rel_s = build_pair(FaultyDisk(plan))
        executor = SpatialQueryExecutor()
        for strategy in CHAIN:
            res, report = executor.execute_join(
                rel_r, "shape", rel_s, "shape", Overlaps(), strategy=strategy
            )
            assert res.pair_set() == clean_reference
            # Every fault injected during this execution was consumed by
            # a retry or fallback -- none silently dropped.
            assert report.fault_summary["injected"] == (
                report.fault_summary["consumed"]
            )
            assert report.fault_summary["outstanding"] == 0
            assert len(report.fault_events) == report.fault_summary["injected"]
        # The workload as a whole hit at least one fault, or the run
        # proves nothing.
        assert plan.injected > 0

    def test_retries_visible_in_report(self):
        plan = FaultPlan(seed=3, read_outages={})
        disk = FaultyDisk(plan)
        rel_r, rel_s = build_pair(disk)
        plan.read_outages[rel_r.page_ids[0]] = 2
        executor = SpatialQueryExecutor()
        res, report = executor.execute_join(
            rel_r, "shape", rel_s, "shape", Overlaps(), strategy="scan"
        )
        assert report.retries == 2
        assert report.attempts[0].stats["io_retries"] == 2
        assert report.backoff_steps == 3  # 1 + 2


class TestFallbackChain:
    def test_outage_exhausts_first_strategy_then_falls_back(
        self, clean_reference
    ):
        # 8 forced failures on page 0: the first strategy burns its
        # retry budget (5 retries = 6 attempts) and dies; the fallback
        # consumes the remaining 2 and succeeds.
        plan = FaultPlan(seed=1, read_outages={0: 8})
        rel_r, rel_s = build_pair(FaultyDisk(plan))
        executor = SpatialQueryExecutor()
        res, report = executor.execute_join(
            rel_r, "shape", rel_s, "shape", Overlaps(), strategy="partition"
        )
        assert res.pair_set() == clean_reference
        assert not report.attempts[0].ok
        assert report.attempts[0].error_type == "TransientStorageError"
        assert report.attempts[1].ok
        assert report.attempts[1].strategy == "tree"
        assert report.fallbacks == 1
        assert report.fault_summary["outstanding"] == 0

    def test_chain_order_follows_spec(self):
        """Every link fails on a lost page, so the report lists the
        whole walk: from the requested strategy down the registry's
        fallback links."""
        # A z-order attempt takes the data universe through the relation's
        # own pool, which still holds the lost page, and leaves a column
        # snapshot the partition link then joins from: start elsewhere.
        for first in ("partition", "tree", "scan"):
            # Fresh operands per walk, for the same reason.
            disk = FaultyDisk(FaultPlan(seed=2))
            rel_r, rel_s = build_pair(disk)
            disk.lose_page(rel_r.page_ids[0])
            with pytest.raises(ExecutionError) as excinfo:
                SpatialQueryExecutor().execute_join(
                    rel_r, "shape", rel_s, "shape", Overlaps(), strategy=first
                )
            walked = [a.strategy for a in excinfo.value.report.attempts]
            assert walked == [first] + [s for s in CHAIN if s != first]

    def test_auto_planning_failure_falls_into_the_chain(self):
        """``auto`` plans from the operands' pages.  A lost page the pool
        no longer holds fails the planning step; it is recorded as the
        first attempt and the chain walks on from its first link."""
        disk = FaultyDisk(FaultPlan(seed=2))
        rel_r, rel_s = build_pair(disk)
        rel_r.buffer_pool.clear()
        disk.lose_page(rel_r.page_ids[0])
        with pytest.raises(ExecutionError) as excinfo:
            SpatialQueryExecutor().execute_join(
                rel_r, "shape", rel_s, "shape", Overlaps()
            )
        report = excinfo.value.report
        assert report.requested_strategy == "auto"
        assert [a.strategy for a in report.attempts] == ["auto"] + CHAIN
        assert all(a.error_type == "PermanentStorageError" for a in report.attempts)
        assert report.format().splitlines()[2].startswith(
            "  attempt 1: auto: failed: PermanentStorageError"
        )

    def test_permanent_loss_exhausts_chain(self):
        plan = FaultPlan(seed=2)
        disk = FaultyDisk(plan)
        rel_r, rel_s = build_pair(disk)
        disk.lose_page(rel_r.page_ids[0])
        executor = SpatialQueryExecutor()
        with pytest.raises(ExecutionError) as excinfo:
            executor.execute_join(
                rel_r, "shape", rel_s, "shape", Overlaps(), strategy="partition"
            )
        report = excinfo.value.report
        # Every applicable strategy was attempted and each failure cause
        # recorded.
        assert [a.strategy for a in report.attempts] == CHAIN
        assert all(not a.ok for a in report.attempts)
        assert all(a.error_type == "PermanentStorageError" for a in report.attempts)

    def test_meter_accumulates_failed_attempts(self):
        plan = FaultPlan(seed=1, read_outages={0: 8})
        rel_r, rel_s = build_pair(FaultyDisk(plan))
        executor = SpatialQueryExecutor()
        meter = CostMeter()
        res, report = executor.execute_join(
            rel_r, "shape", rel_s, "shape", Overlaps(),
            strategy="partition", meter=meter,
        )
        # Failed work is work: the caller's meter covers all attempts.
        # Attempt 1 records its 5 retries (the 6th failure re-raises and
        # kills the strategy); the fallback records the remaining 2.
        total_retries = sum(a.stats["io_retries"] for a in report.attempts)
        assert meter.io_retries == total_retries == 7

    def test_inapplicable_strategies_skipped(self):
        # Non-overlaps theta: partition and zorder are not in the chain.
        plan = FaultPlan(seed=4, read_outages={0: 8})
        rel_r, rel_s = build_pair(FaultyDisk(plan))
        executor = SpatialQueryExecutor()
        res, report = executor.execute_join(
            rel_r, "shape", rel_s, "shape", WithinDistance(5.0),
            strategy="tree",
        )
        tried = [a.strategy for a in report.attempts]
        assert "partition" not in tried[1:]
        assert "zorder" not in tried[1:]


class TestAttemptRecord:
    def test_describe_success_form(self):
        rec = AttemptRecord(strategy="tree", ok=True, stats={"io_retries": 2})
        assert rec.describe() == "tree: ok (2 retries)"

    def test_describe_failure_form(self):
        rec = AttemptRecord(
            strategy="partition", ok=False,
            error_type="TransientStorageError", error="page 0 unreadable",
        )
        assert rec.describe() == (
            "partition: failed: TransientStorageError: page 0 unreadable"
        )


def _report_with(**overrides):
    base = dict(query="R join S", requested_strategy="partition")
    base.update(overrides)
    return ExecutionReport(**base)


class TestReportFormatting:
    def test_fault_events_capped_with_elision_line(self):
        events = [f"read fault on page {i}" for i in range(10)]
        report = _report_with(
            attempts=[AttemptRecord(strategy="partition", ok=True)],
            fault_summary={"injected": 10, "consumed": 10, "outstanding": 0},
            fault_events=events,
        )
        text = report.format()
        for desc in events[:MAX_RENDERED_FAULT_EVENTS]:
            assert f"  - {desc}" in text
        for desc in events[MAX_RENDERED_FAULT_EVENTS:]:
            assert desc not in text
        assert "... and 4 more fault events" in text

    def test_exactly_cap_events_not_elided(self):
        events = [f"e{i}" for i in range(MAX_RENDERED_FAULT_EVENTS)]
        text = _report_with(fault_events=events).format()
        assert all(f"  - {d}" in text for d in events)
        assert "more fault events" not in text

    def test_events_render_without_summary(self):
        # A caller may attach events without the audit counters; the
        # events must still be visible.
        text = _report_with(fault_events=["torn write on page 3"]).format()
        assert "  - torn write on page 3" in text
        assert "injected" not in text

    def test_format_mentions_attempts_and_faults(self):
        plan = FaultPlan(seed=1, read_outages={0: 8})
        rel_r, rel_s = build_pair(FaultyDisk(plan))
        executor = SpatialQueryExecutor()
        _, report = executor.execute_join(
            rel_r, "shape", rel_s, "shape", Overlaps(), strategy="partition"
        )
        text = report.format()
        assert "attempt 1: partition: failed" in text
        assert "fallback 2: tree: ok" in text
        assert "8 injected, 8 consumed" in text
