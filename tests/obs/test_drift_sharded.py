"""Drift detection on sharded joins.

Three claims, in increasing strength:

* ``strategy_for_label`` normalises parameterised strategy names --
  ``"shard-partition[3]"`` is priced as ``partition`` exactly like
  ``"partition[8]"`` is;
* :func:`drift_from_plan` on a sharded join produces a one-row
  ``partition`` report from the router-merged per-query meter;
* **differential parity**: the reference-point rule keeps the CPU work
  (predicate evaluations) of a sharded join invariant under the split,
  so the router-merged meter tracks the unsharded partition join's
  predicate counts across seeds and shard counts.  (I/O is *not*
  invariant -- the standing fleet sweeps volatile in-memory replicas
  and pays none -- and neither does a planned partition join, whose
  snapshots the planner read, so its price holds none.)
"""

import pytest

from repro.core.executor import SpatialQueryExecutor
from repro.core.optimizer import plan_join
from repro.core.strategies import JoinOperands, metered_work, strategy_for_label
from repro.costmodel.profile import seconds
from repro.obs import drift_from_plan
from repro.predicates.theta import Overlaps
from repro.shard import ShardRuntime
from repro.storage.costs import CostMeter
from repro.workloads.assembly import build_indexed_relation

from tests.shard.conftest import UNIVERSE, build_relations


class TestStrategyNormalisation:
    def test_bracket_suffix_is_stripped(self):
        for label in ("partition[8]", "shard-partition[3]", "shard-partition"):
            assert strategy_for_label(label).name == "partition"

    def test_unknown_base_still_unpriced(self):
        assert strategy_for_label("shard-select[2/4]") is None
        plan = type("Plan", (), {"predicted_seconds": {"partition": 1.0}})
        assert drift_from_plan(plan, "shard-select[2/4]", 1.0).rows == []

    def test_missing_formula_means_no_model(self):
        plan = type("Plan", (), {"predicted_seconds": {"scan": 1.0}})
        assert drift_from_plan(plan, "shard-partition[3]", 1.0).rows == []


class TestShardedDriftReport:
    def test_router_merged_meter_feeds_one_d_par_row(self):
        ir_r = build_indexed_relation(120, seed=11, max_extent=40.0)
        ir_s = build_indexed_relation(100, seed=12, max_extent=40.0)
        theta = Overlaps()
        plan = plan_join(
            ir_r.relation, "shape", ir_s.relation, "shape", theta, workers=3,
        )
        with ShardRuntime(ir_r.universe, 3) as runtime:
            ir_r.relation.name = "r"
            ir_s.relation.name = "s"
            runtime.load_relation(ir_r.relation, "shape")
            runtime.load_relation(ir_s.relation, "shape")
            meter = CostMeter()
            result = runtime.router.join("r", "s", theta, meter=meter)
        ops = JoinOperands(ir_r.relation, "shape", ir_s.relation, "shape", theta)
        measured = seconds(metered_work(
            "partition", meter.snapshot(),
            kinds=ops.kinds, rows=ops.rows, matches=len(result.pairs),
        ))
        report = drift_from_plan(
            plan, result.strategy, measured, query="sharded join",
        )
        assert result.strategy.startswith("shard-partition[")
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.strategy == result.strategy
        assert row.priced == "partition"
        assert row.measured == measured
        # The sweep's price holds no page reads -- the planner read the
        # snapshots, and the standing fleet sweeps in-memory replicas --
        # so the router-merged meter tracks it within tolerance.
        assert not row.drifted
        assert "partition" in report.format()


class TestDifferentialParity:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_cpu_work_is_invariant_under_the_split(self, seed):
        theta = Overlaps()
        ir_r = build_indexed_relation(90, seed=seed)
        ir_s = build_indexed_relation(90, seed=seed + 100)
        ir_r.relation.name = "r"
        ir_s.relation.name = "s"

        unsharded = CostMeter()
        local = SpatialQueryExecutor().join(
            ir_r.relation, "shape", ir_s.relation, "shape", theta,
            strategy="partition", meter=unsharded,
        )

        sharded = CostMeter()
        with ShardRuntime(ir_r.universe, 3) as runtime:
            runtime.load_relation(ir_r.relation, "shape")
            runtime.load_relation(ir_s.relation, "shape")
            result = runtime.router.join("r", "s", theta, meter=sharded)

        assert result.pairs == sorted(local.pairs)
        # Same pairs found by the same sweep kernel over a different
        # partitioning: predicate evaluations match within a small
        # replication factor, never a decade.
        assert sharded.predicate_evaluations > 0
        ratio = sharded.predicate_evaluations / unsharded.predicate_evaluations
        assert 1 / 2 <= ratio <= 2, (
            f"seed {seed}: sharded {sharded.predicate_evaluations} vs "
            f"unsharded {unsharded.predicate_evaluations} predicate evals"
        )

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_parity_survives_a_mid_join_kill(self, seed):
        from repro.faults.plan import FaultPlan

        theta = Overlaps()
        rel_r, rel_s = build_relations(60)

        baseline = CostMeter()
        with ShardRuntime(UNIVERSE, 3) as runtime:
            runtime.load_relation(rel_r, "shape")
            runtime.load_relation(rel_s, "shape")
            expected = runtime.router.join("r", "s", theta, meter=baseline)

        killed = CostMeter()
        plan = FaultPlan(seed, kill_shard_at={1: -1})
        with ShardRuntime(UNIVERSE, 3, fault_plan=plan) as runtime:
            runtime.load_relation(rel_r, "shape")
            runtime.load_relation(rel_s, "shape")
            result = runtime.router.join("r", "s", theta, meter=killed)

        assert result.pairs == expected.pairs
        # The killed dispatch returned no meter delta; the re-dispatch
        # returned exactly one.  The per-query meter -- and hence any
        # drift verdict computed from it -- is identical to the
        # kill-free run's.
        assert killed.snapshot() == baseline.snapshot()
