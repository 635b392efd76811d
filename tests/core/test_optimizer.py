"""Tests for the cost-based join optimizer."""

import pytest

from repro.core.executor import SpatialQueryExecutor
from repro.core.optimizer import executable_strategy, plan_join
from repro.core.strategies import JoinOperands, metered_work
from repro.predicates.theta import Overlaps, WithinDistance
from repro.storage.costs import CostMeter

from tests import oracle
from tests.join.conftest import (
    make_rect_relation,
    rtree_over,
)


@pytest.fixture
def indexed_pair():
    rel_r = make_rect_relation("r", 120, seed=61)
    rel_s = make_rect_relation("s", 120, seed=62)
    rtree_over(rel_r, "shape")
    rtree_over(rel_s, "shape")
    return rel_r, rel_s


def join_index(rel_r, rel_s, theta):
    return SpatialQueryExecutor().precompute_join_index(rel_r, rel_s, "shape", "shape", theta)


class TestPlanJoin:
    def test_ranks_all_available(self, indexed_pair):
        rel_r, rel_s = indexed_pair
        plan = plan_join(
            rel_r, "shape", rel_s, "shape", Overlaps(),
            join_index=join_index(rel_r, rel_s, Overlaps()),
        )
        assert set(plan.predicted_seconds) == {
            "scan", "tree", "join-index", "partition", "index-nl", "index-nl-swapped",
        }
        assert set(plan.predicted_work) == set(plan.predicted_seconds)
        # The pick is the fastest prediction.
        assert plan.predicted_seconds[plan.strategy] == min(
            plan.predicted_seconds.values()
        )

    def test_never_picks_nested_loop_when_tree_exists(self, indexed_pair):
        rel_r, rel_s = indexed_pair
        plan = plan_join(rel_r, "shape", rel_s, "shape", Overlaps())
        assert plan.strategy != "scan"

    def test_join_index_wins_at_very_low_selectivity(self, indexed_pair):
        rel_r, rel_s = indexed_pair
        # Impossible predicate: sampled selectivity bottoms out.
        theta = WithinDistance(0.0)
        plan = plan_join(
            rel_r, "shape", rel_s, "shape", theta,
            join_index=join_index(rel_r, rel_s, theta), sample_pairs=3000,
        )
        assert plan.estimate.matches == 0
        assert plan.predicted_seconds["join-index"] <= plan.predicted_seconds["scan"]

    def test_without_indices_only_scan(self):
        """Non-overlap predicates without indices rank the nested loop
        alone; overlaps additionally ranks the partition sweep, which
        wins (one read of each relation vs. repeated passes)."""
        rel_r = make_rect_relation("r", 40, seed=64)
        rel_s = make_rect_relation("s", 40, seed=65)
        plan = plan_join(rel_r, "shape", rel_s, "shape", WithinDistance(8.0))
        assert plan.strategy == "scan"
        assert set(plan.predicted_seconds) == {"scan"}

        plan = plan_join(rel_r, "shape", rel_s, "shape", Overlaps())
        assert set(plan.predicted_seconds) == {"scan", "partition"}
        assert plan.strategy == "partition"

    @pytest.mark.parametrize("theta", [Overlaps(), WithinDistance(5.0)], ids=lambda t: t.name)
    def test_tree_work_is_counted_on_the_actual_trees(self, indexed_pair, theta):
        """The tree join's predicted Θ work tracks what it meters, within
        2x; the fitted full tree's count was 3-8x low on these operands."""
        rel_r, rel_s = indexed_pair
        plan = plan_join(rel_r, "shape", rel_s, "shape", theta)
        meter = CostMeter()
        SpatialQueryExecutor().join(
            rel_r, "shape", rel_s, "shape", theta, strategy="tree", meter=meter
        )
        work = plan.predicted_work["tree"]
        assert 0.5 < work["theta"] / meter.theta_filter_evals < 2.0
        assert meter.page_reads <= work["io"] == rel_r.num_pages + rel_s.num_pages

    def test_join_index_work_is_the_pages_it_reads(self):
        """The join index is priced by its own pages: the prediction is
        exactly the work its run meters."""
        rel_r = make_rect_relation("r", 120, seed=66)
        rel_s = make_rect_relation("s", 100, seed=67)
        args = (rel_r, "shape", rel_s, "shape", Overlaps())
        ji = join_index(rel_r, rel_s, Overlaps())
        assert ji.pages >= 1
        plan = plan_join(*args, join_index=ji)
        meter = CostMeter()
        result = SpatialQueryExecutor().join(*args, strategy="join-index", meter=meter)
        ops = JoinOperands(*args)
        work = metered_work(
            "join-index", meter.snapshot(),
            kinds=ops.kinds, rows=ops.rows, matches=len(result.pairs),
        )
        assert {kind: n for kind, n in work.items() if n} == plan.predicted_work["join-index"]

    def test_explain_is_readable(self, indexed_pair):
        rel_r, rel_s = indexed_pair
        plan = plan_join(rel_r, "shape", rel_s, "shape", Overlaps())
        text = plan.format_explain()
        assert "estimated selectivity" in text
        assert "->" in text  # the chosen row is marked
        # Seconds are the plan's one unit.
        assert "predicted seconds:" in text and "Table 3" not in text
        # No model of a full tree stands behind the prices.
        assert "model:" not in text
        for name, secs in plan.predicted_seconds.items():
            assert f"{name} " in text and f"{secs:.6f} s" in text

    def test_plan_executes_correctly(self, indexed_pair):
        """End to end: plan, map to an executor strategy, run, verify."""
        rel_r, rel_s = indexed_pair
        theta = WithinDistance(12.0)
        executor = SpatialQueryExecutor()
        plan = plan_join(rel_r, "shape", rel_s, "shape", theta)
        strategy = executable_strategy(plan)
        result = executor.join(rel_r, "shape", rel_s, "shape", theta, strategy=strategy)
        assert sorted(result.pair_set()) == oracle.pairs(
            rel_r, "shape", rel_s, "shape", theta
        )
