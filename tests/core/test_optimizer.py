"""Tests for the cost-based join optimizer."""

import pytest

from repro.core.executor import SpatialQueryExecutor
from repro.core.optimizer import executable_strategy, fit_parameters, plan_join
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


class TestFitParameters:
    def test_geometry_from_relation(self, indexed_pair):
        rel_r, _ = indexed_pair
        params = fit_parameters(rel_r, "shape", p=0.01)
        assert params.v == rel_r.record_size
        assert params.m == rel_r.records_per_page
        assert params.k == rel_r.index_on("shape").max_entries
        # Fitted tree must be at least as large as the relation.
        assert params.N >= len(rel_r)

    def test_unindexed_defaults(self):
        rel = make_rect_relation("bare", 50, seed=63)
        params = fit_parameters(rel, "shape", p=0.5)
        assert params.k == 10
        assert params.p == 0.5


class TestPlanJoin:
    def test_ranks_all_available(self, indexed_pair):
        rel_r, rel_s = indexed_pair
        plan = plan_join(
            rel_r, "shape", rel_s, "shape", Overlaps(),
            join_index_available=True,
        )
        assert set(plan.predicted_costs) == {
            "D_I", "D_IIa", "D_III", "D_PAR", "D_INL", "D_INL'",
        }
        assert set(plan.predicted_seconds) == set(plan.predicted_costs)
        # The pick is the fastest prediction, not the cheapest in units.
        assert plan.predicted_seconds[plan.strategy] == min(
            plan.predicted_seconds.values()
        )

    def test_never_picks_nested_loop_when_tree_exists(self, indexed_pair):
        rel_r, rel_s = indexed_pair
        plan = plan_join(rel_r, "shape", rel_s, "shape", Overlaps())
        assert plan.strategy != "D_I"

    def test_join_index_wins_at_very_low_selectivity(self, indexed_pair):
        rel_r, rel_s = indexed_pair
        # Impossible predicate: sampled selectivity bottoms out.
        plan = plan_join(
            rel_r, "shape", rel_s, "shape", WithinDistance(0.0),
            join_index_available=True, sample_pairs=3000,
        )
        assert plan.estimate.matches == 0
        assert plan.predicted_costs["D_III"] <= plan.predicted_costs["D_I"]

    def test_without_indices_only_scan(self):
        """Non-overlap predicates without indices rank the nested loop
        alone; overlaps additionally ranks the partition sweep, which
        wins (one read of each relation vs. repeated passes)."""
        rel_r = make_rect_relation("r", 40, seed=64)
        rel_s = make_rect_relation("s", 40, seed=65)
        plan = plan_join(rel_r, "shape", rel_s, "shape", WithinDistance(8.0))
        assert plan.strategy == "D_I"
        assert set(plan.predicted_costs) == {"D_I"}

        plan = plan_join(rel_r, "shape", rel_s, "shape", Overlaps())
        assert set(plan.predicted_costs) == {"D_I", "D_PAR"}
        assert plan.strategy == "D_PAR"

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
        work = plan.predicted_work["D_IIa"]
        assert 0.5 < work["theta"] / meter.theta_filter_evals < 2.0
        assert meter.page_reads <= work["io"] == rel_r.num_pages + rel_s.num_pages

    def test_explain_is_readable(self, indexed_pair):
        rel_r, rel_s = indexed_pair
        plan = plan_join(rel_r, "shape", rel_s, "shape", Overlaps())
        text = plan.format_explain()
        assert "estimated selectivity" in text
        assert "->" in text  # the chosen row is marked

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
