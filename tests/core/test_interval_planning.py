"""The interval tier's planning surface: sampling, plan, drift."""

import pytest

from repro.core.executor import SpatialQueryExecutor
from repro.core.optimizer import plan_join
from repro.costmodel.estimation import estimate_interval_resolution
from repro.errors import CostModelError
from repro.geometry.rect import Rect
from repro.intermediate import IntervalSpec
from repro.obs.drift import drift_from_plan
from repro.predicates.theta import Overlaps, WithinDistance
from repro.storage.costs import CostMeter

from tests.join.conftest import make_rect_relation, rtree_over

SPEC = IntervalSpec(universe=Rect(0.0, 0.0, 120.0, 120.0), level=5)


@pytest.fixture
def indexed_pair():
    rel_r = make_rect_relation("r", 120, seed=61)
    rel_s = make_rect_relation("s", 120, seed=62)
    rtree_over(rel_r, "shape")
    rtree_over(rel_s, "shape")
    return rel_r, rel_s


class TestResolutionEstimation:
    def test_fractions_in_range_and_deterministic(self, indexed_pair):
        rel_r, rel_s = indexed_pair
        est = estimate_interval_resolution(
            rel_r, "shape", rel_s, "shape", SPEC, sample_pairs=150, seed=4
        )
        assert 0.0 <= est.mbr_fraction <= 1.0
        assert 0.0 <= est.resolve_fraction <= 1.0
        assert est.resolved <= est.candidates <= est.sample_pairs
        again = estimate_interval_resolution(
            rel_r, "shape", rel_s, "shape", SPEC, sample_pairs=150, seed=4
        )
        assert again == est

    def test_empty_relation(self, indexed_pair):
        rel_r, _ = indexed_pair
        empty = make_rect_relation("empty", 0, seed=1)
        est = estimate_interval_resolution(
            rel_r, "shape", empty, "shape", SPEC
        )
        assert est.candidates == 0
        assert est.resolve_fraction == 0.0

    def test_validation(self, indexed_pair):
        rel_r, rel_s = indexed_pair
        with pytest.raises(CostModelError):
            estimate_interval_resolution(
                rel_r, "shape", rel_s, "shape", SPEC, sample_pairs=0
            )


class TestPlanJoinInterval:
    def test_interval_off_by_default(self, indexed_pair):
        rel_r, rel_s = indexed_pair
        plan = plan_join(rel_r, "shape", rel_s, "shape", Overlaps())
        assert plan.use_interval is False
        assert plan.interval_resolution is None
        assert not any("+INT" in name for name in plan.predicted_seconds)

    def test_interval_adds_filtered_costs(self, indexed_pair):
        rel_r, rel_s = indexed_pair
        plan = plan_join(
            rel_r, "shape", rel_s, "shape", Overlaps(), interval=SPEC
        )
        filtered = [n for n in plan.predicted_seconds if n.endswith("+INT")]
        assert filtered == ["partition+INT"], "the sweep alone gets a +INT price"
        assert plan.interval_spec is SPEC
        assert plan.interval_resolution is not None
        # The decision is exactly the price comparison for the pick.
        key = plan.strategy + "+INT"
        if key in plan.predicted_seconds:
            expected = (
                plan.predicted_seconds[key]
                < plan.predicted_seconds[plan.strategy]
            )
            assert plan.use_interval is expected
        else:
            assert plan.use_interval is False
        # The base ranking is untouched by the filter consideration.
        base = plan_join(rel_r, "shape", rel_s, "shape", Overlaps())
        assert plan.strategy == base.strategy

    def test_no_tree_price_with_the_tier(self, indexed_pair):
        rel_r, rel_s = indexed_pair
        plan = plan_join(
            rel_r, "shape", rel_s, "shape", Overlaps(), interval=True
        )
        assert "tree" in plan.predicted_work
        assert "tree+INT" not in plan.predicted_work

    def test_interval_true_fits_grid_to_data(self, indexed_pair):
        rel_r, rel_s = indexed_pair
        plan = plan_join(
            rel_r, "shape", rel_s, "shape", Overlaps(), interval=True
        )
        assert plan.interval_spec is not None
        universe = plan.interval_spec.universe
        for t in list(rel_r.scan()) + list(rel_s.scan()):
            assert universe.contains_rect(t["shape"].mbr())

    def test_non_overlaps_theta_never_considers_interval(self, indexed_pair):
        rel_r, rel_s = indexed_pair
        plan = plan_join(
            rel_r, "shape", rel_s, "shape", WithinDistance(10.0), interval=SPEC
        )
        assert plan.use_interval is False
        assert not any("+INT" in name for name in plan.predicted_seconds)

    def test_explain_mentions_the_decision(self, indexed_pair):
        rel_r, rel_s = indexed_pair
        plan = plan_join(
            rel_r, "shape", rel_s, "shape", Overlaps(), interval=SPEC
        )
        text = plan.format_explain()
        assert "interval filter:" in text
        assert ("on" in text) or ("off" in text)


class TestDriftLabels:
    class Plan:
        predicted_seconds = {"partition": 1.0, "partition+INT": 0.8, "tree": 2.0}

    def priced(self, strategy, interval=False):
        return drift_from_plan(self.Plan, strategy, 1.0, interval=interval).rows[0].priced

    def test_interval_label_prefers_filtered_model(self):
        assert self.priced("partition", interval=True) == "partition+INT"
        assert self.priced("partition") == "partition"

    def test_interval_label_falls_back_to_base(self):
        # Plan never priced the filter: the base prediction still applies.
        assert self.priced("tree", interval=True) == "tree"

    def test_parameterized_and_filtered_compose(self):
        assert self.priced("shard-partition[3]", interval=True) == "partition+INT"


class TestPlanAndExecuteInterval:
    def test_planned_interval_run_matches_plain(self, indexed_pair):
        """``auto`` decides the tier, whichever entry point runs it: where
        the plan says the tier does not pay, an ``interval=True``
        executor neither probes nor rasterizes."""
        rel_r, rel_s = indexed_pair
        plain, _ = SpatialQueryExecutor().plan_and_execute_join(
            rel_r, "shape", rel_s, "shape", Overlaps()
        )
        result, report = SpatialQueryExecutor().plan_and_execute_join(
            rel_r, "shape", rel_s, "shape", Overlaps(), interval=True
        )
        assert sorted(result.pairs) == sorted(plain.pairs)
        assert report.succeeded
        plan = plan_join(rel_r, "shape", rel_s, "shape", Overlaps(), interval=True)
        assert plan.use_interval is False
        meter = CostMeter()
        joined = SpatialQueryExecutor(interval=True).join(
            rel_r, "shape", rel_s, "shape", Overlaps(), strategy="auto", meter=meter
        )
        assert sorted(joined.pairs) == sorted(plain.pairs)
        assert meter.interval_probes == 0
        for rel in indexed_pair:
            assert rel.derived(("intervals", "shape", plan.interval_spec)) is None
