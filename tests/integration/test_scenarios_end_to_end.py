"""End-to-end scenario tests: the paper's example queries, all the way.

These tests run the two motivating scenarios of the paper's introduction
over the full stack -- workload generation, storage, indices, every join
strategy, the optimizer -- and check global coherence: identical answers
everywhere, sensible cost orderings, maintained indices after updates.
"""

import pytest

from repro.core.executor import SpatialQueryExecutor
from repro.core.optimizer import executable_strategy, plan_join
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.join.select import spatial_select
from repro.predicates.theta import (
    ContainedIn,
    NorthwestOf,
    Overlaps,
    ReachableWithin,
)
from repro.storage.costs import CostMeter
from repro.workloads.cartography import make_map
from repro.workloads.scenarios import make_lakes_and_houses

from tests import oracle


@pytest.fixture(scope="module")
def lakes_houses():
    return make_lakes_and_houses(n_houses=400, n_lakes=25, seed=1001)


@pytest.fixture(scope="module")
def world_map():
    return make_map(countries=5, states_per_country=3, cities_per_state=4, seed=1002)


class TestLakesHousesScenario:
    THETA = ReachableWithin(minutes=60.0, speed=1.0)

    def want(self, sc):
        return oracle.pairs(sc.houses, "hlocation", sc.lakes, "larea", self.THETA)

    def test_every_strategy_agrees(self, lakes_houses):
        sc = lakes_houses
        expected = self.want(sc)
        executor = SpatialQueryExecutor()
        for strategy in ("scan", "tree", "index-nl"):
            result = executor.join(
                sc.houses, "hlocation", sc.lakes, "larea", self.THETA,
                strategy=strategy,
            )
            assert sorted(result.pair_set()) == expected, strategy

    def test_join_index_roundtrip_with_maintenance(self, lakes_houses):
        sc = lakes_houses
        executor = SpatialQueryExecutor()
        ji = executor.precompute_join_index(
            sc.houses, sc.lakes, "hlocation", "larea", self.THETA
        )
        assert sorted(ji.join().pair_set()) == self.want(sc)
        # Insert a house on a lake shore; index must pick it up.
        lake = next(sc.lakes.scan())
        shore = lake["larea"].centerpoint()
        new_house = sc.houses.insert([77_777, 1.0, shore])
        added = ji.insert_r(new_house)
        assert added >= 1
        assert sorted(ji.join().pair_set()) == self.want(sc)

    def test_optimizer_produces_correct_plan(self, lakes_houses):
        sc = lakes_houses
        plan = plan_join(
            sc.houses, "hlocation", sc.lakes, "larea", self.THETA,
            sample_pairs=300,
        )
        executor = SpatialQueryExecutor()
        result = executor.join(
            sc.houses, "hlocation", sc.lakes, "larea", self.THETA,
            strategy=executable_strategy(plan),
        )
        assert sorted(result.pair_set()) == self.want(sc)

    def test_nearest_lakes_to_a_house(self, lakes_houses):
        sc = lakes_houses
        executor = SpatialQueryExecutor()
        house = next(sc.houses.scan())
        found = executor.nearest(sc.lakes, "larea", house["hlocation"], k=3)
        assert len(found) == 3
        want = oracle.nearest(oracle.rows_of(sc.lakes, "larea"), house["hlocation"], 3)
        assert [d for d, _ in found] == pytest.approx(want)


class TestCartographyScenario:
    def test_containment_queries_respect_hierarchy(self, world_map):
        m = world_map
        # Every city must be contained in exactly one state and country.
        cities = [t for t in m.regions.scan() if t["kind"] == "city"]
        states = [t for t in m.regions.scan() if t["kind"] == "state"]
        for city in cities[:10]:
            containers = [
                s for s in states
                if ContainedIn()(city["region"], s["region"])
            ]
            assert len(containers) == 1

    def test_tree_select_matches_scan_for_every_kind(self, world_map):
        m = world_map
        window = Rect(200, 200, 600, 600)
        theta = Overlaps()
        via_tree = spatial_select(m.tree, window, theta)
        assert sorted(via_tree.tids) == oracle.tids(m.regions, "region", window, theta)

    def test_directional_query_both_orientations(self, world_map):
        m = world_map
        anchor = next(t for t in m.regions.scan() if t["kind"] == "city")
        theta = NorthwestOf()
        nw_of_anchor = spatial_select(
            m.tree, anchor["region"], theta, reverse=True
        )
        anchor_nw_of = spatial_select(m.tree, anchor["region"], theta)
        for tid in nw_of_anchor.tids:
            region = m.regions.get(tid)["region"]
            assert theta(region, anchor["region"])
        for tid in anchor_nw_of.tids:
            region = m.regions.get(tid)["region"]
            assert theta(anchor["region"], region)

    def test_comparison_report_on_map_self_join(self, world_map):
        m = world_map
        answers, evals = set(), {}
        for strategy, order in (("scan", "bfs"), ("tree", "bfs"), ("tree", "dfs")):
            meter = CostMeter()
            result = SpatialQueryExecutor().select(
                m.regions, "region", Rect(0, 0, 500, 500), Overlaps(),
                strategy=strategy, order=order, meter=meter,
            )
            answers.add(tuple(sorted(result.tids)))
            evals[strategy, order] = meter.theta_filter_evals + meter.theta_exact_evals
        assert len(answers) == 1
        # The hierarchy must beat the scan on predicate evaluations.
        assert evals["tree", "bfs"] <= evals["scan", "bfs"]
