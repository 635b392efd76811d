"""Tests for the road-network workload and the reachability operator."""

import pytest

from repro.core.executor import SpatialQueryExecutor
from repro.errors import WorkloadError
from repro.geometry.polyline import PolyLine
from repro.join.select import spatial_select
from repro.predicates.theta import ReachableWithin
from repro.workloads.roadnet import make_road_network

from tests import oracle


@pytest.fixture(scope="module")
def network():
    return make_road_network(grid=3, facilities_per_kind=8, seed=81)


class TestConstruction:
    def test_shapes(self, network):
        assert len(network.roads) == 6  # 3 EW + 3 NS
        assert len(network.facilities) == 24
        assert network.roads.has_index_on("path")
        assert network.facilities.has_index_on("site")
        network.road_tree.check_invariants()

    def test_roads_span_universe(self, network):
        for road in network.roads.scan():
            path: PolyLine = road["path"]
            mbr = path.mbr()
            span = max(mbr.width, mbr.height)
            assert span >= network.universe.width * 0.99

    def test_roads_inside_universe(self, network):
        for road in network.roads.scan():
            assert network.universe.contains_rect(road["path"].mbr())

    def test_validation(self):
        with pytest.raises(WorkloadError):
            make_road_network(grid=1)


class TestReachabilityQueries:
    def test_facilities_reachable_from_a_road(self, network):
        """Which facilities lie within x minutes of a given road?"""
        theta = ReachableWithin(minutes=60.0, speed=1.0)
        road = next(network.roads.scan())
        res = spatial_select(network.facility_tree, road["path"], theta)
        assert sorted(res.tids) == oracle.tids(network.facilities, "site", road["path"], theta)

    def test_road_facility_join_all_strategies(self, network):
        theta = ReachableWithin(minutes=80.0, speed=1.0)
        executor = SpatialQueryExecutor()
        truth = set(oracle.pairs(network.roads, "path", network.facilities, "site", theta))
        for strategy in ("scan", "tree", "index-nl"):
            res = executor.join(
                network.roads, "path", network.facilities, "site", theta,
                strategy=strategy,
            )
            assert res.pair_set() == truth, strategy
        assert truth  # the workload must actually produce matches

    def test_buffer_filter_prunes(self, network):
        """The Table 1 buffer filter must discard far-away subtrees."""
        from repro.storage.costs import CostMeter

        theta = ReachableWithin(minutes=5.0, speed=1.0)  # tight radius
        road = next(network.roads.scan())
        meter = CostMeter()
        spatial_select(network.facility_tree, road["path"], theta, meter=meter)
        exhaustive = len(network.facilities)
        assert meter.theta_exact_evals < exhaustive
