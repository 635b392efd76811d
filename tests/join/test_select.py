"""Tests for Algorithm SELECT (Section 3.2)."""

import pytest

from repro.errors import JoinError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.join.accessor import DirectAccessor, RelationAccessor
from repro.join.select import select_pass_candidates, spatial_select
from repro.predicates.theta import NorthwestOf, Overlaps, WithinDistance
from repro.storage.costs import CostMeter
from repro.storage.record import RecordId
from repro.trees.balanced import BalancedKTree
from repro.trees.cartotree import CartoTree

from tests import oracle
from tests.join.conftest import make_rect_relation, rtree_over


def balanced_with_tids(k=3, n=3) -> BalancedKTree:
    t = BalancedKTree(k, n, universe=Rect(0, 0, 100, 100))
    t.assign_tids([RecordId(0, i) for i in range(t.node_count())])
    return t


class TestCorrectness:
    @pytest.mark.parametrize("order", ["bfs", "dfs"])
    def test_matches_brute_force_on_rtree(self, order):
        rel = make_rect_relation("objects", 300, seed=21)
        tree = rtree_over(rel, "shape")
        query = Rect(30, 30, 55, 55)
        theta = Overlaps()
        res = spatial_select(tree, query, theta, order=order)
        assert sorted(res.tids) == oracle.tids(rel, "shape", query, theta)

    def test_interior_application_objects_qualify(self):
        """All nodes of a balanced tree are application objects; the
        selection must return interior nodes too."""
        t = balanced_with_tids(k=2, n=3)
        theta = Overlaps()
        res = spatial_select(t, Rect(0, 0, 100, 100), theta)
        # The query covers the universe: every node matches.
        assert len(res.tids) == t.node_count()

    def test_selector_not_in_relation_works(self):
        rel = make_rect_relation("objects", 100, seed=22)
        tree = rtree_over(rel, "shape")
        foreign = Point(-5, -5)  # outside every object's extent
        res = spatial_select(tree, foreign, WithinDistance(500.0))
        assert len(res.tids) == 100  # everything within 500 of centerpoints

    def test_empty_result(self):
        rel = make_rect_relation("objects", 50, seed=23)
        tree = rtree_over(rel, "shape")
        res = spatial_select(tree, Rect(500, 500, 600, 600), Overlaps())
        assert res.tids == []

    def test_bfs_dfs_same_matches(self):
        t = balanced_with_tids(k=3, n=3)
        theta = WithinDistance(20.0)
        q = Point(50, 50)
        bfs = spatial_select(t, q, theta, order="bfs")
        dfs = spatial_select(t, q, theta, order="dfs")
        assert set(bfs.tids) == set(dfs.tids)

    def test_bad_order_rejected(self):
        t = balanced_with_tids(k=2, n=1)
        with pytest.raises(JoinError):
            spatial_select(t, Point(0, 0), Overlaps(), order="random")


class TestReverseOperandOrder:
    def test_asymmetric_operator(self):
        """``reverse`` flips the operand roles: node NW-of query vs
        query NW-of node give different answers."""
        t = balanced_with_tids(k=2, n=2)
        q = Point(40.0, 60.0)
        theta = NorthwestOf()
        fwd = spatial_select(t, q, theta)           # query NW of node
        rev = spatial_select(t, q, theta, reverse=True)  # node NW of query
        fwd_set = set(fwd.tids)
        rev_set = set(rev.tids)
        assert fwd_set != rev_set
        # Verify against direct evaluation per node.
        for node in t.bfs_nodes():
            expected_fwd = theta(q, node.region)
            assert (node.tid in fwd_set) == expected_fwd


class TestSubtreeTraversal:
    """Algorithm JOIN's SELECT pass: the strict descendants of a node."""

    @staticmethod
    def pass_below(t, start):
        found = []
        meter = CostMeter()
        qualifying = select_pass_candidates(
            t, Rect(0, 0, 100, 100), start,
            accessor=DirectAccessor(), meter=meter, reverse=False,
            big_theta=Overlaps().filter_operator(),
            found=lambda tid, node, region, payload: found.append(tid),
        )
        return found, qualifying, meter

    def test_start_limits_scope(self):
        t = balanced_with_tids(k=2, n=3)
        left = t.root().children[0]
        found, qualifying, meter = self.pass_below(t, left)
        # Only the left subtree's nodes are examined, and all qualify.
        assert len(found) == meter.theta_filter_evals == left.subtree_size() - 1
        assert qualifying == list(left.children)

    def test_skip_start_excludes_root_of_subtree(self):
        t = balanced_with_tids(k=2, n=3)
        left = t.root().children[0]
        found, _qualifying, _meter = self.pass_below(t, left)
        whole = spatial_select(t, Rect(0, 0, 100, 100), Overlaps())
        assert left.tid not in found
        assert set(found) < set(whole.tids)


class TestCostAccounting:
    def test_filter_prunes_subtrees(self):
        """A query touching one corner must examine far fewer nodes than
        the tree holds."""
        t = balanced_with_tids(k=4, n=4)  # 341 nodes
        meter = CostMeter()
        spatial_select(t, Rect(0, 0, 2, 2), Overlaps(), meter=meter)
        assert meter.theta_filter_evals < t.node_count() / 3

    def test_exhaustive_when_query_covers_all(self):
        t = balanced_with_tids(k=3, n=3)
        meter = CostMeter()
        spatial_select(t, Rect(0, 0, 100, 100), Overlaps(), meter=meter)
        assert meter.theta_filter_evals == t.node_count()

    def test_exact_evals_only_after_filter_pass(self):
        t = balanced_with_tids(k=3, n=3)
        meter = CostMeter()
        spatial_select(t, Rect(0, 0, 10, 10), Overlaps(), meter=meter)
        assert meter.theta_exact_evals <= meter.theta_filter_evals

    def test_relation_accessor_charges_io(self):
        rel = make_rect_relation("objects", 200, seed=24)
        tree = rtree_over(rel, "shape")
        meter = CostMeter()
        from repro.storage.buffer import BufferPool

        cold_pool = BufferPool(rel.buffer_pool.disk, 4000, meter)
        res = spatial_select(
            tree,
            Rect(0, 0, 100, 100),
            Overlaps(),
            accessor=RelationAccessor(rel, cold_pool),
            meter=meter,
        )
        assert len(res.tids) == 200
        assert meter.page_reads == rel.num_pages  # every page touched once


class TestCartoSelect:
    def test_interior_and_leaf_matches(self):
        t = CartoTree(Rect(0, 0, 100, 100))
        country = t.add_child(t.root(), Rect(0, 0, 60, 60), RecordId(0, 0))
        city = t.add_child(country, Rect(10, 10, 20, 20), RecordId(0, 1))
        t.add_child(country, Rect(30, 30, 40, 40), RecordId(0, 2))
        res = spatial_select(t, Rect(12, 12, 15, 15), Overlaps())
        assert set(res.tids) == {RecordId(0, 0), RecordId(0, 1)}
