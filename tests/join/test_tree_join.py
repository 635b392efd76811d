"""Tests for Algorithm JOIN (Section 3.3)."""

import pytest

from repro.geometry.rect import Rect
from repro.join.select import spatial_select
from repro.join.tree_join import tree_join
from repro.predicates.theta import NorthwestOf, Overlaps, WithinDistance
from repro.storage.costs import CostMeter
from repro.storage.record import RecordId
from repro.trees.balanced import BalancedKTree

from tests import oracle
from tests.join.conftest import (
    make_rect_relation,
    node_regions,
    rtree_over,
)


def balanced_with_tids(k, n, universe=Rect(0, 0, 100, 100), page=0) -> BalancedKTree:
    t = BalancedKTree(k, n, universe=universe)
    t.assign_tids([RecordId(page, i) for i in range(t.node_count())])
    return t


class TestRTreeJoin:
    @pytest.mark.parametrize("theta", [Overlaps(), WithinDistance(15.0)])
    def test_matches_brute_force(self, theta):
        rel_r = make_rect_relation("r", 150, seed=31)
        rel_s = make_rect_relation("s", 120, seed=32)
        tree_r = rtree_over(rel_r, "shape")
        tree_s = rtree_over(rel_s, "shape")
        res = tree_join(tree_r, tree_s, theta)
        want = oracle.pairs(rel_r, "shape", rel_s, "shape", theta)
        assert sorted(res.pair_set()) == want

    def test_no_duplicate_pairs(self):
        rel_r = make_rect_relation("r", 100, seed=33)
        rel_s = make_rect_relation("s", 100, seed=34)
        res = tree_join(rtree_over(rel_r, "shape"), rtree_over(rel_s, "shape"), Overlaps())
        assert len(res.pairs) == len(res.pair_set())

    def test_asymmetric_operator_orientation(self):
        """(r, s) in the result means r theta s, not s theta r."""
        rel_r = make_rect_relation("r", 60, seed=35)
        rel_s = make_rect_relation("s", 60, seed=36)
        theta = NorthwestOf()
        res = tree_join(rtree_over(rel_r, "shape"), rtree_over(rel_s, "shape"), theta)
        want = oracle.pairs(rel_r, "shape", rel_s, "shape", theta)
        assert sorted(res.pair_set()) == want

    def test_unequal_tree_heights(self):
        rel_r = make_rect_relation("r", 400, seed=37)   # taller tree
        rel_s = make_rect_relation("s", 12, seed=38)    # shallow tree
        tree_r = rtree_over(rel_r, "shape", max_entries=4)
        tree_s = rtree_over(rel_s, "shape", max_entries=8)
        assert tree_r.height() != tree_s.height()
        theta = Overlaps()
        res = tree_join(tree_r, tree_s, theta)
        assert sorted(res.pair_set()) == oracle.pairs(rel_r, "shape", rel_s, "shape", theta)

    def test_empty_tree(self):
        rel_r = make_rect_relation("r", 20, seed=39)
        tree_r = rtree_over(rel_r, "shape")
        from repro.trees.rtree import RTree

        res = tree_join(tree_r, RTree(), Overlaps())
        assert len(res) == 0


class TestBalancedTreeJoin:
    """The model's regime: every node an application object (S2)."""

    def test_self_join_contains_ancestor_pairs(self):
        t1 = balanced_with_tids(3, 2, page=1)
        t2 = balanced_with_tids(3, 2, page=2)
        res = tree_join(t1, t2, Overlaps())
        # The two roots cover the same universe: the root pair matches.
        root1 = t1.bfs_tids()[0]
        root2 = t2.bfs_tids()[0]
        assert (root1, root2) in res.pair_set()

    def test_matches_brute_force_all_levels(self):
        t1 = balanced_with_tids(2, 3, page=1)
        t2 = balanced_with_tids(3, 2, page=2)
        theta = Overlaps()
        res = tree_join(t1, t2, theta)
        want = oracle.join(node_regions(t1), node_regions(t2), theta)
        assert sorted(res.pair_set()) == want

    def test_within_distance_join(self):
        t1 = balanced_with_tids(2, 2, page=1)
        t2 = balanced_with_tids(2, 2, page=2)
        theta = WithinDistance(30.0)
        res = tree_join(t1, t2, theta)
        want = oracle.join(node_regions(t1), node_regions(t2), theta)
        assert sorted(res.pair_set()) == want

    def test_no_duplicates_on_balanced_trees(self):
        t1 = balanced_with_tids(2, 3, page=1)
        t2 = balanced_with_tids(2, 3, page=2)
        res = tree_join(t1, t2, Overlaps())
        assert len(res.pairs) == len(res.pair_set())


class TestConsistencyWithSelect:
    def test_join_restricted_to_one_object_equals_select(self):
        """A join where one side has a single object must agree with the
        degenerate case, the spatial selection (Section 2.2)."""
        rel_r = make_rect_relation("r", 1, seed=40)
        rel_s = make_rect_relation("s", 150, seed=41)
        tree_r = rtree_over(rel_r, "shape")
        tree_s = rtree_over(rel_s, "shape")
        theta = Overlaps()
        join_res = tree_join(tree_r, tree_s, theta)
        selector = next(rel_r.scan())
        sel_res = spatial_select(tree_s, selector["shape"], theta)
        assert {s for _, s in join_res.pair_set()} == set(sel_res.tids)


class TestCostAccounting:
    def test_join_prunes_with_selective_predicate(self):
        t1 = balanced_with_tids(3, 3, page=1)
        t2 = balanced_with_tids(3, 3, page=2)
        selective = CostMeter()
        tree_join(t1, t2, WithinDistance(1.0), meter=selective)
        broad = CostMeter()
        tree_join(t1, t2, WithinDistance(150.0), meter=broad)
        assert selective.predicate_evaluations < broad.predicate_evaluations

    def test_stats_snapshot_present(self):
        t1 = balanced_with_tids(2, 1, page=1)
        t2 = balanced_with_tids(2, 1, page=2)
        res = tree_join(t1, t2, Overlaps())
        assert res.stats["theta_filter_evals"] > 0
