"""Tests for the synchronized tree join (the Algorithm JOIN successor)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.rect import Rect
from repro.join.sync_join import sync_tree_join
from repro.join.tree_join import tree_join
from repro.predicates.theta import NorthwestOf, Overlaps, WithinDistance
from repro.storage.costs import CostMeter
from repro.storage.record import RecordId
from repro.trees.balanced import BalancedKTree
from repro.trees.rtree import RTree

from tests import oracle
from tests.join.conftest import make_rect_relation, node_regions, rtree_over


def balanced(k, n, offset=0.0, page=0) -> BalancedKTree:
    t = BalancedKTree(k, n, universe=Rect(offset, offset, offset + 100, offset + 100))
    t.assign_tids([RecordId(page, i) for i in range(t.node_count())])
    return t


class TestCorrectness:
    @pytest.mark.parametrize("theta", [Overlaps(), WithinDistance(12.0), NorthwestOf()])
    def test_rtree_matches_brute_force(self, theta):
        rel_r = make_rect_relation("r", 120, seed=95)
        rel_s = make_rect_relation("s", 110, seed=96)
        tree_r = rtree_over(rel_r, "shape")
        tree_s = rtree_over(rel_s, "shape")
        res = sync_tree_join(tree_r, tree_s, theta)
        assert sorted(res.pair_set()) == oracle.pairs(rel_r, "shape", rel_s, "shape", theta)

    def test_interior_application_objects_included(self):
        """Balanced trees: every node is an app object; matches between an
        interior node and the partner's descendants must appear."""
        t1 = balanced(3, 2, page=1)
        t2 = balanced(3, 2, page=2)
        theta = Overlaps()
        res = sync_tree_join(t1, t2, theta)
        assert sorted(res.pair_set()) == oracle.join(
            node_regions(t1), node_regions(t2), theta
        )

    def test_no_duplicates(self):
        t1 = balanced(2, 3, page=1)
        t2 = balanced(3, 2, page=2)
        res = sync_tree_join(t1, t2, Overlaps())
        assert len(res.pairs) == len(res.pair_set())

    def test_unequal_heights(self):
        rel_r = make_rect_relation("r", 300, seed=97)
        rel_s = make_rect_relation("s", 15, seed=98)
        tree_r = rtree_over(rel_r, "shape", max_entries=4)
        tree_s = rtree_over(rel_s, "shape", max_entries=8)
        theta = Overlaps()
        res = sync_tree_join(tree_r, tree_s, theta)
        assert sorted(res.pair_set()) == oracle.pairs(rel_r, "shape", rel_s, "shape", theta)

    def test_empty(self):
        res = sync_tree_join(RTree(), RTree(), Overlaps())
        assert len(res) == 0


class TestAgainstAlgorithmJoin:
    @given(
        k1=st.integers(2, 4), n1=st.integers(1, 3),
        k2=st.integers(2, 4), n2=st.integers(1, 3),
        offset=st.floats(min_value=0, max_value=120),
        d=st.floats(min_value=5, max_value=150),
    )
    @settings(max_examples=25, deadline=None)
    def test_same_result_as_paper_algorithm(self, k1, n1, k2, n2, offset, d):
        t1 = balanced(k1, n1, page=1)
        t2 = balanced(k2, n2, offset=offset, page=2)
        theta = WithinDistance(d)
        assert (
            sync_tree_join(t1, t2, theta).pair_set()
            == tree_join(t1, t2, theta).pair_set()
        )

    def test_evaluation_counts_comparable(self):
        """A finding worth recording: on R-trees the two algorithms trade
        blows.  Algorithm JOIN filters each node's children *linearly*
        against the partner node (|Ca| + |Cb| filter tests per pair) and
        only then crosses the survivors, while the synchronized join
        filters every child pair (up to |Ca| x |Cb| tests) but prunes
        deeper pairs more tightly.  Neither dominates; they must stay
        within a small factor and agree exactly on the result."""
        rel_r = make_rect_relation("r", 250, seed=99)
        rel_s = make_rect_relation("s", 250, seed=100)
        tree_r = rtree_over(rel_r, "shape", max_entries=5)
        tree_s = rtree_over(rel_s, "shape", max_entries=5)
        theta = Overlaps()
        sync_meter = CostMeter()
        paper_meter = CostMeter()
        a = sync_tree_join(tree_r, tree_s, theta, meter=sync_meter)
        b = tree_join(tree_r, tree_s, theta, meter=paper_meter)
        assert a.pair_set() == b.pair_set()
        ratio = sync_meter.predicate_evaluations / paper_meter.predicate_evaluations
        assert 1 / 3 <= ratio <= 3, ratio
