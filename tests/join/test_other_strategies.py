"""Tests for the index-supported join, z-order merge, and local join index."""

import pytest

from repro.errors import JoinError
from repro.geometry.rect import Rect
from repro.join.index_join import (
    index_nested_loop_join,
    index_nested_loop_join_swapped,
)
from repro.join.local_join_index import LocalJoinIndex
from repro.join.zorder_merge import zorder_merge_join
from repro.predicates.theta import NorthwestOf, Overlaps, WithinDistance
from repro.storage.costs import CostMeter
from repro.storage.record import RecordId
from repro.trees.balanced import BalancedKTree

from tests import oracle
from tests.join.conftest import make_rect_relation, node_regions, rtree_over

UNIVERSE = Rect(0, 0, 128, 128)


class TestIndexNestedLoop:
    def test_matches_brute_force(self):
        rel_r = make_rect_relation("r", 100, seed=81)
        rel_s = make_rect_relation("s", 80, seed=82)
        tree_r = rtree_over(rel_r, "shape")
        theta = Overlaps()
        res = index_nested_loop_join(rel_s, "shape", tree_r, theta)
        assert sorted(res.pair_set()) == oracle.pairs(rel_r, "shape", rel_s, "shape", theta)

    def test_asymmetric_operand_order(self):
        rel_r = make_rect_relation("r", 50, seed=83)
        rel_s = make_rect_relation("s", 50, seed=84)
        tree_r = rtree_over(rel_r, "shape")
        theta = NorthwestOf()
        res = index_nested_loop_join(rel_s, "shape", tree_r, theta)
        assert sorted(res.pair_set()) == oracle.pairs(rel_r, "shape", rel_s, "shape", theta)

    def test_swapped_variant(self):
        rel_r = make_rect_relation("r", 60, seed=85)
        rel_s = make_rect_relation("s", 60, seed=86)
        tree_s = rtree_over(rel_s, "shape")
        theta = NorthwestOf()
        res = index_nested_loop_join_swapped(rel_r, "shape", tree_s, theta)
        assert sorted(res.pair_set()) == oracle.pairs(rel_r, "shape", rel_s, "shape", theta)


class TestZOrderMerge:
    def test_matches_brute_force(self):
        rel_r = make_rect_relation("r", 90, seed=87)
        rel_s = make_rect_relation("s", 90, seed=88)
        theta = Overlaps()
        res = zorder_merge_join(
            rel_r, rel_s, "shape", "shape", universe=UNIVERSE, max_level=7
        )
        assert sorted(res.pair_set()) == oracle.pairs(rel_r, "shape", rel_s, "shape", theta)

    def test_duplicates_reported_without_refinement(self):
        """The paper: "any overlap is likely to be reported more than
        once ... once for each grid cell that the objects have in
        common"."""
        rel_r = make_rect_relation("r", 50, seed=89)
        raw = zorder_merge_join(
            rel_r, rel_r, "shape", "shape",
            universe=UNIVERSE, max_level=6, refine=False,
        )
        assert len(raw.pairs) > len(raw.pair_set())

    def test_candidates_superset_of_matches(self):
        rel_r = make_rect_relation("r", 60, seed=90)
        rel_s = make_rect_relation("s", 60, seed=91)
        raw = zorder_merge_join(
            rel_r, rel_s, "shape", "shape",
            universe=UNIVERSE, max_level=6, refine=False,
        )
        refined = zorder_merge_join(
            rel_r, rel_s, "shape", "shape", universe=UNIVERSE, max_level=6
        )
        assert refined.pair_set() <= raw.pair_set()

    def test_coarser_grid_same_result_more_candidates(self):
        rel_r = make_rect_relation("r", 60, seed=92)
        rel_s = make_rect_relation("s", 60, seed=93)
        fine = zorder_merge_join(
            rel_r, rel_s, "shape", "shape", universe=UNIVERSE, max_level=7
        )
        coarse = zorder_merge_join(
            rel_r, rel_s, "shape", "shape", universe=UNIVERSE, max_level=3
        )
        assert fine.pair_set() == coarse.pair_set()
        coarse_raw = zorder_merge_join(
            rel_r, rel_s, "shape", "shape",
            universe=UNIVERSE, max_level=3, refine=False,
        )
        fine_raw = zorder_merge_join(
            rel_r, rel_s, "shape", "shape",
            universe=UNIVERSE, max_level=7, refine=False,
        )
        assert len(coarse_raw.pair_set()) >= len(fine_raw.pair_set())


def balanced_self_tree(k=3, n=3) -> BalancedKTree:
    t = BalancedKTree(k, n, universe=Rect(0, 0, 100, 100))
    t.assign_tids([RecordId(0, i) for i in range(t.node_count())])
    return t


class TestLocalJoinIndex:
    def test_self_join_complete(self):
        tree = balanced_self_tree()
        theta = WithinDistance(15.0)
        lji = LocalJoinIndex(tree, theta, partition_height=1)
        lji.build()
        got = {frozenset(p) for p in lji.self_join().pair_set()}
        nodes = node_regions(tree)
        assert got == {
            frozenset(p) for p in oracle.join(nodes, nodes, theta) if p[0] != p[1]
        }

    def test_partners_of(self):
        tree = balanced_self_tree(k=2, n=3)
        theta = WithinDistance(30.0)
        lji = LocalJoinIndex(tree, theta, partition_height=1)
        lji.build()
        target = list(tree.bfs_nodes())[5]
        want = set(oracle.select(node_regions(tree), target.region, theta)) - {target.tid}
        assert set(lji.partners_of(target.tid)) == want

    def test_insert_cheaper_than_global(self):
        """The hybrid's pay-off: maintenance touches far fewer objects
        than the N the global index requires."""
        tree = balanced_self_tree(k=4, n=3)  # 85 nodes
        theta = WithinDistance(5.0)
        lji = LocalJoinIndex(tree, theta, partition_height=1)
        lji.build()
        meter = CostMeter()
        lji.insert(RecordId(9, 0), Rect(1, 1, 2, 2), partition=0, meter=meter)
        assert meter.update_computations < tree.node_count() / 2

    def test_insert_finds_cross_partition_pairs(self):
        tree = balanced_self_tree(k=4, n=2)
        theta = WithinDistance(40.0)
        lji = LocalJoinIndex(tree, theta, partition_height=1)
        lji.build()
        # Insert near a partition boundary: partners from other partitions
        # must still be discovered.
        new_tid = RecordId(9, 1)
        lji.insert(new_tid, Rect(49, 49, 51, 51), partition=0)
        partners = set(lji.partners_of(new_tid))
        assert partners == set(oracle.select(node_regions(tree), Rect(49, 49, 51, 51), theta))

    def test_requires_build(self):
        tree = balanced_self_tree(k=2, n=1)
        lji = LocalJoinIndex(tree, Overlaps(), partition_height=1)
        with pytest.raises(JoinError):
            lji.self_join()

    def test_bad_partition_height(self):
        tree = balanced_self_tree(k=2, n=1)
        with pytest.raises(JoinError):
            LocalJoinIndex(tree, Overlaps(), partition_height=5)
