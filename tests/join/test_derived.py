"""Tests for semijoin / antijoin and the limit parameter of SELECT."""

import pytest

from repro.errors import JoinError
from repro.geometry.rect import Rect
from repro.join.derived import spatial_antijoin, spatial_semijoin
from repro.join.select import spatial_select
from repro.predicates.theta import Overlaps, WithinDistance
from repro.storage.costs import CostMeter

from tests import oracle
from tests.join.conftest import make_rect_relation, rtree_over


@pytest.fixture
def setup():
    rel_outer = make_rect_relation("outer", 150, seed=91)
    rel_inner = make_rect_relation("inner", 60, seed=92)
    tree_inner = rtree_over(rel_inner, "shape")
    return rel_outer, rel_inner, tree_inner


class TestLimit:
    def test_limit_one_stops_early(self, setup):
        _, rel_inner, tree_inner = setup
        q = Rect(0, 0, 100, 100)
        full = CostMeter()
        spatial_select(tree_inner, q, Overlaps(), meter=full)
        limited = CostMeter()
        res = spatial_select(tree_inner, q, Overlaps(), meter=limited, limit=1)
        assert len(res.matches) == 1
        assert limited.theta_filter_evals < full.theta_filter_evals

    def test_limit_caps_results(self, setup):
        _, _, tree_inner = setup
        res = spatial_select(tree_inner, Rect(0, 0, 100, 100), Overlaps(), limit=5)
        assert len(res.matches) == 5

    def test_limit_larger_than_matches(self, setup):
        _, rel_inner, tree_inner = setup
        q = Rect(0, 0, 100, 100)
        res = spatial_select(tree_inner, q, Overlaps(), limit=10_000)
        full = spatial_select(tree_inner, q, Overlaps())
        assert set(res.tids) == set(full.tids)

    def test_limit_validated(self, setup):
        _, _, tree_inner = setup
        with pytest.raises(JoinError):
            spatial_select(tree_inner, Rect(0, 0, 1, 1), Overlaps(), limit=0)


class TestSemijoin:
    def test_matches_brute_force(self, setup):
        rel_outer, rel_inner, tree_inner = setup
        theta = WithinDistance(15.0)
        res = spatial_semijoin(rel_outer, "shape", tree_inner, theta)
        pairs = oracle.pairs(rel_outer, "shape", rel_inner, "shape", theta)
        assert set(res.tids) == {o for o, _ in pairs}

    def test_each_tuple_once(self, setup):
        rel_outer, _, tree_inner = setup
        res = spatial_semijoin(rel_outer, "shape", tree_inner, WithinDistance(200.0))
        assert len(res.tids) == len(set(res.tids)) == len(rel_outer)

    def test_cheaper_than_full_join_on_dense_matches(self, setup):
        """With many partners per outer tuple, the exists-probe's early
        exit saves work compared to enumerating all pairs."""
        rel_outer, rel_inner, tree_inner = setup
        theta = WithinDistance(120.0)  # nearly everything matches
        semi = CostMeter()
        spatial_semijoin(rel_outer, "shape", tree_inner, theta, meter=semi)
        from repro.join.index_join import index_nested_loop_join_swapped

        full = CostMeter()
        index_nested_loop_join_swapped(
            rel_outer, "shape", tree_inner, theta, meter=full
        )
        assert semi.predicate_evaluations < full.predicate_evaluations / 2


class TestAntijoin:
    def test_complement_of_semijoin(self, setup):
        rel_outer, _, tree_inner = setup
        theta = WithinDistance(15.0)
        semi = spatial_semijoin(rel_outer, "shape", tree_inner, theta)
        anti = spatial_antijoin(rel_outer, "shape", tree_inner, theta)
        assert set(semi.tids) | set(anti.tids) == {t.tid for t in rel_outer.scan()}
        assert set(semi.tids) & set(anti.tids) == set()

    def test_against_brute_force(self, setup):
        rel_outer, rel_inner, tree_inner = setup
        theta = Overlaps()
        anti = spatial_antijoin(rel_outer, "shape", tree_inner, theta)
        pairs = oracle.pairs(rel_outer, "shape", rel_inner, "shape", theta)
        assert set(anti.tids) == set(oracle.rows_of(rel_outer)) - {o for o, _ in pairs}
