"""Tests for strategy I: the blocked nested loop."""

import pytest

from repro.errors import JoinError
from repro.geometry.rect import Rect
from repro.join.nested_loop import nested_loop_join, nested_loop_select
from repro.predicates.theta import Overlaps, WithinDistance
from repro.storage.costs import CostMeter

from tests import oracle
from tests.join.conftest import make_rect_relation


class TestJoinCorrectness:
    def test_matches_brute_force(self):
        rel_r = make_rect_relation("r", 80, seed=51)
        rel_s = make_rect_relation("s", 90, seed=52)
        theta = Overlaps()
        res = nested_loop_join(rel_r, rel_s, "shape", "shape", theta, memory_pages=100)
        assert sorted(res.pair_set()) == oracle.pairs(rel_r, "shape", rel_s, "shape", theta)

    def test_collect_tuples(self):
        rel_r = make_rect_relation("r", 20, seed=53)
        rel_s = make_rect_relation("s", 20, seed=54)
        res = nested_loop_join(
            rel_r, rel_s, "shape", "shape", Overlaps(),
            memory_pages=50, collect_tuples=True,
        )
        assert len(res.tuples) == len(res.pairs)

    def test_memory_must_exceed_reserve(self):
        rel = make_rect_relation("r", 5, seed=55)
        with pytest.raises(JoinError):
            nested_loop_join(rel, rel, "shape", "shape", Overlaps(), memory_pages=10)


class TestJoinAccounting:
    def test_predicate_evals_is_product(self):
        rel_r = make_rect_relation("r", 37, seed=56)
        rel_s = make_rect_relation("s", 23, seed=57)
        meter = CostMeter()
        nested_loop_join(
            rel_r, rel_s, "shape", "shape", Overlaps(),
            memory_pages=100, meter=meter,
        )
        assert meter.theta_exact_evals == 37 * 23

    def test_io_follows_blocked_formula(self):
        """Reads = passes * pages(S) + pages(R) with chunk = M - 10."""
        rel_r = make_rect_relation("r", 100, seed=58)  # 20 pages
        rel_s = make_rect_relation("s", 60, seed=59)   # 12 pages
        memory_pages = 15  # chunk of 5 R-pages per pass -> 4 passes
        meter = CostMeter()
        nested_loop_join(
            rel_r, rel_s, "shape", "shape", Overlaps(),
            memory_pages=memory_pages, meter=meter,
        )
        passes = -(-rel_r.num_pages // (memory_pages - 10))
        expected = passes * rel_s.num_pages + rel_r.num_pages
        assert meter.page_reads == expected

    def test_single_pass_when_r_fits(self):
        rel_r = make_rect_relation("r", 20, seed=60)  # 4 pages
        rel_s = make_rect_relation("s", 50, seed=61)  # 10 pages
        meter = CostMeter()
        nested_loop_join(
            rel_r, rel_s, "shape", "shape", Overlaps(),
            memory_pages=100, meter=meter,
        )
        assert meter.page_reads == rel_r.num_pages + rel_s.num_pages


class TestSelect:
    def test_matches_filterless_scan(self):
        rel = make_rect_relation("r", 70, seed=62)
        q = Rect(20, 20, 60, 60)
        theta = Overlaps()
        res = nested_loop_select(rel, "shape", q, theta)
        assert sorted(res.tids) == oracle.tids(rel, "shape", q, theta)

    def test_accounting_is_c1(self):
        """N predicate evaluations and ceil(N/m) page reads (C_I)."""
        rel = make_rect_relation("r", 63, seed=63)
        meter = CostMeter()
        nested_loop_select(rel, "shape", Rect(0, 0, 1, 1), Overlaps(), meter=meter)
        assert meter.theta_exact_evals == 63
        assert meter.page_reads == rel.num_pages == 13

    def test_within_distance(self):
        rel = make_rect_relation("r", 40, seed=64)
        q = Rect(50, 50, 51, 51)
        theta = WithinDistance(25.0)
        res = nested_loop_select(rel, "shape", q, theta)
        assert sorted(res.tids) == oracle.tids(rel, "shape", q, theta)
