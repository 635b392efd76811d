"""Tests for sampled selectivity estimation."""

import pytest

from repro.costmodel.estimation import (
    estimate_join_selectivity,
    estimate_selection_selectivity,
)
from repro.errors import CostModelError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.predicates.theta import Overlaps, WithinDistance

from tests import oracle
from tests.join.conftest import make_rect_relation


class TestJoinEstimation:
    def test_estimate_close_to_truth(self):
        rel_r = make_rect_relation("r", 150, seed=41)
        rel_s = make_rect_relation("s", 150, seed=42)
        theta = WithinDistance(25.0)
        truth = len(oracle.pairs(rel_r, "shape", rel_s, "shape", theta)) / (150 * 150)
        est = estimate_join_selectivity(
            rel_r, "shape", rel_s, "shape", theta, sample_pairs=2000, seed=1
        )
        assert est.p == pytest.approx(truth, abs=3 * est.std_error + 0.01)

    def test_zero_matches_rule_of_three(self):
        rel_r = make_rect_relation("r", 30, seed=43)
        rel_s = make_rect_relation("s", 30, seed=44)
        est = estimate_join_selectivity(
            rel_r, "shape", rel_s, "shape", WithinDistance(0.0),
            sample_pairs=300, seed=2,
        )
        assert est.matches == 0
        assert est.p == pytest.approx(3.0 / 300)

    def test_empty_relation(self):
        rel_r = make_rect_relation("r", 0, seed=45)
        rel_s = make_rect_relation("s", 10, seed=46)
        est = estimate_join_selectivity(
            rel_r, "shape", rel_s, "shape", Overlaps()
        )
        assert est.p == 0.0
        assert est.sample_pairs == 0

    def test_deterministic_with_seed(self):
        rel_r = make_rect_relation("r", 50, seed=47)
        rel_s = make_rect_relation("s", 50, seed=48)
        a = estimate_join_selectivity(rel_r, "shape", rel_s, "shape", Overlaps(), seed=7)
        b = estimate_join_selectivity(rel_r, "shape", rel_s, "shape", Overlaps(), seed=7)
        assert a == b

    def test_validation(self):
        rel = make_rect_relation("r", 5, seed=49)
        with pytest.raises(CostModelError):
            estimate_join_selectivity(
                rel, "shape", rel, "shape", Overlaps(), sample_pairs=0
            )

    def test_confidence_interval_contains_p(self):
        rel_r = make_rect_relation("r", 80, seed=50)
        rel_s = make_rect_relation("s", 80, seed=51)
        est = estimate_join_selectivity(
            rel_r, "shape", rel_s, "shape", Overlaps(), sample_pairs=500
        )
        lo, hi = est.confidence_interval()
        assert lo <= est.p <= hi
        assert 0.0 <= lo and hi <= 1.0


class TestSelectionEstimation:
    def test_matches_truth_on_full_sample(self):
        rel = make_rect_relation("r", 100, seed=52)
        q = Rect(20, 20, 60, 60)
        theta = Overlaps()
        truth = len(oracle.tids(rel, "shape", q, theta)) / 100
        est = estimate_selection_selectivity(
            rel, "shape", q, theta, sample_size=100
        )
        assert est.p == pytest.approx(truth)

    def test_subsample(self):
        rel = make_rect_relation("r", 300, seed=53)
        est = estimate_selection_selectivity(
            rel, "shape", Point(50, 50), WithinDistance(30.0), sample_size=50
        )
        assert est.sample_pairs == 50
        assert 0.0 <= est.p <= 1.0
