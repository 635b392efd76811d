"""Refiner protocol: ExactRefiner parity and IntervalFilter metering."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import IntermediateError
from repro.geometry.rect import Rect
from repro.intermediate import (
    DEFAULT_INTERVAL_LEVEL,
    ExactRefiner,
    IntervalFilter,
    IntervalSpec,
)
from repro.predicates.dispatch import exact_overlaps
from repro.predicates.theta import Overlaps, WithinDistance
from repro.storage.costs import CostMeter

#: 8x8 grid of 8-unit cells: cell-aligned rects below are easy to reason
#: about (Rect(0,0,16,16) fully contains cells (0,0) and neighbors).
SPEC = IntervalSpec(universe=Rect(0.0, 0.0, 64.0, 64.0), level=3)


def test_spec_defaults_and_validation():
    spec = IntervalSpec(universe=Rect(0, 0, 1, 1))
    assert spec.level == DEFAULT_INTERVAL_LEVEL
    with pytest.raises(IntermediateError):
        IntervalSpec(universe=Rect(0, 0, 1, 1), level=-1)


def test_exact_refiner_is_the_historical_path():
    refiner = ExactRefiner(Overlaps())
    meter = CostMeter()
    assert refiner.matches(Rect(0, 0, 2, 2), Rect(1, 1, 3, 3), meter) is True
    assert refiner.matches(Rect(0, 0, 2, 2), Rect(5, 5, 6, 6), meter) is False
    assert meter.theta_exact_evals == 2
    assert meter.interval_probes == 0


def test_exact_refiner_accepts_bare_callables():
    # The z-order merge passes its hardwired exact_overlaps function.
    refiner = ExactRefiner(exact_overlaps)
    assert refiner.matches(Rect(0, 0, 2, 2), Rect(1, 1, 3, 3), CostMeter())


def test_interval_filter_requires_overlaps():
    with pytest.raises(IntermediateError):
        IntervalFilter(WithinDistance(5.0), SPEC)


def test_sure_hit_skips_exact_eval():
    flt = IntervalFilter(Overlaps(), SPEC)
    meter = CostMeter()
    # Rect(0,0,16,16) fully contains cell (0,0); Rect(8,8,24,24) meets it.
    assert flt.matches(Rect(0, 0, 16, 16), Rect(8, 8, 24, 24), meter) is True
    assert meter.interval_probes == 1
    assert meter.interval_sure_hits == 1
    assert meter.interval_evals_saved == 1
    assert meter.theta_exact_evals == 0


def test_sure_miss_skips_exact_eval():
    flt = IntervalFilter(Overlaps(), SPEC)
    meter = CostMeter()
    # Covers (with closed seams) are {0..2} x {0..2} vs {3..6} x {0..2}.
    assert flt.matches(Rect(0, 0, 16, 16), Rect(32, 0, 48, 16), meter) is False
    assert meter.interval_probes == 1
    assert meter.interval_sure_hits == 0
    assert meter.interval_evals_saved == 1
    assert meter.theta_exact_evals == 0


def test_ambiguous_falls_through_to_exact():
    flt = IntervalFilter(Overlaps(), SPEC)
    meter = CostMeter()
    # Both rects live inside cell (0,0) without filling it: PARTIAL only.
    assert flt.matches(Rect(0, 0, 4, 4), Rect(2, 2, 6, 6), meter) is True
    assert meter.interval_probes == 1
    assert meter.interval_evals_saved == 0
    assert meter.theta_exact_evals == 1


def test_unapproximable_operand_goes_straight_to_exact():
    flt = IntervalFilter(Overlaps(), SPEC)
    meter = CostMeter()
    outside = Rect(-10.0, -10.0, 5.0, 5.0)  # MBR pokes out of the universe
    assert flt.matches(outside, Rect(0, 0, 4, 4), meter) is True
    assert meter.interval_probes == 0
    assert meter.theta_exact_evals == 1
    assert flt.approx_for(outside) is None  # memoized as unapproximable


def test_filter_never_disagrees_with_exact():
    """Dense sweep of aligned/tangent/disjoint configurations."""
    theta = Overlaps()
    flt = IntervalFilter(theta, SPEC)
    base = Rect(8.0, 8.0, 24.0, 24.0)
    for dx in range(0, 56, 4):
        for dy in range(0, 56, 4):
            other = Rect(float(dx), float(dy), dx + 8.0, dy + 8.0)
            assert flt.matches(base, other, CostMeter()) == theta(base, other), (
                dx, dy,
            )


def test_seeded_tables_are_adopted():
    flt_cold = IntervalFilter(Overlaps(), SPEC)
    geom = Rect(0, 0, 16, 16)
    apx = flt_cold.approx_for(geom)
    flt_warm = IntervalFilter(Overlaps(), SPEC, tables={geom: apx})
    assert flt_warm.approx_for(geom) is apx  # no re-rasterization


def test_refiners_are_picklable():
    for refiner in (ExactRefiner(Overlaps()), IntervalFilter(Overlaps(), SPEC)):
        clone = pickle.loads(pickle.dumps(refiner))
        meter = CostMeter()
        assert clone.matches(Rect(0, 0, 16, 16), Rect(8, 8, 24, 24), meter)
