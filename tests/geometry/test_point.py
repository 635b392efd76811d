"""Unit tests for the Point type."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry.point import Point
from repro.geometry.rect import Rect

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestConstruction:
    def test_basic(self):
        p = Point(1.5, -2.0)
        assert p.x == 1.5
        assert p.y == -2.0

    def test_rejects_nan(self):
        with pytest.raises(GeometryError):
            Point(float("nan"), 0.0)

    def test_rejects_infinity(self):
        with pytest.raises(GeometryError):
            Point(0.0, float("inf"))

    def test_is_hashable_and_equal_by_value(self):
        assert Point(1.0, 2.0) == Point(1.0, 2.0)
        assert hash(Point(1.0, 2.0)) == hash(Point(1.0, 2.0))
        assert len({Point(0, 0), Point(0, 0), Point(1, 0)}) == 2

    def test_unpacking(self):
        x, y = Point(3.0, 4.0)
        assert (x, y) == (3.0, 4.0)


class TestDistances:
    def test_pythagorean(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_manhattan(self):
        assert Point(0, 0).manhattan_distance_to(Point(3, -4)) == pytest.approx(7.0)

    @given(coords, coords, coords, coords)
    def test_symmetry(self, x1, y1, x2, y2):
        a, b = Point(x1, y1), Point(x2, y2)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    @given(coords, coords)
    def test_self_distance_zero(self, x, y):
        p = Point(x, y)
        assert p.distance_to(p) == 0.0

    @given(coords, coords, coords, coords, coords, coords)
    def test_triangle_inequality(self, x1, y1, x2, y2, x3, y3):
        a, b, c = Point(x1, y1), Point(x2, y2), Point(x3, y3)
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-6


class TestDirections:
    def test_northwest_strict(self):
        assert Point(0, 10).is_northwest_of(Point(5, 5))
        assert not Point(5, 10).is_northwest_of(Point(5, 5))  # same x
        assert not Point(0, 5).is_northwest_of(Point(5, 5))  # same y
        assert not Point(9, 1).is_northwest_of(Point(5, 5))

    @given(coords, coords, coords, coords)
    def test_northwest_antisymmetric(self, x1, y1, x2, y2):
        a, b = Point(x1, y1), Point(x2, y2)
        if a.is_northwest_of(b):
            assert not b.is_northwest_of(a)


class TestGeometryProtocol:
    def test_mbr_degenerate(self):
        assert Point(2, 3).mbr() == Rect(2, 3, 2, 3)

    def test_centerpoint_is_self(self):
        p = Point(2, 3)
        assert p.centerpoint() is p

    def test_translated(self):
        assert Point(1, 1).translated(2, -1) == Point(3, 0)

    def test_as_tuple(self):
        assert Point(1.0, 2.0).as_tuple() == (1.0, 2.0)
