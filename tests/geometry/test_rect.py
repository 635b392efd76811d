"""Unit and property tests for the rectangle (MBR) algebra."""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry.point import Point
from repro.geometry.rect import Rect

coords = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)


@st.composite
def rects(draw):
    x1, x2 = sorted((draw(coords), draw(coords)))
    y1, y2 = sorted((draw(coords), draw(coords)))
    return Rect(x1, y1, x2, y2)


class TestConstruction:
    def test_rejects_negative_extent(self):
        with pytest.raises(GeometryError):
            Rect(1, 0, 0, 1)
        with pytest.raises(GeometryError):
            Rect(0, 1, 1, 0)

    def test_degenerate_allowed(self):
        r = Rect(1, 1, 1, 1)
        assert r.area() == 0.0

    def test_from_points(self):
        r = Rect.from_points([Point(1, 5), Point(3, 2), Point(2, 7)])
        assert r == Rect(1, 2, 3, 7)

    def test_from_points_empty_raises(self):
        with pytest.raises(GeometryError):
            Rect.from_points([])

    def test_union_of(self):
        u = Rect.union_of([Rect(0, 0, 1, 1), Rect(2, 2, 3, 3)])
        assert u == Rect(0, 0, 3, 3)


class TestMeasures:
    def test_area(self):
        assert Rect(0, 0, 4, 3).area() == 12.0

    def test_centerpoint(self):
        assert Rect(0, 0, 4, 2).centerpoint() == Point(2, 1)

    def test_corners_ccw(self):
        c = Rect(0, 0, 1, 2).corners()
        assert c == (Point(0, 0), Point(1, 0), Point(1, 2), Point(0, 2))


class TestPredicates:
    def test_intersects_touching_edges(self):
        assert Rect(0, 0, 1, 1).intersects(Rect(1, 0, 2, 1))

    def test_disjoint(self):
        assert not Rect(0, 0, 1, 1).intersects(Rect(2, 2, 3, 3))

    def test_contains_point_boundary(self):
        r = Rect(0, 0, 1, 1)
        assert r.contains_point(Point(0, 0))
        assert r.contains_point(Point(1, 1))
        assert not r.contains_point(Point(1.0001, 0.5))

    def test_contains_rect(self):
        assert Rect(0, 0, 10, 10).contains_rect(Rect(1, 1, 2, 2))
        assert Rect(0, 0, 10, 10).contains_rect(Rect(0, 0, 10, 10))
        assert not Rect(0, 0, 10, 10).contains_rect(Rect(5, 5, 11, 6))

    @given(rects(), rects())
    def test_intersects_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)

    @given(rects(), rects())
    def test_intersection_consistent_with_intersects(self, a, b):
        overlap = a.intersection(b)
        assert (overlap is not None) == a.intersects(b)
        if overlap is not None:
            assert a.contains_rect(overlap)
            assert b.contains_rect(overlap)

    @given(rects(), rects())
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert u.contains_rect(a)
        assert u.contains_rect(b)

    @given(rects(), rects())
    def test_enlargement_non_negative(self, a, b):
        assert a.enlargement(b) >= 0.0


class TestDistances:
    def test_min_distance_overlapping_is_zero(self):
        assert Rect(0, 0, 2, 2).min_distance_to(Rect(1, 1, 3, 3)) == 0.0

    def test_min_distance_axis_gap(self):
        assert Rect(0, 0, 1, 1).min_distance_to(Rect(4, 0, 5, 1)) == pytest.approx(3.0)

    def test_min_distance_diagonal_gap(self):
        assert Rect(0, 0, 1, 1).min_distance_to(Rect(4, 5, 6, 7)) == pytest.approx(5.0)

    def test_max_distance(self):
        assert Rect(0, 0, 1, 1).max_distance_to(Rect(4, 0, 5, 1)) == pytest.approx(
            (25 + 1) ** 0.5
        )

    def test_distance_to_point_inside(self):
        assert Rect(0, 0, 2, 2).distance_to_point(Point(1, 1)) == 0.0

    @given(rects(), rects())
    def test_min_le_max_distance(self, a, b):
        assert a.min_distance_to(b) <= a.max_distance_to(b) + 1e-9

    @given(rects(), rects())
    def test_min_distance_symmetric(self, a, b):
        assert a.min_distance_to(b) == pytest.approx(b.min_distance_to(a))


class TestDerivedRegions:
    def test_buffer(self):
        assert Rect(0, 0, 1, 1).buffer(2) == Rect(-2, -2, 3, 3)

    def test_buffer_negative_raises(self):
        with pytest.raises(GeometryError):
            Rect(0, 0, 1, 1).buffer(-0.1)

    def test_northwest_quadrant_contains_nw_points(self):
        r = Rect(5, 5, 10, 10)
        q = r.quadrant("nw")
        # A point strictly NW of the rect's center must be in the quadrant.
        assert q.contains_point(Point(0, 20))
        # A point strictly SE of the rect must not be.
        assert not q.contains_point(Point(20, 0))

    def test_quadrants_cover_directions(self):
        r = Rect(4, 4, 6, 6)
        assert r.quadrant("ne").contains_point(Point(20, 20))
        assert r.quadrant("sw").contains_point(Point(-20, -20))
        assert r.quadrant("se").contains_point(Point(20, -20))

    def test_quadrant_unknown_direction(self):
        with pytest.raises(GeometryError):
            Rect(0, 0, 1, 1).quadrant("up")

    @given(rects(), st.floats(min_value=0, max_value=100))
    def test_buffer_contains_original(self, r, d):
        assert r.buffer(d).contains_rect(r)

    def test_translated(self):
        assert Rect(0, 0, 1, 1).translated(5, -5) == Rect(5, -5, 6, -4)
