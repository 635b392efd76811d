"""Unit and property tests for simple polygons."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.predicates.dispatch import min_distance


def unit_square() -> Polygon:
    return Polygon([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])


def triangle() -> Polygon:
    return Polygon([Point(0, 0), Point(4, 0), Point(0, 3)])


@st.composite
def regular_polygons(draw):
    cx = draw(st.floats(min_value=-50, max_value=50))
    cy = draw(st.floats(min_value=-50, max_value=50))
    radius = draw(st.floats(min_value=0.5, max_value=20))
    sides = draw(st.integers(min_value=3, max_value=12))
    return Polygon.regular(Point(cx, cy), radius, sides)


class TestConstruction:
    def test_too_few_vertices(self):
        with pytest.raises(GeometryError):
            Polygon([Point(0, 0), Point(1, 1)])

    def test_degenerate_zero_area(self):
        with pytest.raises(GeometryError):
            Polygon([Point(0, 0), Point(1, 1), Point(2, 2)])

    def test_closing_vertex_dropped(self):
        p = Polygon([Point(0, 0), Point(1, 0), Point(0, 1), Point(0, 0)])
        assert len(p.vertices) == 3

    def test_from_rect(self):
        p = Polygon.from_rect(Rect(0, 0, 2, 3))
        assert p.area() == pytest.approx(6.0)

    def test_from_degenerate_rect_raises(self):
        with pytest.raises(GeometryError):
            Polygon.from_rect(Rect(0, 0, 0, 1))

    def test_regular_requires_radius(self):
        with pytest.raises(GeometryError):
            Polygon.regular(Point(0, 0), 0.0, 5)


class TestMeasures:
    def test_square_area(self):
        assert unit_square().area() == pytest.approx(1.0)

    def test_triangle_area(self):
        assert triangle().area() == pytest.approx(6.0)

    def test_orientation_independent_area(self):
        cw = Polygon([Point(0, 0), Point(0, 1), Point(1, 1), Point(1, 0)])
        assert cw.area() == pytest.approx(1.0)

    def test_square_centroid(self):
        c = unit_square().centerpoint()
        assert c.x == pytest.approx(0.5)
        assert c.y == pytest.approx(0.5)

    def test_user_defined_centerpoint(self):
        p = Polygon(
            [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)],
            centerpoint=Point(0.25, 0.25),
        )
        assert p.centerpoint() == Point(0.25, 0.25)

    def test_mbr(self):
        assert triangle().mbr() == Rect(0, 0, 4, 3)

    @given(regular_polygons())
    def test_regular_area_formula(self, poly):
        # Area of a regular n-gon of circumradius r: (n r^2 / 2) sin(2 pi / n).
        n = len(poly.vertices)
        r = poly.vertices[0].distance_to(poly.centerpoint())
        expected = 0.5 * n * r * r * math.sin(2.0 * math.pi / n)
        assert poly.area() == pytest.approx(expected, rel=1e-6)


class TestPointInPolygon:
    def test_interior(self):
        assert unit_square().contains_point(Point(0.5, 0.5))

    def test_exterior(self):
        assert not unit_square().contains_point(Point(1.5, 0.5))

    def test_boundary_edge(self):
        assert unit_square().contains_point(Point(0.5, 0.0))

    def test_boundary_vertex(self):
        assert unit_square().contains_point(Point(0.0, 0.0))

    def test_concave_notch(self):
        # A "C" shape: the notch interior point must be outside.
        c = Polygon(
            [
                Point(0, 0), Point(4, 0), Point(4, 1), Point(1, 1),
                Point(1, 3), Point(4, 3), Point(4, 4), Point(0, 4),
            ]
        )
        assert not c.contains_point(Point(3, 2))
        assert c.contains_point(Point(0.5, 2))

    @given(regular_polygons())
    def test_centroid_inside_convex(self, poly):
        assert poly.contains_point(poly.centerpoint())


class TestOverlap:
    def test_overlapping_squares(self):
        a = unit_square()
        b = a.translated(0.5, 0.5)
        assert a.overlaps(b)

    def test_touching_squares(self):
        a = unit_square()
        b = a.translated(1.0, 0.0)
        assert a.overlaps(b)

    def test_disjoint_squares(self):
        a = unit_square()
        b = a.translated(3.0, 0.0)
        assert not a.overlaps(b)

    def test_containment_counts_as_overlap(self):
        outer = Polygon.from_rect(Rect(0, 0, 10, 10))
        inner = Polygon.from_rect(Rect(4, 4, 5, 5))
        assert outer.overlaps(inner)
        assert inner.overlaps(outer)

    def test_mbr_overlap_but_polygons_disjoint(self):
        # Two triangles whose MBRs overlap but shapes do not.
        a = Polygon([Point(0, 0), Point(4, 0), Point(0, 4)])
        b = Polygon([Point(4, 4), Point(4, 3.6), Point(3.6, 4)])
        assert a.mbr().intersects(b.mbr())
        assert not a.overlaps(b)

    @given(regular_polygons(), regular_polygons())
    def test_overlap_symmetric(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)


class TestContainment:
    def test_contains_polygon(self):
        outer = Polygon.from_rect(Rect(0, 0, 10, 10))
        inner = Polygon.from_rect(Rect(2, 2, 4, 4))
        assert outer.contains_polygon(inner)
        assert not inner.contains_polygon(outer)

    def test_partial_overlap_not_contained(self):
        a = Polygon.from_rect(Rect(0, 0, 4, 4))
        b = Polygon.from_rect(Rect(2, 2, 6, 6))
        assert not a.contains_polygon(b)

    def test_contains_rect(self):
        p = Polygon.from_rect(Rect(0, 0, 10, 10))
        assert p.contains_rect(Rect(1, 1, 2, 2))
        assert not p.contains_rect(Rect(8, 8, 12, 9))

    def test_intersects_rect(self):
        t = triangle()
        assert t.intersects_rect(Rect(0, 0, 1, 1))
        assert not t.intersects_rect(Rect(5, 5, 6, 6))

    def test_intersects_zero_area_rect_as_a_segment(self):
        """A zero-width rectangle is a segment, not its centerpoint
        (regression: found by the columnar differential's lattice)."""
        diamond = Polygon([Point(0, 3), Point(2, 0), Point(4, 3), Point(2, 6)])
        # Enters through the top vertex; its centre (2, 7.5) is outside.
        assert diamond.intersects_rect(Rect(2, 5, 2, 10))
        # Crosses two edges with both endpoints outside.
        assert diamond.intersects_rect(Rect(-1, 3, 5, 3))
        assert not diamond.intersects_rect(Rect(3.5, 5, 3.5, 6))
        assert diamond.intersects_rect(Rect(2, 3, 2, 3))
        assert not diamond.intersects_rect(Rect(0, 0, 0, 0))

    def test_concave_vertices_in_but_not_contained(self):
        # A U-shaped polygon: a bar across the opening has all vertices
        # inside the U's MBR-ish arms but crosses the notch.
        u = Polygon(
            [
                Point(0, 0), Point(6, 0), Point(6, 4), Point(4, 4),
                Point(4, 1), Point(2, 1), Point(2, 4), Point(0, 4),
            ]
        )
        bar = Polygon.from_rect(Rect(0.5, 2, 5.5, 3))
        assert not u.contains_polygon(bar)


class TestDistances:
    def test_distance_zero_on_overlap(self):
        a = unit_square()
        b = a.translated(0.5, 0)
        assert min_distance(a, b) == 0.0

    def test_distance_between_squares(self):
        a = unit_square()
        b = a.translated(3, 0)
        assert min_distance(a, b) == pytest.approx(2.0)

    def test_distance_to_point(self):
        assert unit_square().distance_to_point(Point(3, 0.5)) == pytest.approx(2.0)
        assert unit_square().distance_to_point(Point(0.5, 0.5)) == 0.0
