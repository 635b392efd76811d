"""Type dispatch for exact geometric tests across mixed operand types.

The theta-operators of Table 1 must work for any combination of the
library's spatial types -- a spatial join may relate a point column
(``house.hlocation``) to a polygon column (``lake.larea``).  This module
centralizes the pairwise dispatch so each operator class stays small.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.errors import PredicateError
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import PolyLine
from repro.geometry.rect import Rect


@runtime_checkable
class SpatialObject(Protocol):
    """Anything the predicates can evaluate: exposes an MBR and a centerpoint.

    All four geometry types satisfy this protocol, as do generalization
    tree node payloads.
    """

    def mbr(self) -> Rect: ...

    def centerpoint(self) -> Point: ...


def centerpoint_of(obj: SpatialObject) -> Point:
    """The object's centerpoint (center of gravity unless user-defined)."""
    return obj.centerpoint()


def exact_overlaps(a: SpatialObject, b: SpatialObject) -> bool:
    """True if the closed point sets of ``a`` and ``b`` share a point."""
    # MBR pre-test: cheap rejection for every type combination.
    if not a.mbr().intersects(b.mbr()):
        return False
    if isinstance(a, Point):
        return _point_overlaps(a, b)
    if isinstance(b, Point):
        return _point_overlaps(b, a)
    if isinstance(a, Rect) and isinstance(b, Rect):
        return True  # MBR pre-test already decided it.
    if isinstance(a, Polygon):
        return _polygon_overlaps(a, b)
    if isinstance(b, Polygon):
        return _polygon_overlaps(b, a)
    if isinstance(a, PolyLine) and isinstance(b, PolyLine):
        return a.intersects(b)
    if isinstance(a, Rect) and isinstance(b, PolyLine):
        return _rect_overlaps_polyline(a, b)
    if isinstance(a, PolyLine) and isinstance(b, Rect):
        return _rect_overlaps_polyline(b, a)
    raise PredicateError(f"overlaps unsupported for {type(a).__name__} / {type(b).__name__}")


def _point_overlaps(p: Point, other: SpatialObject) -> bool:
    if isinstance(other, Point):
        return p == other
    if isinstance(other, Rect):
        return other.contains_point(p)
    if isinstance(other, Polygon):
        return other.contains_point(p)
    if isinstance(other, PolyLine):
        return any(s.contains_point(p) for s in other.segments())
    raise PredicateError(f"overlaps unsupported for Point / {type(other).__name__}")


def _polygon_overlaps(poly: Polygon, other: SpatialObject) -> bool:
    if isinstance(other, Polygon):
        return poly.overlaps(other)
    if isinstance(other, Rect):
        return poly.intersects_rect(other)
    if isinstance(other, PolyLine):
        if any(
            e.intersects(s) for e in poly.edges() for s in other.segments()
        ):
            return True
        return poly.contains_point(other.vertices[0])
    raise PredicateError(f"overlaps unsupported for Polygon / {type(other).__name__}")


def _rect_overlaps_polyline(rect: Rect, line: PolyLine) -> bool:
    if any(rect.contains_point(v) for v in line.vertices):
        return True
    return _rect_boundary_hit(rect, line)


def _rect_boundary_hit(rect: Rect, line: PolyLine) -> bool:
    """True if any chain segment crosses the rectangle's boundary."""
    if rect.area() <= 0:
        return any(s.contains_point(rect.centerpoint()) for s in line.segments())
    boundary = list(Polygon.from_rect(rect).edges())
    return any(s.intersects(e) for s in line.segments() for e in boundary)


def exact_contains(a: SpatialObject, b: SpatialObject) -> bool:
    """True if ``a`` (as a closed region) includes all of ``b``.

    Points and polylines have empty interiors: a point includes only an
    identical point, a polyline includes points on it and sub-chains.
    """
    if not a.mbr().contains_rect(b.mbr()):
        return False
    if isinstance(a, Point):
        return isinstance(b, Point) and a == b
    if isinstance(a, Rect):
        return _rect_contains(a, b)
    if isinstance(a, Polygon):
        return _polygon_contains(a, b)
    if isinstance(a, PolyLine):
        if isinstance(b, Point):
            return any(s.contains_point(b) for s in a.segments())
        if isinstance(b, PolyLine):
            return all(
                any(s.contains_point(v) for s in a.segments()) for v in b.vertices
            ) and all(
                any(s.contains_point(sb.midpoint()) for s in a.segments())
                for sb in b.segments()
            )
        return False
    raise PredicateError(f"contains unsupported for {type(a).__name__} / {type(b).__name__}")


def _rect_contains(rect: Rect, other: SpatialObject) -> bool:
    if isinstance(other, Point):
        return rect.contains_point(other)
    if isinstance(other, Rect):
        return rect.contains_rect(other)
    if isinstance(other, (Polygon, PolyLine)):
        return rect.contains_rect(other.mbr())
    raise PredicateError(f"contains unsupported for Rect / {type(other).__name__}")


def _polygon_contains(poly: Polygon, other: SpatialObject) -> bool:
    if isinstance(other, Point):
        return poly.contains_point(other)
    if isinstance(other, Rect):
        return poly.contains_rect(other)
    if isinstance(other, Polygon):
        return poly.contains_polygon(other)
    if isinstance(other, PolyLine):
        return all(poly.contains_point(v) for v in other.vertices) and all(
            poly.contains_point(s.midpoint()) for s in other.segments()
        )
    raise PredicateError(f"contains unsupported for Polygon / {type(other).__name__}")


def min_distance(a: SpatialObject, b: SpatialObject) -> float:
    """Distance between the closest points of ``a`` and ``b``.

    Zero when the objects overlap.  This is the "measured between closest
    points" semantics the Theta column of Table 1 prescribes for the
    within-distance filter.
    """
    if exact_overlaps(a, b):
        return 0.0
    if isinstance(a, Point):
        return _point_distance(a, b)
    if isinstance(b, Point):
        return _point_distance(b, a)
    if isinstance(a, Rect) and isinstance(b, Rect):
        return a.min_distance_to(b)
    # Mixed extended types: measure between boundary segments.
    segs_a = _boundary_segments(a)
    segs_b = _boundary_segments(b)
    return min(sa.distance_to_segment(sb) for sa in segs_a for sb in segs_b)


def _point_distance(p: Point, other: SpatialObject) -> float:
    if isinstance(other, Point):
        return p.distance_to(other)
    if isinstance(other, Rect):
        return other.distance_to_point(p)
    if isinstance(other, Polygon):
        return other.distance_to_point(p)
    if isinstance(other, PolyLine):
        return other.distance_to_point(p)
    raise PredicateError(f"distance unsupported for Point / {type(other).__name__}")


def _boundary_segments(obj: SpatialObject) -> list:
    if isinstance(obj, Polygon):
        return list(obj.edges())
    if isinstance(obj, PolyLine):
        return list(obj.segments())
    if isinstance(obj, Rect):
        from repro.geometry.segment import Segment

        if obj.area() <= 0:
            lo = Point(obj.xmin, obj.ymin)
            hi = Point(obj.xmax, obj.ymax)
            return [Segment(lo, hi)]
        # Straight from the corners: a rectangle this thin is still one,
        # though its shoelace area may round to the zero a Polygon refuses.
        corners = obj.corners()
        return [Segment(a, b) for a, b in zip(corners, corners[1:] + corners[:1])]
    raise PredicateError(f"no boundary segments for {type(obj).__name__}")
