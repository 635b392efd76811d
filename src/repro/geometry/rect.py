"""Axis-aligned rectangles: the MBR algebra underlying R-trees.

Guttman's R-tree (Figure 2 of the paper) is a hierarchy of nested
rectangles; every Theta-filter in Table 1 reduces to a test on minimum
bounding rectangles.  This module provides the complete rectangle algebra
those filters need: intersection, containment, enlargement, distances
between closest points, buffers and tangent quadrants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import GeometryError
from repro.geometry.point import Point


@dataclass(frozen=True, slots=True)
class Rect:
    """Closed axis-aligned rectangle ``[xmin, xmax] x [ymin, ymax]``.

    Degenerate rectangles (zero width and/or height) are allowed: a point's
    MBR is a degenerate rectangle.  ``xmin > xmax`` is rejected.
    """

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        for v in (self.xmin, self.ymin, self.xmax, self.ymax):
            if not math.isfinite(v):
                raise GeometryError(f"rectangle coordinates must be finite, got {self!r}")
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise GeometryError(
                f"rectangle has negative extent: x [{self.xmin}, {self.xmax}], "
                f"y [{self.ymin}, {self.ymax}]"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_points(cls, points: Iterable[Point]) -> "Rect":
        """Smallest rectangle enclosing ``points`` (at least one required)."""
        it = iter(points)
        try:
            first = next(it)
        except StopIteration:
            raise GeometryError("cannot build a rectangle from zero points") from None
        xmin = xmax = first.x
        ymin = ymax = first.y
        for p in it:
            xmin = min(xmin, p.x)
            xmax = max(xmax, p.x)
            ymin = min(ymin, p.y)
            ymax = max(ymax, p.y)
        return cls(xmin, ymin, xmax, ymax)

    @classmethod
    def union_of(cls, rects: Iterable["Rect"]) -> "Rect":
        """Smallest rectangle enclosing all of ``rects`` (at least one)."""
        it = iter(rects)
        try:
            first = next(it)
        except StopIteration:
            raise GeometryError("cannot build the union of zero rectangles") from None
        xmin, ymin, xmax, ymax = first.xmin, first.ymin, first.xmax, first.ymax
        for r in it:
            xmin = min(xmin, r.xmin)
            ymin = min(ymin, r.ymin)
            xmax = max(xmax, r.xmax)
            ymax = max(ymax, r.ymax)
        return cls(xmin, ymin, xmax, ymax)

    # ------------------------------------------------------------------
    # Basic measures
    # ------------------------------------------------------------------

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    def area(self) -> float:
        """Area of the rectangle (zero for degenerate rectangles)."""
        return self.width * self.height

    def centerpoint(self) -> Point:
        """Center of gravity; the paper's centerpoint-based operators use it."""
        return Point((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    def corners(self) -> tuple[Point, Point, Point, Point]:
        """The four corners, counter-clockwise from the lower-left."""
        return (
            Point(self.xmin, self.ymin),
            Point(self.xmax, self.ymin),
            Point(self.xmax, self.ymax),
            Point(self.xmin, self.ymax),
        )

    def mbr(self) -> "Rect":
        """A rectangle is its own minimum bounding rectangle."""
        return self

    def __iter__(self) -> Iterator[float]:
        yield self.xmin
        yield self.ymin
        yield self.xmax
        yield self.ymax

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------

    def intersects(self, other: "Rect") -> bool:
        """True if the closed rectangles share at least one point.

        Touching edges count as intersection; the paper's ``overlaps``
        Theta-filter must be conservative, and closed-set semantics keep it
        so for objects that merely touch.
        """
        return (
            self.xmin <= other.xmax
            and other.xmin <= self.xmax
            and self.ymin <= other.ymax
            and other.ymin <= self.ymax
        )

    def contains_point(self, p: Point) -> bool:
        """True if ``p`` lies inside or on the boundary."""
        return self.xmin <= p.x <= self.xmax and self.ymin <= p.y <= self.ymax

    def contains_rect(self, other: "Rect") -> bool:
        """True if ``other`` lies entirely within this rectangle."""
        return (
            self.xmin <= other.xmin
            and self.ymin <= other.ymin
            and other.xmax <= self.xmax
            and other.ymax <= self.ymax
        )

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlap rectangle, or ``None`` if the rectangles are disjoint."""
        xmin = max(self.xmin, other.xmin)
        ymin = max(self.ymin, other.ymin)
        xmax = min(self.xmax, other.xmax)
        ymax = min(self.ymax, other.ymax)
        if xmin > xmax or ymin > ymax:
            return None
        return Rect(xmin, ymin, xmax, ymax)

    def union(self, other: "Rect") -> "Rect":
        """Smallest rectangle enclosing both operands."""
        return Rect(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
        )

    def enlargement(self, other: "Rect") -> float:
        """Area increase needed to also cover ``other``.

        This is the quantity Guttman's ChooseLeaf minimizes when inserting
        into an R-tree.
        """
        return self.union(other).area() - self.area()

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------

    def distance_to_point(self, p: Point) -> float:
        """Distance from ``p`` to the closest point of the rectangle."""
        dx = max(self.xmin - p.x, 0.0, p.x - self.xmax)
        dy = max(self.ymin - p.y, 0.0, p.y - self.ymax)
        return math.hypot(dx, dy)

    def min_distance_to(self, other: "Rect") -> float:
        """Distance between the closest points of the two rectangles.

        Zero when the rectangles intersect.  This is the measure the
        ``within distance d`` Theta-filter of Table 1 uses ("measured between
        closest points").
        """
        dx = max(other.xmin - self.xmax, 0.0, self.xmin - other.xmax)
        dy = max(other.ymin - self.ymax, 0.0, self.ymin - other.ymax)
        return math.hypot(dx, dy)

    def max_distance_to(self, other: "Rect") -> float:
        """Distance between the farthest points of the two rectangles.

        Useful for lower-bounding matches (e.g. the "between 50 and 100
        kilometers from" operator the NO-LOC distribution motivates).
        """
        dx = max(abs(other.xmax - self.xmin), abs(self.xmax - other.xmin))
        dy = max(abs(other.ymax - self.ymin), abs(self.ymax - other.ymin))
        return math.hypot(dx, dy)

    # ------------------------------------------------------------------
    # Derived regions
    # ------------------------------------------------------------------

    def buffer(self, d: float) -> "Rect":
        """The rectangle grown by ``d`` on every side.

        This is the (conservative, rectangular) analogue of the paper's
        "x-minute buffer" and "10 kilometer buffer" constructions.  ``d``
        must be non-negative.
        """
        if d < 0:
            raise GeometryError(f"buffer distance must be non-negative, got {d}")
        return Rect(self.xmin - d, self.ymin - d, self.xmax + d, self.ymax + d)

    def with_positive_extent(self) -> "Rect":
        """This rectangle with a zero width and/or height grown by 1.0.

        Grids (the partition tiling, the z-order and interval rasters)
        divide the data universe into cells and need it to have area; a
        universe of collinear or coincident objects gets unit extent.
        """
        if self.width > 0 and self.height > 0:
            return self
        return Rect(
            self.xmin, self.ymin,
            self.xmax + (1.0 if self.width == 0 else 0.0),
            self.ymax + (1.0 if self.height == 0 else 0.0),
        )

    def quadrant(self, direction: str, bound: float = 1e12) -> "Rect":
        """Tangent quadrant in one of the four diagonal directions.

        ``direction`` is one of ``"nw"``, ``"ne"``, ``"sw"``, ``"se"``.  The
        NW case is Figure 5's filter region for ``to the Northwest of``:
        the quadrant formed by the right vertical and the lower horizontal
        tangent, ``x <= xmax, y >= ymin``, clipped to ``bound`` so it stays
        a Rect.  The other three are the symmetric constructions needed
        for the generalized directional operators.
        """
        if direction == "nw":
            return Rect(-bound, self.ymin, self.xmax, bound)
        if direction == "ne":
            return Rect(self.xmin, self.ymin, bound, bound)
        if direction == "sw":
            return Rect(-bound, -bound, self.xmax, self.ymax)
        if direction == "se":
            return Rect(self.xmin, -bound, bound, self.ymax)
        raise GeometryError(f"unknown quadrant direction {direction!r}")

    def translated(self, dx: float, dy: float) -> "Rect":
        """A new rectangle shifted by ``(dx, dy)``."""
        return Rect(self.xmin + dx, self.ymin + dy, self.xmax + dx, self.ymax + dy)

    def as_tuple(self) -> tuple[float, float, float, float]:
        """Plain-tuple view ``(xmin, ymin, xmax, ymax)``."""
        return (self.xmin, self.ymin, self.xmax, self.ymax)
