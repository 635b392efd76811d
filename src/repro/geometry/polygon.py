"""Simple polygons: the ``lake.larea`` data type of the paper's example.

Implements the exact geometric tests that back the theta-operators of
Table 1 for polygonal operands: overlap, inclusion, containment, distance
between closest points, and centerpoint (center of gravity, which the
paper says may also be user-defined -- see ``Polygon(..., centerpoint=)``).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.errors import GeometryError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment

_EPS = 1e-12


class Polygon:
    """A simple (non-self-intersecting) polygon with at least three vertices.

    Vertices may be listed clockwise or counter-clockwise; the constructor
    normalizes nothing but all measures are orientation-independent.  The
    polygon is treated as a closed region (boundary included), matching the
    closed-set semantics of the rectangle algebra.
    """

    __slots__ = ("_vertices", "_mbr", "_centerpoint", "_area")

    def __init__(self, vertices: Sequence[Point], centerpoint: Point | None = None) -> None:
        verts = list(vertices)
        if len(verts) < 3:
            raise GeometryError(f"a polygon needs at least 3 vertices, got {len(verts)}")
        # Drop a closing vertex that duplicates the first one.
        if verts[0] == verts[-1] and len(verts) > 3:
            verts = verts[:-1]
        self._vertices: tuple[Point, ...] = tuple(verts)
        self._mbr = Rect.from_points(self._vertices)
        self._area = self._signed_area()
        # Exact zero only: legitimately thin polygons (slivers) have tiny
        # but nonzero area and must not be rejected.
        if self._area == 0.0:
            raise GeometryError("polygon is degenerate (zero area)")
        # The paper notes that in cartographic applications the centerpoint
        # is often defined explicitly by the user; otherwise we use the
        # center of gravity.
        self._centerpoint = centerpoint if centerpoint is not None else self._centroid()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_rect(cls, rect: Rect) -> "Polygon":
        """Polygon with the same extent as ``rect``."""
        if rect.area() <= 0:
            raise GeometryError("cannot build a polygon from a degenerate rectangle")
        return cls(list(rect.corners()))

    @classmethod
    def regular(cls, center: Point, radius: float, sides: int) -> "Polygon":
        """Regular ``sides``-gon inscribed in a circle of ``radius``."""
        if sides < 3:
            raise GeometryError(f"a regular polygon needs at least 3 sides, got {sides}")
        if radius <= 0:
            raise GeometryError(f"radius must be positive, got {radius}")
        verts = [
            Point(
                center.x + radius * math.cos(2.0 * math.pi * i / sides),
                center.y + radius * math.sin(2.0 * math.pi * i / sides),
            )
            for i in range(sides)
        ]
        return cls(verts, centerpoint=center)

    # ------------------------------------------------------------------
    # Measures
    # ------------------------------------------------------------------

    @property
    def vertices(self) -> tuple[Point, ...]:
        return self._vertices

    def _signed_area(self) -> float:
        """Shoelace formula; positive for counter-clockwise vertex order."""
        total = 0.0
        verts = self._vertices
        for i, a in enumerate(verts):
            b = verts[(i + 1) % len(verts)]
            total += a.x * b.y - b.x * a.y
        return total / 2.0

    def area(self) -> float:
        """Unsigned area."""
        return abs(self._area)

    def _centroid(self) -> Point:
        """Center of gravity via the standard shoelace-weighted formula."""
        cx = cy = 0.0
        verts = self._vertices
        for i, a in enumerate(verts):
            b = verts[(i + 1) % len(verts)]
            w = a.x * b.y - b.x * a.y
            cx += (a.x + b.x) * w
            cy += (a.y + b.y) * w
        factor = 1.0 / (6.0 * self._area)
        return Point(cx * factor, cy * factor)

    def centerpoint(self) -> Point:
        """The polygon's centerpoint (centroid unless user-supplied)."""
        return self._centerpoint

    def mbr(self) -> Rect:
        """Minimum bounding rectangle."""
        return self._mbr

    def edges(self) -> Iterable[Segment]:
        """The boundary segments, in vertex order."""
        verts = self._vertices
        for i, a in enumerate(verts):
            yield Segment(a, verts[(i + 1) % len(verts)])

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------

    def contains_point(self, p: Point) -> bool:
        """Point-in-polygon with boundary points counted as inside.

        Ray-crossing algorithm; boundary membership is checked explicitly
        first so the result is deterministic for points on edges.
        """
        if not self._mbr.contains_point(p):
            return False
        for edge in self.edges():
            if edge.contains_point(p):
                return True
        inside = False
        verts = self._vertices
        j = len(verts) - 1
        for i, vi in enumerate(verts):
            vj = verts[j]
            if (vi.y > p.y) != (vj.y > p.y):
                x_cross = vj.x + (p.y - vj.y) * (vi.x - vj.x) / (vi.y - vj.y)
                if p.x < x_cross:
                    inside = not inside
            j = i
        return inside

    def overlaps(self, other: "Polygon") -> bool:
        """True if the closed regions share at least one point.

        Two simple polygons overlap iff (a) any pair of boundary edges
        intersects, or (b) one polygon contains a vertex of the other
        (full containment with no edge crossings).
        """
        if not self._mbr.intersects(other._mbr):
            return False
        other_edges = list(other.edges())
        for e1 in self.edges():
            for e2 in other_edges:
                if e1.intersects(e2):
                    return True
        return self.contains_point(other._vertices[0]) or other.contains_point(self._vertices[0])

    def contains_polygon(self, other: "Polygon") -> bool:
        """True if ``other`` lies entirely within this polygon.

        All vertices of ``other`` must be inside and no boundary edge of
        ``other`` may properly cross a boundary edge of this polygon.
        """
        if not self._mbr.contains_rect(other._mbr):
            return False
        if not all(self.contains_point(v) for v in other._vertices):
            return False
        # Vertices inside but an edge poking out can only happen through an
        # edge crossing of the two boundaries that is not a mere touch.  For
        # simple polygons, checking proper crossings via midpoints of the
        # intersected sub-edges would be exact; here we use the standard
        # conservative test: every edge midpoint of `other` must be inside.
        return all(self.contains_point(e.midpoint()) for e in other.edges())

    def contains_rect(self, rect: Rect) -> bool:
        """True if the rectangle lies entirely within the polygon."""
        if rect.area() <= 0:
            return self.contains_point(rect.centerpoint())
        return self.contains_polygon(Polygon.from_rect(rect))

    def intersects_rect(self, rect: Rect) -> bool:
        """True if the polygon and the rectangle share at least one point."""
        if not self._mbr.intersects(rect):
            return False
        if rect.area() <= 0:
            # A point or an axis-parallel segment: inside, or crossing an edge.
            low, high = Point(rect.xmin, rect.ymin), Point(rect.xmax, rect.ymax)
            if self.contains_point(low):
                return True
            return low != high and any(
                e.intersects(Segment(low, high)) for e in self.edges()
            )
        return self.overlaps(Polygon.from_rect(rect))

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------

    def distance_to_point(self, p: Point) -> float:
        """Distance from ``p`` to the closest point of the (closed) polygon."""
        if self.contains_point(p):
            return 0.0
        return min(e.distance_to_point(p) for e in self.edges())

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def translated(self, dx: float, dy: float) -> "Polygon":
        """A new polygon shifted by ``(dx, dy)``."""
        return Polygon(
            [v.translated(dx, dy) for v in self._vertices],
            centerpoint=self._centerpoint.translated(dx, dy),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polygon):
            return NotImplemented
        return self._vertices == other._vertices

    def __hash__(self) -> int:
        return hash(self._vertices)

    def __repr__(self) -> str:
        return f"Polygon({len(self._vertices)} vertices, area={self.area():.4g})"
