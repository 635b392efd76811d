"""Immutable 2-D point, the simplest spatial data type in the paper.

The ``house.hlocation`` column in the paper's running example (query (2),
"find all houses within 10 kilometers from a lake") is of type point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from repro.errors import GeometryError


@dataclass(frozen=True, slots=True)
class Point:
    """A point in the Euclidean plane.

    Points are immutable and hashable so they can serve as dictionary keys
    (e.g. in the z-order grid of Figure 1) and be shared freely between
    relations and index nodes.
    """

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise GeometryError(f"point coordinates must be finite, got ({self.x}, {self.y})")

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def manhattan_distance_to(self, other: "Point") -> float:
        """L1 distance, used by the reachability operator's grid buffers."""
        return abs(self.x - other.x) + abs(self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Point":
        """A new point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def is_northwest_of(self, other: "Point") -> bool:
        """Strict north-west test: smaller x (west) and larger y (north).

        This is the centerpoint semantics of the paper's ``to the Northwest
        of`` operator (Table 1 measures it between centerpoints).
        """
        return self.x < other.x and self.y > other.y

    def mbr(self) -> "Rect":  # noqa: F821 - resolved at runtime
        """Degenerate minimum bounding rectangle of a point."""
        from repro.geometry.rect import Rect

        return Rect(self.x, self.y, self.x, self.y)

    def centerpoint(self) -> "Point":
        """A point is its own centerpoint (center of gravity)."""
        return self

    def as_tuple(self) -> tuple[float, float]:
        """Plain-tuple view, handy for serialization."""
        return (self.x, self.y)
