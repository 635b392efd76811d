"""Geometry kernel: the spatial data types the paper's joins operate on.

The paper (Section 2.2) defines spatial joins over columns of spatial data
types -- points, lines, polygons -- related by spatial operators.  This
subpackage provides those types from scratch, together with the exact
geometric tests the theta-operators of Table 1 need:

* :class:`~repro.geometry.point.Point` -- immutable 2-D point.
* :class:`~repro.geometry.rect.Rect` -- axis-aligned rectangle (MBR algebra).
* :class:`~repro.geometry.segment.Segment` -- line segment with robust
  orientation-based intersection tests.
* :class:`~repro.geometry.polygon.Polygon` -- simple polygon with area,
  centroid, point-in-polygon, overlap, containment and distance tests.
* :class:`~repro.geometry.polyline.PolyLine` -- open chain of segments.
* :mod:`~repro.geometry.zorder` -- Peano / z-order curve (Figure 1),
  substrate for the Orenstein sort-merge strategy.

All geometries expose ``mbr()`` returning their minimum bounding
:class:`Rect`; the Theta-filters in :mod:`repro.predicates` operate on these.
"""

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import PolyLine
from repro.geometry.zorder import (
    ZCell,
    decompose_rect,
    interleave,
    deinterleave,
    z_value,
)

__all__ = [
    "Point",
    "Rect",
    "Segment",
    "Polygon",
    "PolyLine",
    "ZCell",
    "decompose_rect",
    "interleave",
    "deinterleave",
    "z_value",
]
