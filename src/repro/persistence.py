"""JSON codec for geometries.

Every geometry type to and from a plain JSON-safe dict.  The write-ahead
log encodes the spatial values of logged rows and checkpoint images with
it (:mod:`repro.wal`).
"""

from __future__ import annotations

from typing import Any

from repro.errors import ReproError
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import PolyLine
from repro.geometry.rect import Rect


class PersistenceError(ReproError):
    """Malformed geometry data."""


# ----------------------------------------------------------------------
# Geometry <-> dict
# ----------------------------------------------------------------------

def geometry_to_dict(obj: Any) -> dict:
    """A JSON-safe representation of any supported geometry."""
    if isinstance(obj, Point):
        return {"type": "point", "x": obj.x, "y": obj.y}
    if isinstance(obj, Rect):
        return {
            "type": "rect",
            "xmin": obj.xmin, "ymin": obj.ymin,
            "xmax": obj.xmax, "ymax": obj.ymax,
        }
    if isinstance(obj, Polygon):
        return {
            "type": "polygon",
            "vertices": [[v.x, v.y] for v in obj.vertices],
            "centerpoint": [obj.centerpoint().x, obj.centerpoint().y],
        }
    if isinstance(obj, PolyLine):
        return {
            "type": "polyline",
            "vertices": [[v.x, v.y] for v in obj.vertices],
        }
    raise PersistenceError(f"cannot serialize geometry of type {type(obj).__name__}")


def geometry_from_dict(data: dict) -> Any:
    """Inverse of :func:`geometry_to_dict`."""
    try:
        kind = data["type"]
    except (TypeError, KeyError):
        raise PersistenceError(f"geometry dict missing 'type': {data!r}") from None
    try:
        if kind == "point":
            return Point(data["x"], data["y"])
        if kind == "rect":
            return Rect(data["xmin"], data["ymin"], data["xmax"], data["ymax"])
        if kind == "polygon":
            center = data.get("centerpoint")
            return Polygon(
                [Point(x, y) for x, y in data["vertices"]],
                centerpoint=Point(*center) if center else None,
            )
        if kind == "polyline":
            return PolyLine([Point(x, y) for x, y in data["vertices"]])
    except (TypeError, KeyError, ValueError) as exc:
        # Name the geometry type and the offending field/shape -- a bare
        # KeyError('x') out of a 10k-row snapshot load is undebuggable.
        raise PersistenceError(
            f"malformed {kind!r} geometry: {type(exc).__name__}: {exc}"
        ) from exc
    raise PersistenceError(f"unknown geometry type {kind!r}")

