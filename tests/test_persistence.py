"""Tests for the JSON geometry codec."""

import json

import pytest

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import PolyLine
from repro.geometry.rect import Rect
from repro.persistence import PersistenceError, geometry_from_dict, geometry_to_dict


class TestGeometryRoundtrip:
    @pytest.mark.parametrize(
        "obj",
        [
            Point(1.5, -2.25),
            Rect(0.0, 1.0, 4.5, 9.0),
            Polygon.regular(Point(3, 3), 2.0, 7),
            Polygon(
                [Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4)],
                centerpoint=Point(1, 1),
            ),
            PolyLine([Point(0, 0), Point(3, 4), Point(6, 0)]),
        ],
    )
    def test_roundtrip(self, obj):
        restored = geometry_from_dict(geometry_to_dict(obj))
        assert type(restored) is type(obj)
        assert restored.mbr() == obj.mbr()
        assert restored.centerpoint() == obj.centerpoint()

    def test_json_safe(self):
        data = geometry_to_dict(Polygon.regular(Point(0, 0), 1, 5))
        json.dumps(data)  # must not raise

    def test_unknown_type(self):
        with pytest.raises(PersistenceError):
            geometry_from_dict({"type": "torus"})
        with pytest.raises(PersistenceError):
            geometry_from_dict({})
        with pytest.raises(PersistenceError):
            geometry_to_dict("not a geometry")
