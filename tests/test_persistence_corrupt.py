"""Corrupt geometry data must raise PersistenceError -- never a raw
KeyError/TypeError that strands the caller without context."""

import pytest

from repro.persistence import PersistenceError, geometry_from_dict


class TestCorruptGeometry:
    def test_unknown_geometry_type(self):
        with pytest.raises(PersistenceError, match="unknown geometry type"):
            geometry_from_dict({"type": "hexagon", "vertices": []})

    def test_missing_field_names_type_and_field(self):
        with pytest.raises(PersistenceError) as excinfo:
            geometry_from_dict({"type": "point", "x": 1.0})  # no "y"
        msg = str(excinfo.value)
        assert "point" in msg and "y" in msg
        assert excinfo.value.__cause__ is not None  # context preserved

    def test_missing_rect_field(self):
        with pytest.raises(PersistenceError, match="rect"):
            geometry_from_dict({"type": "rect", "xmin": 0, "ymin": 0, "xmax": 1})

    def test_wrong_arity_coordinates(self):
        with pytest.raises(PersistenceError, match="polygon"):
            geometry_from_dict(
                {"type": "polygon", "vertices": [[0, 0], [1], [2, 2]]}
            )

    def test_wrong_arity_polyline(self):
        with pytest.raises(PersistenceError, match="polyline"):
            geometry_from_dict(
                {"type": "polyline", "vertices": [[0, 0, 0], [1, 1, 1]]}
            )

    def test_non_dict_input(self):
        with pytest.raises(PersistenceError):
            geometry_from_dict(["point", 1, 2])
