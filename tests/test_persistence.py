"""Tests for JSON snapshots of geometries and relations."""

import json

import pytest

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.polyline import PolyLine
from repro.geometry.rect import Rect
from repro.persistence import (
    PersistenceError,
    geometry_from_dict,
    geometry_to_dict,
    load_snapshot,
    relation_from_dict,
    relation_to_dict,
    save_snapshot,
)
from repro.predicates.theta import WithinDistance
from repro.workloads.scenarios import make_lakes_and_houses

from tests import oracle
from tests.join.conftest import make_rect_relation


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


class TestRelationRoundtrip:
    def test_roundtrip_preserves_rows(self):
        original = make_rect_relation("objects", 40, seed=71)
        restored = relation_from_dict(relation_to_dict(original))
        assert restored.name == original.name
        assert restored.schema == original.schema
        assert len(restored) == len(original)
        orig_rows = [(t["oid"], t["shape"]) for t in original.scan()]
        rest_rows = [(t["oid"], t["shape"]) for t in restored.scan()]
        assert orig_rows == rest_rows

    def test_page_geometry_preserved(self):
        original = make_rect_relation("objects", 23, seed=72)
        restored = relation_from_dict(relation_to_dict(original))
        assert restored.num_pages == original.num_pages
        assert restored.records_per_page == original.records_per_page

    def test_malformed(self):
        with pytest.raises(PersistenceError):
            relation_from_dict({"name": "x"})


class TestSnapshotFiles:
    def test_save_load_scenario(self, tmp_path):
        sc = make_lakes_and_houses(n_houses=60, n_lakes=8, seed=73)
        path = tmp_path / "scenario.json"
        save_snapshot(path, {"houses": sc.houses, "lakes": sc.lakes})
        loaded = load_snapshot(path)
        assert set(loaded) == {"houses", "lakes"}
        assert len(loaded["houses"]) == 60
        assert len(loaded["lakes"]) == 8

    def test_reloaded_join_identical(self, tmp_path):
        """The acid test: the join result survives the round trip."""
        sc = make_lakes_and_houses(n_houses=80, n_lakes=10, seed=74)
        theta = WithinDistance(120.0)
        path = tmp_path / "s.json"
        save_snapshot(path, {"houses": sc.houses, "lakes": sc.lakes})
        loaded = load_snapshot(path)
        original_pairs, reloaded_pairs = (
            oracle.join(
                oracle.rows_of(houses, "hlocation", key="hid"),
                oracle.rows_of(lakes, "larea", key="lid"),
                theta,
            )
            for houses, lakes in ((sc.houses, sc.lakes), (loaded["houses"], loaded["lakes"]))
        )
        assert reloaded_pairs == original_pairs

    def test_not_a_snapshot(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(PersistenceError):
            load_snapshot(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_snapshot(tmp_path / "nope.json")
