"""Approximation tables: built once per epoch, sidecar persistence."""

from __future__ import annotations

import json

import pytest

from repro.errors import IntermediateError
from repro.geometry.rect import Rect
from repro.intermediate import (
    IntervalSpec,
    approximation_table,
    load_sidecar,
    save_sidecar,
    sidecar_path,
)

from tests.join.conftest import make_rect_relation

SPEC = IntervalSpec(universe=Rect(0.0, 0.0, 120.0, 120.0), level=4)
FINER = IntervalSpec(universe=SPEC.universe, level=SPEC.level + 1)


def test_table_builds_once_per_epoch():
    rel = make_rect_relation("r", 20, seed=3)
    table = approximation_table(rel, "shape", SPEC)
    assert len(table) == 20
    assert all(apx is not None for apx in table.values())
    assert approximation_table(rel, "shape", SPEC) is table  # built once


def test_mutation_moves_epoch_and_rebuilds():
    rel = make_rect_relation("r", 10, seed=3)
    before = approximation_table(rel, "shape", SPEC)
    rel.insert([99, Rect(1.0, 1.0, 2.0, 2.0)])
    after = approximation_table(rel, "shape", SPEC)
    assert after is not before  # rebuilt
    assert len(after) == len(before) + 1


def test_each_spec_has_its_own_table():
    rel = make_rect_relation("r", 10, seed=3)
    coarse = approximation_table(rel, "shape", SPEC)
    assert approximation_table(rel, "shape", FINER) is not coarse
    assert approximation_table(rel, "shape", SPEC) is coarse


def test_out_of_universe_objects_map_to_none():
    rel = make_rect_relation("r", 5, seed=3)
    rel.insert([99, Rect(-5.0, 0.0, 10.0, 10.0)])
    table = approximation_table(rel, "shape", SPEC)
    assert sum(1 for apx in table.values() if apx is None) == 1


# ----------------------------------------------------------------------
# Sidecar persistence
# ----------------------------------------------------------------------

def test_sidecar_round_trip(tmp_path, monkeypatch):
    rel = make_rect_relation("r", 15, seed=5)
    snapshot = tmp_path / "r.snapshot"
    sidecar = save_sidecar(snapshot, rel, "shape", SPEC)
    assert sidecar == sidecar_path(snapshot)
    assert sidecar.name == "r.snapshot.intervals.json"
    assert sidecar.exists()
    built = approximation_table(rel, "shape", SPEC)

    # A reload of the same contents at the same epoch adopts the sidecar.
    reloaded = make_rect_relation("r", 15, seed=5)
    assert load_sidecar(snapshot, reloaded, "shape", SPEC) is True

    def never(*_args):
        raise AssertionError("served from the sidecar, never rebuilt")

    monkeypatch.setattr("repro.intermediate.store.rasterize", never)
    adopted = approximation_table(reloaded, "shape", SPEC)
    assert adopted == built and adopted is not built


def test_missing_sidecar_returns_false(tmp_path):
    rel = make_rect_relation("r", 5, seed=5)
    assert load_sidecar(tmp_path / "nope", rel, "shape", SPEC) is False


def test_stale_sidecar_is_refused(tmp_path):
    rel = make_rect_relation("r", 10, seed=5)
    snapshot = tmp_path / "r.snapshot"
    save_sidecar(snapshot, rel, "shape", SPEC)
    rel.insert([99, Rect(1.0, 1.0, 2.0, 2.0)])  # epoch moves
    assert load_sidecar(snapshot, rel, "shape", SPEC) is False


def test_mismatched_spec_is_refused(tmp_path):
    rel = make_rect_relation("r", 10, seed=5)
    snapshot = tmp_path / "r.snapshot"
    save_sidecar(snapshot, rel, "shape", SPEC)
    assert load_sidecar(snapshot, rel, "shape", FINER) is False


def test_mismatched_column_is_refused(tmp_path):
    rel = make_rect_relation("r", 10, seed=5)
    snapshot = tmp_path / "r.snapshot"
    save_sidecar(snapshot, rel, "shape", SPEC)
    assert load_sidecar(snapshot, rel, "other", SPEC) is False


def test_unreadable_sidecar_raises(tmp_path):
    rel = make_rect_relation("r", 5, seed=5)
    snapshot = tmp_path / "r.snapshot"
    sidecar_path(snapshot).write_text("{not json")
    with pytest.raises(IntermediateError):
        load_sidecar(snapshot, rel, "shape", SPEC)


def test_foreign_json_raises(tmp_path):
    rel = make_rect_relation("r", 5, seed=5)
    snapshot = tmp_path / "r.snapshot"
    sidecar_path(snapshot).write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(IntermediateError):
        load_sidecar(snapshot, rel, "shape", SPEC)


def test_corrupt_items_raise(tmp_path):
    rel = make_rect_relation("r", 5, seed=5)
    snapshot = tmp_path / "r.snapshot"
    save_sidecar(snapshot, rel, "shape", SPEC)
    sidecar = sidecar_path(snapshot)
    payload = json.loads(sidecar.read_text())
    payload["items"][0]["approx"] = "definitely-not-base64!!"
    sidecar.write_text(json.dumps(payload))
    with pytest.raises(IntermediateError):
        load_sidecar(snapshot, rel, "shape", SPEC)
