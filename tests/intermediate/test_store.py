"""Approximation tables: built once per epoch."""

from __future__ import annotations

from repro.geometry.rect import Rect
from repro.intermediate import IntervalSpec, approximation_table

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
