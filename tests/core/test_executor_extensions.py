"""Tests for the executor's nearest-neighbor extension."""

import random

import pytest

from repro.core.executor import SpatialQueryExecutor
from repro.errors import JoinError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.relational.relation import Relation
from repro.relational.schema import Column, ColumnType, Schema
from repro.storage.buffer import BufferPool
from repro.storage.costs import CostMeter
from repro.storage.disk import SimulatedDisk
from repro.trees.balanced import BalancedKTree
from repro.trees.rtree import RTree

from tests import oracle

UNIVERSE = Rect(0, 0, 100, 100)
SCHEMA = Schema([Column("oid", ColumnType.INT), Column("loc", ColumnType.POINT)])


def point_relation(count: int, seed: int) -> Relation:
    pool = BufferPool(SimulatedDisk(), capacity=4000, meter=CostMeter())
    rel = Relation("pts", SCHEMA, pool)
    rng = random.Random(seed)
    for i in range(count):
        rel.insert([i, Point(rng.uniform(0, 100), rng.uniform(0, 100))])
    return rel


@pytest.fixture
def executor():
    return SpatialQueryExecutor(memory_pages=200)


class TestNearest:
    def test_k_nearest_tuples(self, executor):
        rel = point_relation(300, seed=27)
        rel.attach_index("loc", RTree(max_entries=8))
        q = Point(50, 50)
        got = executor.nearest(rel, "loc", q, k=5)
        assert len(got) == 5
        dists = [d for d, _ in got]
        assert dists == sorted(dists)
        assert dists == pytest.approx(oracle.nearest(oracle.rows_of(rel, "loc"), q, 5))
        # Payloads are real tuples from the relation.
        assert all(hasattr(t, "schema") for _, t in got)

    def test_requires_rtree(self, executor):
        rel = point_relation(10, seed=28)
        rel.attach_index("loc", BalancedKTree(2, 1, UNIVERSE), backfill=False)
        with pytest.raises(JoinError):
            executor.nearest(rel, "loc", Point(0, 0))

    def test_requires_index(self, executor):
        rel = point_relation(10, seed=29)
        with pytest.raises(Exception):
            executor.nearest(rel, "loc", Point(0, 0))
