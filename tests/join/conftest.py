"""Shared fixtures for the join strategy tests."""

from __future__ import annotations

import random

import pytest

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.relational.relation import Relation
from repro.relational.schema import Column, ColumnType, Schema
from repro.storage.buffer import BufferPool
from repro.storage.costs import CostMeter
from repro.storage.disk import SimulatedDisk
from repro.trees.rtree import RTree

RECT_SCHEMA = Schema([Column("oid", ColumnType.INT), Column("shape", ColumnType.RECT)])
POINT_SCHEMA = Schema([Column("oid", ColumnType.INT), Column("loc", ColumnType.POINT)])


def make_rect_relation(name: str, count: int, seed: int, pool=None) -> Relation:
    if pool is None:
        pool = BufferPool(SimulatedDisk(), capacity=4000, meter=CostMeter())
    rel = Relation(name, RECT_SCHEMA, pool)
    rng = random.Random(seed)
    for i in range(count):
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        rel.insert([i, Rect(x, y, x + rng.uniform(0, 10), y + rng.uniform(0, 10))])
    return rel


def make_point_relation(name: str, count: int, seed: int, pool=None) -> Relation:
    if pool is None:
        pool = BufferPool(SimulatedDisk(), capacity=4000, meter=CostMeter())
    rel = Relation(name, POINT_SCHEMA, pool)
    rng = random.Random(seed)
    for i in range(count):
        rel.insert([i, Point(rng.uniform(0, 100), rng.uniform(0, 100))])
    return rel


def kept_values(relation: Relation) -> dict:
    """What the relation's epoch-scoped memo holds at its current epoch
    (white-box: the memo's public surface has no enumeration)."""
    epoch, values = relation._derived
    return dict(values) if epoch == relation.modification_count else {}


def node_regions(tree) -> dict:
    """``{tid: region}`` of every node of a generalization tree that is an
    application object (carries a tid)."""
    return {node.tid: node.region for node in tree.bfs_nodes() if node.tid is not None}


def rtree_over(relation: Relation, column: str, max_entries: int = 6) -> RTree:
    tree = RTree(max_entries=max_entries)
    relation.attach_index(column, tree)
    return tree


@pytest.fixture
def shared_pool():
    return BufferPool(SimulatedDisk(), capacity=4000, meter=CostMeter())
