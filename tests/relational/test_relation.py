"""Unit tests for relations, tuples, indexing and reclustering."""

import pytest

from repro.errors import RelationError, SchemaError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.relational.relation import Relation
from repro.relational.schema import Column, ColumnType, Schema
from repro.relational.tuples import RelTuple
from repro.storage.buffer import BufferPool
from repro.storage.costs import CostMeter
from repro.storage.disk import SimulatedDisk
from repro.trees.rtree import RTree

SCHEMA = Schema(
    [Column("oid", ColumnType.INT), Column("shape", ColumnType.RECT)]
)


@pytest.fixture
def relation():
    pool = BufferPool(SimulatedDisk(), capacity=4000, meter=CostMeter())
    return Relation("objects", SCHEMA, pool)


def rect_at(i: int) -> Rect:
    return Rect(i * 10.0, 0.0, i * 10.0 + 5.0, 5.0)


class TestRelTuple:
    def test_access_by_name(self):
        t = RelTuple(SCHEMA, [1, rect_at(0)])
        assert t["oid"] == 1
        assert t["shape"] == rect_at(0)

    def test_project(self):
        t = RelTuple(SCHEMA, [1, rect_at(0)])
        p = t.project(["oid"])
        assert p.values == (1,)

    def test_equality_ignores_tid(self):
        a = RelTuple(SCHEMA, [1, rect_at(0)])
        b = RelTuple(SCHEMA, [1, rect_at(0)])
        assert a == b


class TestRelationBasics:
    def test_insert_assigns_tid(self, relation):
        t = relation.insert([1, rect_at(1)])
        assert t.tid is not None
        assert relation.get(t.tid) == t

    def test_insert_validates(self, relation):
        with pytest.raises(SchemaError):
            relation.insert([1, Point(0, 0)])

    def test_len_and_pages(self, relation):
        relation.insert_all([[i, rect_at(i)] for i in range(12)])
        assert len(relation) == 12
        assert relation.num_pages == 3  # m = 5
        assert relation.records_per_page == 5

    def test_scan_and_select(self, relation):
        relation.insert_all([[i, rect_at(i)] for i in range(10)])
        evens = relation.select(lambda t: t["oid"] % 2 == 0)
        assert [t["oid"] for t in evens] == [0, 2, 4, 6, 8]

    def test_project(self, relation):
        relation.insert_all([[i, rect_at(i)] for i in range(3)])
        projected = relation.project(["oid"])
        assert [t.values for t in projected] == [(0,), (1,), (2,)]

    def test_delete(self, relation):
        t = relation.insert([1, rect_at(1)])
        relation.delete(t.tid)
        assert len(relation) == 0

    def test_get_many(self, relation):
        tuples = relation.insert_all([[i, rect_at(i)] for i in range(8)])
        got = relation.get_many([tuples[5].tid, tuples[1].tid])
        assert [t["oid"] for t in got] == [5, 1]


class TestIndexing:
    def test_attach_backfills(self, relation):
        relation.insert_all([[i, rect_at(i)] for i in range(6)])
        tree = RTree(max_entries=4)
        relation.attach_index("shape", tree)
        assert len(tree) == 6
        found = tree.search_tids(rect_at(3))
        assert len(found) == 1

    def test_attach_non_spatial_rejected(self, relation):
        with pytest.raises(SchemaError):
            relation.attach_index("oid", RTree())

    def test_double_attach_rejected(self, relation):
        relation.attach_index("shape", RTree())
        with pytest.raises(RelationError):
            relation.attach_index("shape", RTree())

    def test_insert_maintains_index(self, relation):
        tree = RTree(max_entries=4)
        relation.attach_index("shape", tree)
        relation.insert([1, rect_at(1)])
        assert len(tree) == 1

    def test_delete_maintains_index(self, relation):
        tree = RTree(max_entries=4)
        relation.attach_index("shape", tree)
        t = relation.insert([1, rect_at(1)])
        relation.delete(t.tid)
        assert len(tree) == 0

    def test_index_on_missing(self, relation):
        with pytest.raises(RelationError):
            relation.index_on("shape")


class TestReclustering:
    def test_recluster_preserves_contents(self, relation):
        tuples = relation.insert_all([[i, rect_at(i)] for i in range(10)])
        order = [t.tid for t in reversed(tuples)]
        rid_map = relation.recluster(order)
        assert relation.is_clustered
        assert len(rid_map) == 10
        assert [t["oid"] for t in relation.scan()] == list(range(9, -1, -1))

    def test_recluster_updates_index_tids(self, relation):
        tree = RTree(max_entries=4)
        relation.attach_index("shape", tree)
        tuples = relation.insert_all([[i, rect_at(i)] for i in range(6)])
        relation.recluster([t.tid for t in reversed(tuples)])
        # Index probes must return tids valid in the new layout.
        tid = tree.search_tids(rect_at(2))[0]
        assert relation.get(tid)["oid"] == 2

    def test_recluster_requires_all_rids(self, relation):
        tuples = relation.insert_all([[i, rect_at(i)] for i in range(4)])
        with pytest.raises(RelationError):
            relation.recluster([tuples[0].tid])
