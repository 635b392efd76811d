"""Unit tests for the Guttman R-tree."""

import random

import pytest

from repro.errors import TreeError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.predicates.theta import Overlaps
from repro.storage.record import RecordId
from repro.trees.rtree import RTree

from tests import oracle


def random_rects(count: int, seed: int = 0) -> list[Rect]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        out.append(Rect(x, y, x + rng.uniform(0, 8), y + rng.uniform(0, 8)))
    return out


def loaded_tree(rects, max_entries=8) -> RTree:
    t = RTree(max_entries=max_entries)
    for i, r in enumerate(rects):
        t.insert(r, RecordId(0, i))
    return t


class TestConstruction:
    def test_validation(self):
        with pytest.raises(TreeError):
            RTree(max_entries=1)
        with pytest.raises(TreeError):
            RTree(max_entries=8, min_entries=5)  # > max/2

    def test_empty(self):
        t = RTree()
        assert t.is_empty()
        assert len(t) == 0
        assert t.search(Rect(0, 0, 1, 1)) == []


class TestInsertSearch:
    def test_search_matches_brute_force(self):
        rects = random_rects(400, seed=1)
        t = loaded_tree(rects)
        t.check_invariants()
        for q in (Rect(10, 10, 30, 30), Rect(0, 0, 100, 100), Rect(95, 95, 99, 99)):
            got = {tid.slot for tid in t.search_tids(q)}
            assert got == set(oracle.select(dict(enumerate(rects)), q, Overlaps()))

    def test_point_data(self):
        rng = random.Random(2)
        t = RTree(max_entries=6)
        pts = [Point(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(200)]
        for i, p in enumerate(pts):
            t.insert(p, RecordId(0, i))
        t.check_invariants()
        q = Rect(10, 10, 20, 20)
        got = {tid.slot for tid in t.search_tids(q)}
        assert got == set(oracle.select(dict(enumerate(pts)), q, Overlaps()))

    def test_invariants_across_sizes(self):
        for n in (1, 5, 9, 50, 137):
            t = loaded_tree(random_rects(n, seed=n), max_entries=4)
            t.check_invariants()
            assert len(t) == n
            assert len(list(t.data_entries())) == n


class TestDelete:
    def test_delete_missing_returns_false(self):
        t = loaded_tree(random_rects(10))
        assert not t.delete(Rect(0, 0, 1, 1), RecordId(9, 9))

    def test_delete_all(self):
        rects = random_rects(120, seed=3)
        t = loaded_tree(rects, max_entries=5)
        order = list(range(120))
        random.Random(4).shuffle(order)
        for i in order:
            assert t.delete(rects[i], RecordId(0, i))
        assert len(t) == 0

    def test_search_correct_after_deletes(self):
        rects = random_rects(200, seed=5)
        t = loaded_tree(rects, max_entries=6)
        removed = set(range(0, 200, 3))
        for i in removed:
            assert t.delete(rects[i], RecordId(0, i))
        t.check_invariants()
        q = Rect(0, 0, 60, 60)
        got = {tid.slot for tid in t.search_tids(q)}
        kept = {i: r for i, r in enumerate(rects) if i not in removed}
        assert got == set(oracle.select(kept, q, Overlaps()))

    def test_root_shrinks(self):
        rects = random_rects(100, seed=6)
        t = loaded_tree(rects, max_entries=4)
        height_before = t.height()
        for i in range(95):
            t.delete(rects[i], RecordId(0, i))
        assert t.height() <= height_before
        t.check_invariants()


class TestGeneralizationProtocol:
    def test_heights_and_counts(self):
        t = loaded_tree(random_rects(100, seed=7), max_entries=5)
        # Data entries appear as childless application nodes.
        leaves = [n for n in t.bfs_nodes() if not t.children(n)]
        assert len(leaves) == 100
        assert all(t.tid(n) is not None for n in leaves)

    def test_interior_nodes_are_technical(self):
        t = loaded_tree(random_rects(50, seed=8), max_entries=4)
        root = t.root()
        assert t.tid(root) is None

    def test_region_of_entry_is_exact_geometry(self):
        t = RTree(max_entries=4)
        p = Point(3, 4)
        t.insert(p, RecordId(0, 0))
        entry = next(iter(t.data_entries()))
        assert t.region(entry) is p

    def test_containment_invariant(self):
        t = loaded_tree(random_rects(150, seed=9), max_entries=6)
        t.validate()  # GeneralizationTree MBR containment

    def test_bfs_tids(self):
        t = loaded_tree(random_rects(30, seed=10), max_entries=4)
        tids = t.bfs_tids()
        assert len(tids) == 30
        assert len(set(tids)) == 30

    def test_remap_tids(self):
        t = loaded_tree(random_rects(10, seed=11))
        mapping = {RecordId(0, i): RecordId(1, i) for i in range(10)}
        t.remap_tids(mapping)
        assert all(e.tid.page_id == 1 for e in t.data_entries())

