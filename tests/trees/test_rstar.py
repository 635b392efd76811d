"""Tests for the R*-tree."""

import random

import pytest

from repro.errors import TreeError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.predicates.theta import Overlaps
from repro.storage.record import RecordId
from repro.trees.packing import packing_quality
from repro.trees.rstar import RStarTree
from repro.trees.rtree import RTree

from tests import oracle


def random_rects(count: int, seed: int, clustered: bool = False) -> list[Rect]:
    rng = random.Random(seed)
    out = []
    centers = [
        (rng.uniform(50, 450), rng.uniform(50, 450)) for _ in range(6)
    ]
    for _ in range(count):
        if clustered:
            cx, cy = rng.choice(centers)
            x, y = rng.gauss(cx, 20), rng.gauss(cy, 20)
        else:
            x, y = rng.uniform(0, 500), rng.uniform(0, 500)
        out.append(Rect(x, y, x + rng.uniform(0, 12), y + rng.uniform(0, 12)))
    return out


def loaded(rects, max_entries=8) -> RStarTree:
    t = RStarTree(max_entries=max_entries)
    for i, r in enumerate(rects):
        t.insert(r, RecordId(0, i))
    return t


class TestConstruction:
    def test_default_min_entries_forty_percent(self):
        t = RStarTree(max_entries=10)
        assert t.min_entries == 4

    def test_reinsert_fraction_validated(self):
        with pytest.raises(TreeError):
            RStarTree(reinsert_fraction=0.0)
        with pytest.raises(TreeError):
            RStarTree(reinsert_fraction=1.0)


class TestCorrectness:
    @pytest.mark.parametrize("count", [1, 9, 50, 300, 900])
    def test_invariants_across_sizes(self, count):
        t = loaded(random_rects(count, seed=count))
        t.check_invariants()
        assert len(t) == count
        assert len(list(t.data_entries())) == count

    def test_search_matches_brute_force(self):
        rects = random_rects(500, seed=31)
        t = loaded(rects)
        for q in (Rect(100, 100, 200, 200), Rect(0, 0, 500, 500), Rect(490, 490, 499, 499)):
            got = {tid.slot for tid in t.search_tids(q)}
            assert got == set(oracle.select(dict(enumerate(rects)), q, Overlaps()))

    def test_delete_inherited(self):
        rects = random_rects(200, seed=32)
        t = loaded(rects)
        for i in range(0, 200, 2):
            assert t.delete(rects[i], RecordId(0, i))
        t.check_invariants()
        assert len(t) == 100

    def test_point_data(self):
        rng = random.Random(33)
        t = RStarTree(max_entries=6)
        pts = [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(300)]
        for i, p in enumerate(pts):
            t.insert(p, RecordId(0, i))
        t.check_invariants()
        q = Rect(20, 20, 50, 50)
        got = {tid.slot for tid in t.search_tids(q)}
        assert got == {i for i, p in enumerate(pts) if q.contains_point(p)}

    def test_same_answers_as_guttman(self):
        rects = random_rects(400, seed=34)
        star = loaded(rects)
        guttman = RTree(max_entries=8)
        for i, r in enumerate(rects):
            guttman.insert(r, RecordId(0, i))
        q = Rect(120, 120, 260, 260)
        assert set(t.slot for t in star.search_tids(q)) == set(
            t.slot for t in guttman.search_tids(q)
        )


class TestQuality:
    def test_less_sibling_overlap_than_guttman_on_clustered_data(self):
        """The R*-tree's selling point: tighter nodes on skewed data."""
        rects = random_rects(800, seed=35, clustered=True)
        star = loaded(rects)
        guttman = RTree(max_entries=8)
        for i, r in enumerate(rects):
            guttman.insert(r, RecordId(0, i))
        q_star = packing_quality(star)
        q_gutt = packing_quality(guttman)
        assert q_star["sibling_overlap_area"] < q_gutt["sibling_overlap_area"]

    def test_knn_works_on_rstar(self):
        from repro.trees.knn import nearest_neighbors

        rects = random_rects(300, seed=36)
        t = loaded(rects)
        q = Point(250, 250)
        got = nearest_neighbors(t, q, k=5)
        want = oracle.nearest(dict(enumerate(rects)), q, 5)
        assert [d for d, _ in got] == pytest.approx(want)
