"""Tests for STR bulk loading and kNN search."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TreeError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.predicates.dispatch import min_distance
from repro.predicates.theta import Overlaps
from repro.storage.record import RecordId
from repro.trees.knn import nearest_neighbor, nearest_neighbors
from repro.trees.packing import packing_quality, str_pack
from repro.trees.rtree import RTree

from tests import oracle


def random_rects(count: int, seed: int) -> list[Rect]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        x, y = rng.uniform(0, 500), rng.uniform(0, 500)
        out.append(Rect(x, y, x + rng.uniform(0, 15), y + rng.uniform(0, 15)))
    return out


def packed(rects, max_entries=8) -> RTree:
    return str_pack(
        [(r, RecordId(0, i)) for i, r in enumerate(rects)], max_entries=max_entries
    )


class TestStrPack:
    def test_empty(self):
        tree = str_pack([])
        assert tree.is_empty()

    def test_single(self):
        tree = str_pack([(Rect(0, 0, 1, 1), RecordId(0, 0))])
        assert len(tree) == 1
        tree.check_invariants()

    @pytest.mark.parametrize("count", [5, 8, 9, 64, 65, 257, 1000])
    def test_invariants_across_sizes(self, count):
        tree = packed(random_rects(count, seed=count))
        tree.check_invariants()
        assert len(tree) == count
        assert len(list(tree.data_entries())) == count

    def test_search_matches_brute_force(self):
        rects = random_rects(600, seed=21)
        tree = packed(rects)
        q = Rect(100, 100, 200, 200)
        got = {t.slot for t in tree.search_tids(q)}
        assert got == set(oracle.select(dict(enumerate(rects)), q, Overlaps()))

    def test_insert_after_pack_still_works(self):
        rects = random_rects(100, seed=22)
        tree = packed(rects)
        extra = Rect(50, 50, 60, 60)
        tree.insert(extra, RecordId(1, 0))
        tree.check_invariants()
        assert RecordId(1, 0) in tree.search_tids(extra)

    def test_delete_after_pack(self):
        rects = random_rects(100, seed=23)
        tree = packed(rects)
        assert tree.delete(rects[10], RecordId(0, 10))
        tree.check_invariants()
        assert RecordId(0, 10) not in tree.search_tids(rects[10])

    def test_packing_tighter_than_incremental(self):
        rects = random_rects(800, seed=24)
        incremental = RTree(max_entries=8)
        for i, r in enumerate(rects):
            incremental.insert(r, RecordId(0, i))
        bulk = packed(rects)
        qi = packing_quality(incremental)
        qb = packing_quality(bulk)
        # STR guarantees fewer, fuller nodes.  (Sibling overlap can go
        # either way for extended objects straddling tile boundaries, so
        # it is reported by the ablation bench rather than asserted here.)
        assert qb["nodes"] <= qi["nodes"]
        assert qb["mean_fill"] >= qi["mean_fill"]


class TestKnn:
    def test_k_validation(self):
        with pytest.raises(TreeError):
            nearest_neighbors(RTree(), Point(0, 0), k=0)

    def test_empty_tree(self):
        assert nearest_neighbor(RTree(), Point(0, 0)) is None

    def test_single_nearest(self):
        rects = random_rects(300, seed=25)
        tree = packed(rects)
        q = Point(250, 250)
        dist, tid = nearest_neighbor(tree, q)
        best = min(range(len(rects)), key=lambda i: rects[i].distance_to_point(q))
        assert tid.slot == best
        assert dist == pytest.approx(rects[best].distance_to_point(q))

    def test_k_results_sorted_and_correct(self):
        rects = random_rects(400, seed=26)
        tree = packed(rects)
        q = Point(100, 400)
        k = 12
        got = nearest_neighbors(tree, q, k=k)
        assert len(got) == k
        dists = [d for d, _ in got]
        assert dists == sorted(dists)
        assert dists == pytest.approx(oracle.nearest(dict(enumerate(rects)), q, k))

    def test_k_exceeds_size(self):
        rects = random_rects(5, seed=27)
        tree = packed(rects)
        got = nearest_neighbors(tree, Point(0, 0), k=50)
        assert len(got) == 5

    def test_point_inside_object_distance_zero(self):
        tree = packed([Rect(0, 0, 10, 10)] + random_rects(50, seed=28))
        dist, tid = nearest_neighbor(tree, Point(5, 5))
        assert dist == 0.0


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100),
            st.floats(min_value=0, max_value=100),
        ),
        min_size=1,
        max_size=80,
    ),
    st.floats(min_value=0, max_value=100),
    st.floats(min_value=0, max_value=100),
    st.integers(min_value=1, max_value=10),
)
@settings(max_examples=30)
def test_knn_property_matches_sorted_distances(coords, qx, qy, k):
    points = [Point(x, y) for x, y in coords]
    tree = str_pack([(p, RecordId(0, i)) for i, p in enumerate(points)], max_entries=4)
    q = Point(qx, qy)
    got = nearest_neighbors(tree, q, k=k)
    assert [d for d, _ in got] == pytest.approx(oracle.nearest(dict(enumerate(points)), q, k))
