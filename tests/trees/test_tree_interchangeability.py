"""All generalization-tree implementations are interchangeable.

The paper's framework promises that SELECT / JOIN work over *any*
generalization tree.  This suite runs the same queries over every tree
variant in the library -- the Guttman R-tree built by insertion and the
STR-packed tree -- and demands identical answers.
"""

import random

import pytest

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.join.select import spatial_select
from repro.join.tree_join import tree_join
from repro.predicates.theta import NorthwestOf, Overlaps, WithinDistance
from repro.storage.record import RecordId
from repro.trees.knn import nearest_neighbors
from repro.trees.packing import str_pack
from repro.trees.rtree import RTree


def random_rects(count: int, seed: int) -> list[Rect]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        x, y = rng.uniform(0, 300), rng.uniform(0, 300)
        out.append(Rect(x, y, x + rng.uniform(0, 15), y + rng.uniform(0, 15)))
    return out


def all_variants(rects):
    pairs = [(r, RecordId(0, i)) for i, r in enumerate(rects)]
    guttman = RTree(max_entries=7)
    for r, tid in pairs:
        guttman.insert(r, tid)
    packed = str_pack(pairs, max_entries=7)
    return {"guttman": guttman, "str-packed": packed}


@pytest.fixture(scope="module")
def variants():
    return all_variants(random_rects(350, seed=41))


@pytest.mark.parametrize(
    "theta",
    [Overlaps(), WithinDistance(20.0), NorthwestOf()],
    ids=["overlaps", "within", "nw"],
)
def test_select_identical_across_variants(variants, theta):
    query = Rect(100, 100, 160, 160)
    answers = {
        name: frozenset(t.slot for t in spatial_select(tree, query, theta).tids)
        for name, tree in variants.items()
    }
    assert len(set(answers.values())) == 1, answers


def test_join_identical_across_variants(variants):
    partner = str_pack(
        [(r, RecordId(1, i)) for i, r in enumerate(random_rects(120, seed=42))],
        max_entries=7,
    )
    theta = Overlaps()
    answers = {
        name: frozenset(
            (a.slot, b.slot) for a, b in tree_join(tree, partner, theta).pair_set()
        )
        for name, tree in variants.items()
    }
    assert len(set(answers.values())) == 1


def test_knn_identical_across_variants(variants):
    q = Point(150, 150)
    answers = {
        name: tuple(round(d, 9) for d, _ in nearest_neighbors(tree, q, k=7))
        for name, tree in variants.items()
    }
    assert len(set(answers.values())) == 1


def test_all_variants_hold_invariants(variants):
    for name, tree in variants.items():
        tree.check_invariants()
        tree.validate()  # generalization-tree containment
        assert len(tree) == 350, name
