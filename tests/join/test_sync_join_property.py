"""Property test: the synchronized tree join against exhaustive pairing.

The delicate path in ``sync_tree_join`` is the ``_Pinned`` machinery:
interior nodes that are themselves application objects (assumption S2
worlds) must still be matched against the partner tree's *descendants*,
including the case where two interior application objects sit at
different depths and meet only via pinned items.  Random nested-rect
cartographic hierarchies exercise exactly that.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.rect import Rect
from repro.join.sync_join import sync_tree_join
from repro.predicates.theta import Overlaps
from repro.storage.record import RecordId
from repro.trees.cartotree import CartoTree

from tests import oracle
from tests.join.conftest import node_regions


def random_carto_tree(seed, offset, page):
    """A random nested-rect hierarchy, interior nodes carrying tids.

    Each node's rect is subdivided into a few strictly contained child
    rects; every node (including interiors, at random depths) gets a tid
    with probability 0.7, so interior application objects abound.  The
    whole tree is shifted by ``offset`` so two trees overlap partially.
    """
    rng = random.Random(seed)
    slot_counter = [0]

    def maybe_tid():
        if rng.random() < 0.7:
            slot_counter[0] += 1
            return RecordId(page, slot_counter[0] - 1)
        return None

    root_rect = Rect(offset, offset, offset + 100.0, offset + 100.0)
    tree = CartoTree(root_rect, root_tid=maybe_tid())

    def grow(parent, rect, depth):
        if depth >= rng.randint(1, 3):
            return
        for _ in range(rng.randint(0, 3)):
            w = rect.width * rng.uniform(0.2, 0.6)
            h = rect.height * rng.uniform(0.2, 0.6)
            x = rng.uniform(rect.xmin, rect.xmax - w)
            y = rng.uniform(rect.ymin, rect.ymax - h)
            child_rect = Rect(x, y, x + w, y + h)
            child = tree.add_child(parent, child_rect, tid=maybe_tid())
            grow(child, child_rect, depth + 1)

    grow(tree.root(), root_rect, 0)
    return tree


@given(
    seed_r=st.integers(min_value=0, max_value=10_000),
    seed_s=st.integers(min_value=0, max_value=10_000),
    offset=st.floats(min_value=0.0, max_value=90.0),
)
@settings(max_examples=40, deadline=None)
def test_sync_join_equals_exhaustive_pairing(seed_r, seed_s, offset):
    tree_r = random_carto_tree(seed_r, 0.0, page=1)
    tree_s = random_carto_tree(seed_s, offset, page=2)
    theta = Overlaps()
    result = sync_tree_join(tree_r, tree_s, theta)
    assert len(result.pairs) == len(set(result.pairs)), "duplicate pair"
    assert sorted(result.pair_set()) == oracle.join(
        node_regions(tree_r), node_regions(tree_s), theta
    )


def test_interior_objects_at_different_depths():
    """Two interior application objects meeting at different depths: R's
    object is the parent of deep technical structure, S's object sits
    three levels down.  Both matches flow through _Pinned x _Pinned
    expansion."""
    # R: root is technical; an application object at depth 1 whose only
    # descendants are technical nodes.
    tree_r = CartoTree(Rect(0, 0, 100, 100))
    r_obj = tree_r.add_child(tree_r.root(), Rect(10, 10, 90, 90), tid=RecordId(1, 0))
    deep = tree_r.add_child(r_obj, Rect(20, 20, 40, 40))
    tree_r.add_child(deep, Rect(25, 25, 35, 35))

    # S: technical root and technical spine; the application object is at
    # depth 3, spatially inside R's depth-1 object.
    tree_s = CartoTree(Rect(0, 0, 100, 100))
    s1 = tree_s.add_child(tree_s.root(), Rect(5, 5, 95, 95))
    s2 = tree_s.add_child(s1, Rect(50, 50, 80, 80))
    tree_s.add_child(s2, Rect(55, 55, 75, 75), tid=RecordId(2, 0))

    result = sync_tree_join(tree_r, tree_s, Overlaps())
    assert result.pair_set() == {(RecordId(1, 0), RecordId(2, 0))}
    assert len(result.pairs) == 1
