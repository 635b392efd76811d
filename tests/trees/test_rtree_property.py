"""Property-based tests: the R-tree is always a correct spatial index."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.rect import Rect
from repro.predicates.theta import Overlaps
from repro.storage.record import RecordId
from repro.trees.rtree import RTree

from tests import oracle

coords = st.floats(min_value=0, max_value=100, allow_nan=False)
sizes = st.floats(min_value=0, max_value=20, allow_nan=False)


@st.composite
def rect_lists(draw):
    n = draw(st.integers(min_value=0, max_value=120))
    out = []
    for _ in range(n):
        x = draw(coords)
        y = draw(coords)
        out.append(Rect(x, y, x + draw(sizes), y + draw(sizes)))
    return out


@st.composite
def query_rects(draw):
    x = draw(coords)
    y = draw(coords)
    return Rect(x, y, x + draw(sizes) * 3, y + draw(sizes) * 3)


@given(rect_lists(), query_rects())
@settings(max_examples=40)
def test_search_equals_brute_force(rects, query):
    tree = RTree(max_entries=5)
    for i, r in enumerate(rects):
        tree.insert(r, RecordId(0, i))
    tree.check_invariants()
    got = {tid.slot for tid in tree.search_tids(query)}
    assert got == set(oracle.select(dict(enumerate(rects)), query, Overlaps()))


@given(rect_lists(), st.data())
@settings(max_examples=30)
def test_delete_subset_preserves_rest(rects, data):
    tree = RTree(max_entries=4)
    for i, r in enumerate(rects):
        tree.insert(r, RecordId(0, i))
    if rects:
        to_delete = data.draw(
            st.sets(st.integers(0, len(rects) - 1), max_size=len(rects))
        )
    else:
        to_delete = set()
    for i in to_delete:
        assert tree.delete(rects[i], RecordId(0, i))
    tree.check_invariants()
    assert len(tree) == len(rects) - len(to_delete)
    survivors = {tid.slot for tid in tree.search_tids(Rect(0, 0, 200, 200))}
    assert survivors == set(range(len(rects))) - to_delete


@given(rect_lists())
@settings(max_examples=30)
def test_mbr_containment_invariant(rects):
    """Every node's MBR covers all data beneath it (the defining
    generalization-tree property)."""
    tree = RTree(max_entries=4)
    for i, r in enumerate(rects):
        tree.insert(r, RecordId(0, i))
    tree.validate()
