"""Property-based tests for Algorithm JOIN over balanced model trees.

Hypothesis drives the tree shapes (k, n per side), the universe offsets
(so the two trees only partially overlap) and the predicate; the
algorithm must always agree with exhaustive evaluation over all node
pairs -- interior application objects included.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.rect import Rect
from repro.join.tree_join import tree_join
from repro.predicates.theta import NorthwestOf, Overlaps, WithinDistance
from repro.storage.record import RecordId
from repro.trees.balanced import BalancedKTree

from tests import oracle
from tests.join.conftest import node_regions


def build(k: int, n: int, offset: float, page: int) -> BalancedKTree:
    universe = Rect(offset, offset, offset + 100.0, offset + 100.0)
    tree = BalancedKTree(k, n, universe=universe)
    tree.assign_tids([RecordId(page, i) for i in range(tree.node_count())])
    return tree


@given(
    k_r=st.integers(min_value=2, max_value=4),
    n_r=st.integers(min_value=1, max_value=3),
    k_s=st.integers(min_value=2, max_value=4),
    n_s=st.integers(min_value=1, max_value=3),
    offset=st.floats(min_value=0.0, max_value=120.0),
    theta=st.sampled_from(
        [Overlaps(), WithinDistance(25.0), WithinDistance(75.0), NorthwestOf()]
    ),
)
@settings(max_examples=40, deadline=None)
def test_join_equals_exhaustive_pairing(k_r, n_r, k_s, n_s, offset, theta):
    tree_r = build(k_r, n_r, 0.0, page=1)
    tree_s = build(k_s, n_s, offset, page=2)

    result = tree_join(tree_r, tree_s, theta)

    # Every pair, each exactly once (Algorithm JOIN reports no duplicate).
    assert sorted(result.pairs) == oracle.join(
        node_regions(tree_r), node_regions(tree_s), theta
    )


@given(
    k=st.integers(min_value=2, max_value=4),
    n=st.integers(min_value=1, max_value=3),
    d=st.floats(min_value=0.0, max_value=200.0),
)
@settings(max_examples=25, deadline=None)
def test_self_join_symmetry(k, n, d):
    """A self-join under a symmetric operator yields a symmetric pair set."""
    tree_a = build(k, n, 0.0, page=1)
    tree_b = build(k, n, 0.0, page=2)
    theta = WithinDistance(d)
    pairs = tree_join(tree_a, tree_b, theta).pair_set()
    mirrored = {
        (RecordId(1, b.slot), RecordId(2, a.slot)) for a, b in pairs
    }
    assert mirrored == pairs
