"""Bridge test for the JOIN formulas (Section 4.4).

The JOIN accounting is built from *marginal* level-pair probabilities
``pi(i, j)``; the actual traversal only examines pairs whose parents
already matched, and under a spatially local predicate those conditional
probabilities exceed the marginals.  (The paper's "somewhat
overestimated" remark refers to its treatment of the two parent
conditions, not to this conditioning effect.)  The bridge therefore
asserts an order-of-magnitude envelope -- prediction and measurement
within a factor of 3 of each other on a balanced world -- plus the exact
qualitative behaviors: completeness of the join and monotonicity in the
predicate's selectivity.
"""

import pytest

from repro.costmodel.distributions import Tabulated
from repro.costmodel.join_costs import d_tree_computation
from repro.costmodel.parameters import ModelParameters
from repro.geometry.rect import Rect
from repro.join.tree_join import tree_join
from repro.predicates.theta import WithinDistance
from repro.storage.costs import CostMeter
from repro.storage.record import RecordId
from repro.trees.balanced import BalancedKTree

from tests import oracle
from tests.join.conftest import node_regions

K, N_HEIGHT = 4, 3
THETA = WithinDistance(120.0)


@pytest.fixture(scope="module")
def world():
    universe = Rect(0, 0, 1000, 1000)
    tree_r = BalancedKTree(K, N_HEIGHT, universe=universe)
    tree_s = BalancedKTree(K, N_HEIGHT, universe=universe)
    tree_r.assign_tids([RecordId(1, i) for i in range(tree_r.node_count())])
    tree_s.assign_tids([RecordId(2, i) for i in range(tree_s.node_count())])

    # Tabulate the realized cross-tree match probabilities.
    big = THETA.filter_operator()
    levels_r = list(tree_r.levels())
    levels_s = list(tree_s.levels())
    table = {}
    for i, level_i in enumerate(levels_r):
        for j, level_j in enumerate(levels_s):
            hits = sum(
                1
                for a in level_i
                for b in level_j
                if big(a.region, b.region)
            )
            table[(i, j)] = hits / (len(level_i) * len(level_j))
    params = ModelParameters(n=N_HEIGHT, k=K, p=0.5, h=N_HEIGHT)
    return tree_r, tree_s, Tabulated(params, table), params


def measured_join_meter(tree_r, tree_s) -> CostMeter:
    meter = CostMeter()
    tree_join(tree_r, tree_s, THETA, meter=meter)
    return meter


class TestComputationBridge:
    def test_prediction_within_small_factor(self, world):
        tree_r, tree_s, dist, params = world
        predicted = d_tree_computation(dist) / params.c_theta
        measured = measured_join_meter(tree_r, tree_s).predicate_evaluations
        ratio = measured / predicted
        assert 1 / 3 <= ratio <= 3, (measured, predicted)

    def test_join_result_is_complete(self, world):
        tree_r, tree_s, *_ = world
        result = tree_join(tree_r, tree_s, THETA)
        assert sorted(result.pair_set()) == oracle.join(
            node_regions(tree_r), node_regions(tree_s), THETA
        )

    def test_selectivity_monotonicity_both_sides(self, world):
        """Tighter predicates shrink both the prediction and the
        measurement -- the bridge holds across the sweep, not at a single
        point."""
        tree_r, tree_s, _, params = world
        big_loose = WithinDistance(300.0)
        big_tight = WithinDistance(30.0)
        loose_meter = CostMeter()
        tight_meter = CostMeter()
        tree_join(tree_r, tree_s, big_loose, meter=loose_meter)
        tree_join(tree_r, tree_s, big_tight, meter=tight_meter)
        assert tight_meter.predicate_evaluations < loose_meter.predicate_evaluations
