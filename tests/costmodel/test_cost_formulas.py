"""Tests for the update / selection / join cost formulas."""

import pytest

from repro.costmodel.distributions import make_distribution
from repro.costmodel.join_costs import (
    d_join_index,
    d_nested_loop,
    d_partition,
    d_tree_clustered,
    d_tree_computation,
    d_tree_unclustered,
    expected_join_cardinality,
    participating_nodes,
)
from repro.costmodel.parameters import PAPER_PARAMETERS, ModelParameters
from repro.costmodel.selection_costs import (
    c_join_index,
    c_nested_loop,
    c_tree_clustered,
    c_tree_computation,
    c_tree_unclustered,
    expected_index_entries,
)
from repro.costmodel.update_costs import (
    expected_insert_height,
    u_join_index,
    u_nested_loop,
    u_tree_clustered,
    u_tree_unclustered,
)


def dist(name: str, p: float):
    return make_distribution(name, PAPER_PARAMETERS.with_p(p))


class TestUpdateCosts:
    def test_nested_loop_free(self):
        assert u_nested_loop(PAPER_PARAMETERS) == 0.0

    def test_expected_height_near_leaves(self):
        """Most nodes are leaves, so a new object usually lands deep."""
        h = expected_insert_height(PAPER_PARAMETERS)
        assert 5.5 < h <= 6.0

    def test_clustered_cheaper_than_unclustered(self):
        assert u_tree_clustered(PAPER_PARAMETERS) < u_tree_unclustered(PAPER_PARAMETERS)

    def test_join_index_orders_of_magnitude_worse(self):
        assert u_join_index(PAPER_PARAMETERS) > 1000 * u_tree_unclustered(PAPER_PARAMETERS)

    def test_join_index_scales_with_relations(self):
        one = u_join_index(PAPER_PARAMETERS, t_relations=1)
        five = u_join_index(PAPER_PARAMETERS, t_relations=5)
        assert five == pytest.approx(5 * one)


class TestSelectionCosts:
    def test_c1_formula(self):
        p = PAPER_PARAMETERS
        expected = p.N * p.c_theta + p.relation_pages * p.c_io
        assert c_nested_loop(p) == pytest.approx(expected)

    def test_computation_monotone_in_p(self):
        lo = c_tree_computation(dist("uniform", 1e-6))
        hi = c_tree_computation(dist("uniform", 1e-2))
        assert hi > lo

    def test_computation_bounded_by_full_traversal(self):
        full = c_tree_computation(dist("uniform", 1.0))
        assert full == pytest.approx(PAPER_PARAMETERS.N, rel=1e-6)

    def test_clustered_beats_unclustered_midrange(self):
        d = dist("uniform", 1e-3)
        assert c_tree_clustered(d) < c_tree_unclustered(d)

    def test_index_entries_monotone(self):
        lo = expected_index_entries(dist("uniform", 1e-5))
        hi = expected_index_entries(dist("uniform", 1e-2))
        assert hi > lo

    def test_join_index_has_constant_floor(self):
        """Even at vanishing selectivity the index descent is charged."""
        d = dist("uniform", 1e-12)
        assert c_join_index(d) >= PAPER_PARAMETERS.d * PAPER_PARAMETERS.c_io

    def test_all_positive(self):
        for name in ("uniform", "no-loc", "hi-loc"):
            d = dist(name, 0.01)
            for fn in (c_tree_unclustered, c_tree_clustered, c_join_index):
                assert fn(d) > 0


class TestJoinCosts:
    def test_d1_dominated_by_predicates(self):
        p = PAPER_PARAMETERS
        assert d_nested_loop(p) >= float(p.N) ** 2

    def test_d1_independent_of_p(self):
        assert d_nested_loop(PAPER_PARAMETERS.with_p(1e-9)) == d_nested_loop(
            PAPER_PARAMETERS.with_p(0.9)
        )

    def test_cardinality_uniform(self):
        d = dist("uniform", 0.5)
        total_nodes = float(PAPER_PARAMETERS.N)
        assert expected_join_cardinality(d) == pytest.approx(0.5 * total_nodes**2)

    def test_participating_nodes_bounds(self):
        d = dist("uniform", 1.0)
        assert participating_nodes(d) == pytest.approx(PAPER_PARAMETERS.N)
        d0 = dist("uniform", 0.0)
        assert participating_nodes(d0) == pytest.approx(1.0)

    def test_tree_computation_grows_with_p(self):
        assert d_tree_computation(dist("uniform", 1e-3)) > d_tree_computation(
            dist("uniform", 1e-9)
        )

    def test_join_index_monotone_in_p(self):
        assert d_join_index(dist("uniform", 1e-3)) > d_join_index(
            dist("uniform", 1e-9)
        )

    def test_all_strategies_positive(self):
        for name in ("uniform", "no-loc", "hi-loc"):
            d = dist(name, 1e-6)
            for fn in (d_tree_unclustered, d_tree_clustered, d_join_index):
                assert fn(d) > 0, (name, fn.__name__)

    def test_smaller_model_consistency(self):
        """Formulas behave on a non-paper parameterization too."""
        small = ModelParameters(n=3, k=4, p=0.05, h=3)
        d = make_distribution("no-loc", small)
        assert d_tree_unclustered(d) >= d_tree_computation(d)
        assert d_tree_clustered(d) >= d_tree_computation(d)


class TestPartitionCost:
    ROWS = (PAPER_PARAMETERS.N, PAPER_PARAMETERS.N)

    def test_beats_nested_loop_at_low_selectivity(self):
        p = PAPER_PARAMETERS.with_p(1e-9)
        assert d_partition(p, self.ROWS) < d_nested_loop(p)

    def test_cpu_divides_across_workers(self):
        p = PAPER_PARAMETERS.with_p(1e-6)
        seq, quad = d_partition(p, self.ROWS, workers=1), d_partition(p, self.ROWS, workers=4)
        assert seq / quad == pytest.approx(4.0)

    def test_grows_with_p(self):
        assert d_partition(PAPER_PARAMETERS.with_p(1e-3), self.ROWS) > d_partition(
            PAPER_PARAMETERS.with_p(1e-9), self.ROWS
        )

    def test_prices_the_rows_it_is_given(self):
        p = PAPER_PARAMETERS.with_p(1e-6)
        assert d_partition(p, (1000, 1000)) < d_partition(p, (1000, 10_000))

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            d_partition(PAPER_PARAMETERS, self.ROWS, workers=0)
