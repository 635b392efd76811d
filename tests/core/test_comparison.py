"""Tests for the strategy comparison harness."""

import pytest

from repro.core.comparison import StrategyComparison
from repro.errors import JoinError
from repro.predicates.theta import Overlaps, WithinDistance

from tests.join.conftest import make_rect_relation, rtree_over


@pytest.fixture
def indexed_pair():
    rel_r = make_rect_relation("r", 100, seed=111)
    rel_s = make_rect_relation("s", 90, seed=112)
    rtree_over(rel_r, "shape")
    rtree_over(rel_s, "shape")
    return rel_r, rel_s


class TestCompareJoin:
    def test_all_strategies_agree_and_report(self, indexed_pair):
        rel_r, rel_s = indexed_pair
        report = StrategyComparison().compare_join(
            rel_r, "shape", rel_s, "shape", WithinDistance(10.0)
        )
        names = {r.strategy for r in report.rows}
        assert names == {"scan", "tree", "index-nl", "join-index"}
        assert len({r.matches for r in report.rows}) == 1

    def test_zorder_included_for_overlaps(self, indexed_pair):
        rel_r, rel_s = indexed_pair
        report = StrategyComparison().compare_join(
            rel_r, "shape", rel_s, "shape", Overlaps(), include_zorder=True
        )
        assert "zorder" in {r.strategy for r in report.rows}

    def test_cheapest_and_row_lookup(self, indexed_pair):
        rel_r, rel_s = indexed_pair
        report = StrategyComparison().compare_join(
            rel_r, "shape", rel_s, "shape", Overlaps()
        )
        cheapest = report.cheapest()
        assert cheapest.total_cost == min(r.total_cost for r in report.rows)
        assert report.row("scan").strategy == "scan"
        with pytest.raises(JoinError):
            report.row("nope")

    def test_scan_pays_most_predicate_evals(self, indexed_pair):
        rel_r, rel_s = indexed_pair
        report = StrategyComparison().compare_join(
            rel_r, "shape", rel_s, "shape", Overlaps(), include_join_index=False
        )
        scan_evals = report.row("scan").predicate_evals
        tree_evals = report.row("tree").predicate_evals
        assert scan_evals == len(rel_r) * len(rel_s)
        assert tree_evals < scan_evals
