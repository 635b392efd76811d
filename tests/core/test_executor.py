"""Tests for the high-level query executor."""

import pytest

import repro.core.executor as executor_module
from repro.cache import QueryCache
from repro.core.executor import SpatialQueryExecutor
from repro.core.optimizer import executable_strategy, plan_join
from repro.errors import JoinError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.predicates.theta import NorthwestOf, Overlaps, WithinDistance
from repro.storage.costs import C_IO, CostMeter

from tests import oracle
from tests.join.conftest import (
    make_rect_relation,
    rtree_over,
)


@pytest.fixture
def executor():
    return SpatialQueryExecutor(memory_pages=200)


@pytest.fixture
def indexed_pair():
    rel_r = make_rect_relation("r", 80, seed=101)
    rel_s = make_rect_relation("s", 70, seed=102)
    rtree_over(rel_r, "shape")
    rtree_over(rel_s, "shape")
    return rel_r, rel_s


class TestSelect:
    def test_scan_vs_tree_agree(self, executor, indexed_pair):
        rel_r, _ = indexed_pair
        q = Rect(20, 20, 50, 50)
        scan = executor.select(rel_r, "shape", q, Overlaps(), strategy="scan")
        tree = executor.select(rel_r, "shape", q, Overlaps(), strategy="tree")
        assert set(scan.tids) == set(tree.tids)

    def test_auto_picks_tree_when_indexed(self, executor, indexed_pair):
        rel_r, _ = indexed_pair
        res = executor.select(rel_r, "shape", Point(10, 10), WithinDistance(30))
        assert res.strategy.startswith("select-")

    def test_auto_falls_back_to_scan(self, executor):
        rel = make_rect_relation("bare", 30, seed=103)
        res = executor.select(rel, "shape", Point(10, 10), WithinDistance(30))
        assert res.strategy == "nested-loop-select"

    def test_unknown_strategy(self, executor, indexed_pair):
        rel_r, _ = indexed_pair
        with pytest.raises(JoinError):
            executor.select(rel_r, "shape", Point(0, 0), Overlaps(), strategy="magic")


class TestJoinStrategies:
    @pytest.mark.parametrize("strategy", ["scan", "tree", "index-nl"])
    def test_agree_with_brute_force(self, executor, indexed_pair, strategy):
        rel_r, rel_s = indexed_pair
        theta = Overlaps()
        res = executor.join(rel_r, "shape", rel_s, "shape", theta, strategy=strategy)
        assert sorted(res.pair_set()) == oracle.pairs(rel_r, "shape", rel_s, "shape", theta)

    def test_join_index_requires_registration(self, executor, indexed_pair):
        rel_r, rel_s = indexed_pair
        with pytest.raises(JoinError):
            executor.join(
                rel_r, "shape", rel_s, "shape", Overlaps(), strategy="join-index"
            )

    def test_join_index_roundtrip(self, executor, indexed_pair):
        rel_r, rel_s = indexed_pair
        theta = WithinDistance(15.0)
        executor.precompute_join_index(rel_r, rel_s, "shape", "shape", theta)
        res = executor.join(rel_r, "shape", rel_s, "shape", theta, strategy="join-index")
        assert sorted(res.pair_set()) == oracle.pairs(rel_r, "shape", rel_s, "shape", theta)

    def test_zorder_overlaps_only(self, executor, indexed_pair):
        rel_r, rel_s = indexed_pair
        with pytest.raises(JoinError):
            executor.join(
                rel_r, "shape", rel_s, "shape", WithinDistance(5), strategy="zorder"
            )
        res = executor.join(rel_r, "shape", rel_s, "shape", Overlaps(), strategy="zorder")
        assert sorted(res.pair_set()) == oracle.pairs(
            rel_r, "shape", rel_s, "shape", Overlaps()
        )

    def test_swapped_index_join(self, executor):
        rel_r = make_rect_relation("r", 40, seed=104)
        rel_s = make_rect_relation("s", 40, seed=105)
        rtree_over(rel_s, "shape")  # only S indexed
        theta = NorthwestOf()
        res = executor.join(
            rel_r, "shape", rel_s, "shape", theta, strategy="index-nl-swapped"
        )
        assert res.strategy == "index-nested-loop-swapped"
        assert sorted(res.pair_set()) == oracle.pairs(rel_r, "shape", rel_s, "shape", theta)


class TestAutoPick:
    def test_join_index_preferred(self, executor, indexed_pair):
        rel_r, rel_s = indexed_pair
        theta = Overlaps()
        executor.precompute_join_index(rel_r, rel_s, "shape", "shape", theta)
        res = executor.join(rel_r, "shape", rel_s, "shape", theta)
        assert res.strategy == "join-index"

    def test_partition_for_in_memory_overlaps(self, executor, indexed_pair):
        """Overlap joins that fit in memory go to the partition sweep,
        even when both sides carry trees."""
        rel_r, rel_s = indexed_pair
        res = executor.join(rel_r, "shape", rel_s, "shape", Overlaps())
        assert res.strategy == "partition-sweep"
        assert sorted(res.pair_set()) == oracle.pairs(
            rel_r, "shape", rel_s, "shape", Overlaps()
        )

    def test_tree_when_both_indexed(self, executor, indexed_pair):
        """Non-overlap predicates cannot use the partition sweep; two
        trees still mean the generalization-tree join."""
        rel_r, rel_s = indexed_pair
        res = executor.join(rel_r, "shape", rel_s, "shape", WithinDistance(12.0))
        assert res.strategy == "tree-join"

    def test_partition_when_nothing_available(self, executor):
        """The partition sweep needs no index: unindexed in-memory
        overlap joins no longer fall back to the nested loop."""
        rel_r = make_rect_relation("r", 20, seed=106)
        rel_s = make_rect_relation("s", 20, seed=107)
        res = executor.join(rel_r, "shape", rel_s, "shape", Overlaps())
        assert res.strategy == "partition-sweep"

    def test_scan_when_nothing_available(self, executor):
        rel_r = make_rect_relation("r", 20, seed=106)
        rel_s = make_rect_relation("s", 20, seed=107)
        res = executor.join(rel_r, "shape", rel_s, "shape", NorthwestOf())
        assert res.strategy == "nested-loop"

    def test_out_of_memory_overlaps_still_partitions(self):
        """The partition sweep's column snapshots live outside the M-page
        budget, so operands exceeding it still take the sweep (the
        calibration grid's ``M=64`` cells measure it fastest there)."""
        executor = SpatialQueryExecutor(memory_pages=12)
        rel_r = make_rect_relation("r", 30, seed=108)
        rel_s = make_rect_relation("s", 30, seed=109)
        res = executor.join(rel_r, "shape", rel_s, "shape", Overlaps())
        assert res.strategy == "partition-sweep"

    def test_auto_is_the_planners_pick(self, executor, indexed_pair):
        """One picker: ``auto`` runs what ``plan_join`` ranks fastest, and
        its report holds the run to that plan's prediction."""
        rel_r, rel_s = indexed_pair
        for theta in (Overlaps(), WithinDistance(12.0)):
            plan = plan_join(rel_r, "shape", rel_s, "shape", theta)
            assert plan.strategy == min(
                plan.predicted_seconds, key=plan.predicted_seconds.get
            )
            _, report = executor.execute_join(rel_r, "shape", rel_s, "shape", theta)
            assert report.strategy == executable_strategy(plan)
            assert report.drift.row(report.strategy).priced == plan.strategy

    def test_the_pick_is_planned_once_per_epoch(self, executor, monkeypatch):
        """A repeat of an ``auto`` join -- a cache hit above all -- does
        not plan again; a change to either operand, to the predicate or
        to the indexes does."""
        planned = []

        def counting_plan_join(*args, **kwargs):
            planned.append(args[4])
            return plan_join(*args, **kwargs)

        monkeypatch.setattr(executor_module, "plan_join", counting_plan_join)
        rel_r = make_rect_relation("r", 40, seed=110)
        rel_s = make_rect_relation("s", 40, seed=111)

        def join(theta=Overlaps()):
            return executor.join(rel_r, "shape", rel_s, "shape", theta)

        join()
        join()
        assert len(planned) == 1
        rel_s.insert([40, Rect(1.0, 1.0, 2.0, 2.0)])
        join()
        assert len(planned) == 2
        join(WithinDistance(5.0))
        assert len(planned) == 3
        rtree_over(rel_s, "shape")
        assert join().pair_set() == set(oracle.pairs(rel_r, "shape", rel_s, "shape", Overlaps()))
        assert len(planned) == 4
        # Another executor over the same relations finds the pick kept.
        SpatialQueryExecutor(memory_pages=200).join(rel_r, "shape", rel_s, "shape", Overlaps())
        assert len(planned) == 4
        # ``plan_and_execute_join`` is ``auto``: it plans through the same memo.
        rel_r.bump_epoch()
        for _ in range(2):
            executor.plan_and_execute_join(rel_r, "shape", rel_s, "shape", Overlaps())
        assert len(planned) == 5

    def test_the_pick_is_planned_once_for_every_worker_count(self, executor, monkeypatch):
        """No price reads ``workers``: the same join at another worker
        count reuses the kept plan instead of sampling again."""
        planned = []

        def counting_plan_join(*args, **kwargs):
            planned.append(args[4])
            return plan_join(*args, **kwargs)

        monkeypatch.setattr(executor_module, "plan_join", counting_plan_join)
        rel_r = make_rect_relation("r", 40, seed=112)
        rel_s = make_rect_relation("s", 40, seed=113)
        for workers in (1, 2):
            executor.join(rel_r, "shape", rel_s, "shape", Overlaps(), workers=workers)
        assert len(planned) == 1

    def test_a_cold_small_auto_join_is_cached(self):
        """Admission prices a run by the seconds of its metered work.  A
        cold 60-row ``auto`` join meters under one ``C_IO`` in Table 3's
        units, yet its sweep takes longer than one page read, so a
        default cache admits it and serves the repeat."""
        rel_r = make_rect_relation("r", 60, seed=120)
        rel_s = make_rect_relation("s", 60, seed=121)
        executor = SpatialQueryExecutor(cache=QueryCache())
        meter = CostMeter()
        first = executor.join(rel_r, "shape", rel_s, "shape", Overlaps(), meter=meter)
        assert first.strategy == "partition-sweep"
        assert meter.total() < C_IO
        again = executor.join(rel_r, "shape", rel_s, "shape", Overlaps())
        assert again.strategy == "cached-exact"
        assert again.pair_set() == first.pair_set()

    def test_meter_threading(self, executor, indexed_pair):
        rel_r, rel_s = indexed_pair
        meter = CostMeter()
        executor.join(rel_r, "shape", rel_s, "shape", Overlaps(), meter=meter)
        assert meter.predicate_evaluations > 0
        # The planner behind ``auto`` read the column snapshots: the
        # partition sweep it picks charges them as buffer hits.
        assert meter.buffer_hits == rel_r.num_pages + rel_s.num_pages

    def test_memory_pages_validated(self):
        with pytest.raises(JoinError):
            SpatialQueryExecutor(memory_pages=5)
