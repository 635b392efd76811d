"""Regression: cache admission after a fallback records what actually ran.

When the requested strategy dies and the fallback chain executes a
different one, the admitted cache entry must carry the *winning*
attempt's strategy and the seconds of that attempt's metered work --
never the requested strategy's label or cost.  An entry admitted under
the wrong strategy key would miss on the next identical request; an
entry priced by the wrong run would skew the cost-aware eviction
policy.
"""

import pytest

from repro.cache import QueryCache
from repro.core import SpatialQueryExecutor
from repro.core.strategies import JoinOperands, metered_work
from repro.costmodel.profile import seconds
from repro.faults import FaultPlan, FaultyDisk
from repro.predicates.theta import Overlaps
from repro.storage.costs import CostMeter
from repro.workloads.assembly import build_indexed_relation


def faulted_pair(n=120, read_outages=None, seed=1):
    plan = FaultPlan(seed=seed, read_outages=read_outages or {})
    disk = FaultyDisk(plan)
    ir_r = build_indexed_relation(n, seed=1, disk=disk)
    ir_s = build_indexed_relation(n, seed=2, disk=disk)
    return ir_r.relation, ir_s.relation, disk


def join_entry_strategies(cache):
    """Strategy component of every cached join entry's key."""
    return [key[-1] for key in cache._entries if key[0] == "join"]


class TestAdmitAfterFallback:
    def test_entry_carries_the_strategy_that_ran(self):
        # An 8-access outage on page 0 outlasts the buffer pool's retry
        # budget: the partition attempt dies, tree wins the fallback.
        rel_r, rel_s, _ = faulted_pair(read_outages={0: 8})
        cache = QueryCache()
        executor = SpatialQueryExecutor(cache=cache)
        result, report = executor.execute_join(
            rel_r, "shape", rel_s, "shape", Overlaps(), strategy="partition"
        )
        assert report.fallbacks >= 1
        assert report.strategy == "tree"
        assert join_entry_strategies(cache) == ["tree"]

    def test_warm_repeat_of_the_fallback_strategy_hits(self):
        rel_r, rel_s, _ = faulted_pair(read_outages={0: 8})
        cache = QueryCache()
        executor = SpatialQueryExecutor(cache=cache)
        cold, report = executor.execute_join(
            rel_r, "shape", rel_s, "shape", Overlaps(), strategy="partition"
        )
        assert report.strategy == "tree"
        # Repeating the *executed* strategy is served from the cache.
        warm = executor.join(
            rel_r, "shape", rel_s, "shape", Overlaps(), strategy="tree"
        )
        assert warm.strategy == "cached-exact"
        assert warm.pair_set() == cold.pair_set()

    def test_cost_is_the_winning_attempts_metered_seconds(self):
        rel_r, rel_s, _ = faulted_pair(read_outages={0: 8})
        cache = QueryCache()
        executor = SpatialQueryExecutor(cache=cache)
        result, report = executor.execute_join(
            rel_r, "shape", rel_s, "shape", Overlaps(), strategy="partition"
        )
        assert report.strategy == "tree"
        (entry,) = cache.entries()
        ops = JoinOperands(rel_r, "shape", rel_s, "shape", Overlaps())
        failed, won = report.attempts

        def priced(strategy, attempt):
            return seconds(metered_work(
                strategy, attempt.stats,
                kinds=ops.kinds, rows=ops.rows, matches=len(result.pairs),
            ))

        assert entry.cost == priced("tree", won)
        assert entry.cost != priced("partition", failed)

    def test_clean_run_admits_under_the_requested_strategy(self):
        rel_r, rel_s, _ = faulted_pair()
        cache = QueryCache()
        executor = SpatialQueryExecutor(cache=cache)
        _, report = executor.execute_join(
            rel_r, "shape", rel_s, "shape", Overlaps(), strategy="tree"
        )
        assert report.fallbacks == 0
        assert join_entry_strategies(cache) == ["tree"]

    def test_failed_attempts_admit_nothing(self):
        # A permanently lost data page kills every strategy that touches
        # it; strategies that fail must leave no cache entry behind.
        rel_r, rel_s, disk = faulted_pair()
        disk.lose_page(rel_r.page_ids[0])
        cache = QueryCache()
        executor = SpatialQueryExecutor(cache=cache)
        meter = CostMeter()
        with pytest.raises(Exception):
            executor.join(
                rel_r, "shape", rel_s, "shape", Overlaps(),
                strategy="scan", meter=meter,
            )
        assert join_entry_strategies(cache) == []
