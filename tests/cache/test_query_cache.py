"""Unit tests for the query-result cache: tiers, policy, invalidation.

The differential and stateful suites prove the cache *agrees* with the
engine; this file pins the mechanics -- which tier serves which probe,
when the admission policy refuses, who gets evicted, and that an epoch
bump (mutation or WAL-recovery replay) kills exactly the right entries.
"""

import pytest

from repro.cache import CachePolicy, QueryCache
from repro.cache.keys import (
    exact_monotone,
    geometry_fingerprint,
    theta_cache_key,
    window_monotone,
)
from repro.core.executor import SpatialQueryExecutor
from repro.core.strategies import metered_work
from repro.costmodel.profile import MEASURED_PROFILE, predicate_kinds, seconds
from repro.errors import JoinError, RelationError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.obs import MetricsRegistry
from repro.predicates.theta import (
    Includes,
    NorthwestOf,
    Overlaps,
    WithinDistance,
)
from repro.storage.costs import C_IO, CostMeter
from repro.workloads.assembly import build_indexed_relation

QUERY = Rect(100.0, 100.0, 400.0, 420.0)
INNER = Rect(150.0, 150.0, 300.0, 350.0)


@pytest.fixture()
def workload():
    ir_r = build_indexed_relation(120, seed=11, max_extent=40.0)
    ir_s = build_indexed_relation(100, seed=12, max_extent=40.0)
    return ir_r, ir_s


def make_executor(workload, **cache_kwargs):
    cache_kwargs.setdefault("admission_threshold", 0.0)
    cache = QueryCache(CachePolicy(**cache_kwargs))
    return SpatialQueryExecutor(memory_pages=4000, cache=cache), cache


# ----------------------------------------------------------------------
# Keys and monotonicity
# ----------------------------------------------------------------------

def test_geometry_fingerprints_are_canonical():
    assert geometry_fingerprint(Rect(1, 2, 3, 4)) == geometry_fingerprint(
        Rect(1.0, 2.0, 3.0, 4.0)
    )
    assert geometry_fingerprint(Rect(1, 2, 3, 4)) != geometry_fingerprint(
        Rect(1, 2, 3, 5)
    )
    assert geometry_fingerprint(Point(1, 2)) != geometry_fingerprint(
        Rect(1, 2, 1, 2)
    )


def test_theta_key_distinguishes_parameters():
    assert theta_cache_key(WithinDistance(10.0)) != theta_cache_key(
        WithinDistance(20.0)
    )
    assert theta_cache_key(Overlaps()) == theta_cache_key(Overlaps())


def test_monotonicity_whitelists():
    assert window_monotone(Overlaps())
    assert window_monotone(WithinDistance(5.0))
    assert not window_monotone(NorthwestOf())
    assert exact_monotone(Overlaps())
    assert exact_monotone(Includes())
    # The centerpoint of the window moves as the window shrinks, so the
    # exact within-distance matches of W are NOT a superset of W''s.
    assert not exact_monotone(WithinDistance(5.0))


# ----------------------------------------------------------------------
# Tiers
# ----------------------------------------------------------------------

def test_exact_tier_serves_at_zero_page_reads(workload):
    ir_r, _ = workload
    executor, cache = make_executor(workload)
    cold = executor.select(ir_r.relation, "shape", QUERY, Overlaps(),
                           strategy="tree")
    meter = CostMeter()
    warm = executor.select(ir_r.relation, "shape", QUERY, Overlaps(),
                           strategy="tree", meter=meter)
    assert warm.strategy == "cached-exact"
    assert sorted(warm.tids) == sorted(cold.tids)
    assert meter.page_reads == 0 and meter.page_writes == 0
    assert meter.cache_probes == 1 and meter.cache_hits == 1
    assert cache.stats.exact_hits == 1


def test_containment_tier_refines_shrunken_window(workload):
    ir_r, _ = workload
    executor, cache = make_executor(workload)
    executor.select(ir_r.relation, "shape", QUERY, Overlaps(), strategy="tree")

    fresh = SpatialQueryExecutor(memory_pages=4000).select(
        ir_r.relation, "shape", INNER, Overlaps(), strategy="tree"
    )
    meter = CostMeter()
    warm = executor.select(ir_r.relation, "shape", INNER, Overlaps(),
                           strategy="tree", meter=meter)
    assert warm.strategy == "cached-containment"
    assert sorted(warm.tids) == sorted(fresh.tids)
    # Refinement work is exact evaluations only -- never page I/O.
    assert meter.page_reads == 0 and meter.page_writes == 0
    assert meter.theta_exact_evals > 0
    assert cache.stats.containment_hits == 1


def test_containment_not_served_for_non_monotone_theta(workload):
    ir_r, _ = workload
    executor, cache = make_executor(workload)
    theta = NorthwestOf()
    executor.select(ir_r.relation, "shape", QUERY, theta, strategy="tree")
    warm = executor.select(ir_r.relation, "shape", INNER, theta,
                           strategy="tree")
    assert not warm.strategy.startswith("cached-")
    assert cache.stats.containment_hits == 0


@pytest.mark.parametrize("admit_larger_first", [True, False])
def test_containment_tie_picks_the_least_key(admit_larger_first):
    """Two containing windows with equal refinement work: the least key
    (here the smaller window's fingerprint) serves, whatever the order
    of admission."""
    from repro.join.result import SelectResult

    cache = QueryCache(CachePolicy(admission_threshold=0.0))
    ir = build_indexed_relation(30, seed=5)
    inner = Rect(10.0, 10.0, 20.0, 20.0)
    # One stored candidate each, so the work ties; each window's
    # candidate is its own tid, so the answer names the window served.
    windows = [
        (Rect(0.0, 0.0, 100.0, 100.0), "small"),
        (Rect(0.0, 0.0, 200.0, 200.0), "large"),
    ]
    if admit_larger_first:
        windows.reverse()
    for window, tid in windows:
        assert cache.admit_select(
            ir.relation, "shape", window, Overlaps(),
            strategy="tree", order="bfs",
            result=SelectResult(strategy="tree"),
            candidates=[(tid, Rect(12.0, 12.0, 14.0, 14.0), None)],
            measured_cost=1.0,
        )
    meter = CostMeter()
    tier, served = cache.probe_select(
        ir.relation, "shape", inner, Overlaps(),
        strategy="tree", order="bfs", meter=meter,
    )
    assert tier == "containment"
    assert served.matches == [("small", None)]
    assert meter.theta_exact_evals == 1
    assert cache.stats.containment_hits == 1


def test_enlarged_window_misses(workload):
    ir_r, _ = workload
    executor, cache = make_executor(workload)
    executor.select(ir_r.relation, "shape", INNER, Overlaps(), strategy="tree")
    outer = executor.select(ir_r.relation, "shape", QUERY, Overlaps(),
                            strategy="tree")
    assert not outer.strategy.startswith("cached-")
    assert cache.stats.misses == 2


def test_different_strategy_is_a_different_entry(workload):
    ir_r, _ = workload
    executor, cache = make_executor(workload)
    executor.select(ir_r.relation, "shape", QUERY, Overlaps(), strategy="tree")
    scanned = executor.select(ir_r.relation, "shape", QUERY, Overlaps(),
                              strategy="scan")
    assert not scanned.strategy.startswith("cached-")
    assert len(cache) == 2


# ----------------------------------------------------------------------
# Joins: exact tier + symmetric orientation
# ----------------------------------------------------------------------

def test_symmetric_join_shares_one_entry_across_orientations(workload):
    ir_r, ir_s = workload
    executor, cache = make_executor(workload)
    rs = executor.join(ir_r.relation, "shape", ir_s.relation, "shape",
                       Overlaps(), strategy="tree")
    sr = executor.join(ir_s.relation, "shape", ir_r.relation, "shape",
                       Overlaps(), strategy="tree")
    assert sr.strategy == "cached-exact"
    assert len(cache) == 1
    assert sorted(sr.pairs) == sorted((b, a) for a, b in rs.pairs)


def test_asymmetric_join_does_not_share_orientations(workload):
    ir_r, ir_s = workload
    executor, cache = make_executor(workload)
    executor.join(ir_r.relation, "shape", ir_s.relation, "shape",
                  NorthwestOf(), strategy="tree")
    sr = executor.join(ir_s.relation, "shape", ir_r.relation, "shape",
                       NorthwestOf(), strategy="tree")
    assert not sr.strategy.startswith("cached-")
    assert len(cache) == 2


def test_tuple_collecting_probe_misses_pair_only_entry(workload):
    ir_r, ir_s = workload
    executor, cache = make_executor(workload)
    executor.join(ir_r.relation, "shape", ir_s.relation, "shape", Overlaps(),
                  strategy="tree")
    with_tuples = executor.join(
        ir_r.relation, "shape", ir_s.relation, "shape", Overlaps(),
        strategy="tree", collect_tuples=True,
    )
    assert not with_tuples.strategy.startswith("cached-")
    assert len(with_tuples.tuples) == len(with_tuples.pairs)


# ----------------------------------------------------------------------
# Epoch invalidation
# ----------------------------------------------------------------------

def test_insert_invalidates_select_entries(workload):
    ir_r, _ = workload
    executor, cache = make_executor(workload)
    executor.select(ir_r.relation, "shape", QUERY, Overlaps(), strategy="tree")
    ir_r.relation.insert([999, Rect(200.0, 200.0, 220.0, 220.0)])
    warm = executor.select(ir_r.relation, "shape", QUERY, Overlaps(),
                           strategy="tree")
    assert not warm.strategy.startswith("cached-")
    assert cache.stats.invalidations >= 1
    # The re-executed answer includes the new tuple.
    assert any(
        t["oid"] == 999 for _tid, t in warm.matches
    )


def test_delete_invalidates_join_entries(workload):
    ir_r, ir_s = workload
    executor, cache = make_executor(workload)
    args = (ir_r.relation, "shape", ir_s.relation, "shape", Overlaps())
    executor.join(*args, strategy="tree")
    victim = next(iter(ir_s.relation.scan()))
    ir_s.relation.delete(victim.tid)
    warm = executor.join(*args, strategy="tree")
    assert not warm.strategy.startswith("cached-")
    assert cache.stats.invalidations >= 1


def test_purge_stale_drops_every_bumped_entry(workload):
    ir_r, ir_s = workload
    executor, cache = make_executor(workload)
    executor.select(ir_r.relation, "shape", QUERY, Overlaps(), strategy="tree")
    executor.join(ir_r.relation, "shape", ir_s.relation, "shape", Overlaps(),
                  strategy="tree")
    assert len(cache) == 2
    ir_r.relation.bump_epoch()
    dropped = cache.purge_stale()
    assert dropped == 2  # both entries involve ir_r
    assert len(cache) == 0
    assert all(e.fresh() for e in cache.entries())


def test_bump_epoch_validates(workload):
    ir_r, _ = workload
    before = ir_r.relation.modification_count
    assert ir_r.relation.bump_epoch() == before + 1
    with pytest.raises(RelationError):
        ir_r.relation.bump_epoch(0)


# ----------------------------------------------------------------------
# Admission and eviction
# ----------------------------------------------------------------------

def test_admission_threshold_rejects_cheap_queries(workload):
    ir_r, _ = workload
    executor, cache = make_executor(workload, admission_threshold=1e12)
    executor.select(ir_r.relation, "shape", QUERY, Overlaps(), strategy="tree")
    assert len(cache) == 0
    assert cache.stats.rejections == 1


def test_every_select_worth_one_c_io_is_admitted_in_seconds():
    """The default threshold is one page read in seconds, and it admits
    every tree select the Table 3 rule (one ``C_IO`` = 1000 units)
    admitted: such a select read a page, or ran >= 500 Theta-filter
    evaluations (each exact evaluation follows one), which take longer."""
    import random

    ir = build_indexed_relation(400, seed=3)
    cache = QueryCache()
    assert cache.policy.admission_threshold == MEASURED_PROFILE["io"]
    executor = SpatialQueryExecutor(cache=cache)
    kinds = predicate_kinds(Overlaps(), ir.relation.schema.column("shape").type)
    rng = random.Random(36)
    worth = 0
    for _ in range(150):
        x, y = rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)
        side = rng.choice((2.0, 20.0, 200.0))
        meter = CostMeter()
        admitted = cache.stats.admissions
        result = executor.select(
            ir.relation, "shape", Rect(x, y, x + side, y + side), Overlaps(),
            strategy="tree", meter=meter,
        )
        if meter.total() < C_IO:
            continue
        worth += 1
        work = metered_work(
            "tree", meter.snapshot(), kinds=kinds,
            rows=(len(ir.relation), 1), matches=len(result.matches),
        )
        assert seconds(work) >= MEASURED_PROFILE["io"]
        assert cache.stats.admissions == admitted + 1
    assert worth >= 50


def test_oversized_entry_is_refused_outright():
    policy = CachePolicy(byte_budget=1024, admission_threshold=0.0)
    assert not policy.admits(1e9, 2048)
    assert policy.admits(1e9, 512)


def test_policy_validation():
    with pytest.raises(JoinError):
        CachePolicy(byte_budget=0)
    with pytest.raises(JoinError):
        CachePolicy(admission_threshold=-1.0)
    with pytest.raises(JoinError):
        CachePolicy(eviction_window=0)


def test_byte_budget_evicts_down_to_budget(workload):
    ir_r, _ = workload
    # Entries of this workload measure ~6-9 KiB each (see
    # estimate_select_bytes); 20 KiB fits two and overflow is certain by
    # the third admission.
    budget = 20_000
    executor, cache = make_executor(workload, byte_budget=budget)
    for i in range(6):
        window = Rect(50.0 * i, 50.0 * i, 50.0 * i + 300.0, 50.0 * i + 300.0)
        executor.select(ir_r.relation, "shape", window, Overlaps(),
                        strategy="tree")
    assert cache.total_bytes <= budget
    assert cache.stats.evictions >= 1
    assert len(cache) >= 1


def test_eviction_prefers_cheap_lru_entries():
    cache = QueryCache(CachePolicy(byte_budget=4096, admission_threshold=0.0))
    ir = build_indexed_relation(30, seed=5)
    from repro.join.result import SelectResult

    # Three manual admissions with controlled costs; entry
    # sizes are identical, so eviction order isolates the cost rule.
    for name, cost in (("a", 50.0), ("b", 5000.0), ("c", 70.0)):
        ok = cache.admit_select(
            ir.relation, "shape",
            Rect(float(ord(name)), 0.0, float(ord(name)) + 1.0, 1.0),
            Overlaps(), strategy="tree", order="bfs",
            result=SelectResult(strategy="tree"), candidates=[],
            measured_cost=cost,
        )
        assert ok
    # Force overflow with a fourth entry: the LRU window holds all
    # three, the cheapest ("a") must lose first.
    cache.policy = CachePolicy(byte_budget=3 * 512, admission_threshold=0.0)
    cache.admit_select(
        ir.relation, "shape", Rect(200.0, 0.0, 201.0, 1.0), Overlaps(),
        strategy="tree", order="bfs",
        result=SelectResult(strategy="tree"), candidates=[],
        measured_cost=9000.0,
    )
    kept = {e.query.xmin for e in cache.entries()}
    assert float(ord("a")) not in kept
    assert float(ord("b")) in kept


def test_clear_counts_evictions(workload):
    ir_r, _ = workload
    executor, cache = make_executor(workload)
    executor.select(ir_r.relation, "shape", QUERY, Overlaps(), strategy="tree")
    assert cache.clear() == 1
    assert len(cache) == 0
    assert cache.stats.evictions == 1


# ----------------------------------------------------------------------
# Observability plumbing
# ----------------------------------------------------------------------

def test_metrics_and_describe(workload):
    ir_r, _ = workload
    cache = QueryCache(CachePolicy(admission_threshold=0.0))
    registry = MetricsRegistry()
    executor = SpatialQueryExecutor(
        memory_pages=4000, metrics=registry, cache=cache
    )
    executor.select(ir_r.relation, "shape", QUERY, Overlaps(), strategy="tree")
    executor.select(ir_r.relation, "shape", QUERY, Overlaps(), strategy="tree")
    # The cache's own counters are the one store; the registry holds no copy.
    assert cache.snapshot() == {
        **cache.stats.snapshot(), "entries": 1, "bytes": cache.total_bytes,
    }
    assert cache.stats.misses == cache.stats.admissions == 1
    assert "cache." not in registry.render()
    summary = cache.describe()
    assert "probes=2" in summary and "exact=1" in summary


def test_report_shows_cache_tier(workload):
    ir_r, ir_s = workload
    executor, cache = make_executor(workload)
    args = (ir_r.relation, "shape", ir_s.relation, "shape", Overlaps())
    _, cold_report = executor.execute_join(*args, strategy="tree")
    assert cold_report.cached is None
    _, warm_report = executor.execute_join(*args, strategy="tree")
    assert warm_report.cached == "exact"
    assert "served from cache (exact tier)" in warm_report.format()


def test_drift_skips_cached_runs(workload):
    from repro.core.optimizer import plan_join

    ir_r, ir_s = workload
    executor, _ = make_executor(workload)
    args = (ir_r.relation, "shape", ir_s.relation, "shape", Overlaps())
    plan = plan_join(*args, memory_pages=4000)
    _, cold = executor.execute_join(*args, strategy="tree", plan=plan)
    assert cold.drift is not None
    warm_plan = plan_join(*args, memory_pages=4000)
    assert warm_plan.predicted_seconds["tree"] > 0.0
    _, warm = executor.execute_join(*args, strategy="tree", plan=warm_plan)
    assert warm.cached == "exact"
    assert warm.drift is None


# ----------------------------------------------------------------------
# WAL recovery bumps the epoch
# ----------------------------------------------------------------------

def test_recovery_bumps_relation_epoch():
    from repro.relational.relation import Relation
    from repro.relational.schema import Column, ColumnType, Schema
    from repro.storage.buffer import BufferPool
    from repro.storage.disk import SimulatedDisk
    from repro.wal import WriteAheadLog, recover

    disk = SimulatedDisk()
    meter = CostMeter()
    pool = BufferPool(disk, 256, meter)
    wal = WriteAheadLog(disk, meter)
    pool.wal = wal
    schema = Schema([Column("oid", ColumnType.INT)])
    rel = Relation("objects", schema, pool, wal=wal)
    for i in range(5):
        rel.insert([i])
    pool.flush_all()

    relations, report = recover(disk)
    recovered = relations["objects"]
    assert len(recovered) == 5
    # Replay performed 5 inserts; the final epoch bump moves the count
    # strictly past the replayed mutation history, so any pre-crash
    # snapshot at epoch <= 5 reads as stale.
    assert recovered.modification_count == 6
