"""The cache must not change what an uncached engine does or charges.

Mirror of ``tests/obs/test_instrumentation_pinned.py`` for the query
cache.  Three claims:

1. with no cache attached (the default), every strategy's metered
   behaviour on the pinned workload matches the pre-PR baselines byte
   for byte -- the cacheless dispatch path really is untouched;
2. with a cache attached, the *cold* (miss) run charges the identical
   pinned five-signature -- probing and admitting are free in the
   paper's cost categories (the tree-select candidate collection may
   add buffer *hits*, which Table 3 prices at zero);
3. cache counters stay out of ``total()`` and ``durability_ios`` -- a
   warm hit reads as zero engine cost, not as negative drift or a
   durability surcharge.

If a legitimate engine change shifts these numbers, re-pin them in the
same commit and say why in the message.
"""

import pytest

from repro.cache import CachePolicy, QueryCache
from repro.core.executor import SpatialQueryExecutor
from repro.geometry import Rect
from repro.predicates.theta import Overlaps
from repro.storage.costs import CostMeter
from repro.workloads.assembly import build_indexed_relation

QUERY = Rect(100.0, 100.0, 400.0, 420.0)

#: label -> (matches, page_reads, page_writes, filter_evals, exact_evals)
#: Same table as tests/obs/test_instrumentation_pinned.py -- the cache
#: PR must not move a single number.
PINNED = {
    "join:scan": (25, 44, 0, 0, 12000),
    "join:tree": (25, 44, 0, 981, 25),
    "join:tree-dfs": (25, 44, 0, 981, 25),
    "join:zorder": (25, 44, 0, 208, 27),
    "join:partition": (25, 44, 0, 232, 25),
    "join:join-index": (25, 1, 0, 0, 0),
    "join:index-nl": (25, 44, 0, 1851, 25),
    "select:tree": (10, 20, 0, 48, 10),
    "select:tree-dfs": (10, 20, 0, 48, 10),
    "select:scan": (10, 24, 0, 0, 120),
}


@pytest.fixture
def workload():
    """A pair nothing has read yet, per test: a partition join that finds
    its operands' column snapshots retained (DESIGN.md, "Epochs and
    derived state") charges buffer hits where the pinned cold run charges
    page reads, so no case may inherit relations from another."""
    ir_r = build_indexed_relation(120, seed=11, max_extent=40.0)
    ir_s = build_indexed_relation(100, seed=12, max_extent=40.0)
    return ir_r, ir_s


def _run(label, workload, executor):
    ir_r, ir_s = workload
    kind, _, spec = label.partition(":")
    strategy, order = spec, "bfs"
    if spec.endswith("-dfs"):
        strategy, order = spec[: -len("-dfs")], "dfs"
    meter = CostMeter()
    if kind == "select":
        result = executor.select(
            ir_r.relation, "shape", QUERY, Overlaps(),
            strategy=strategy, order=order, meter=meter,
        )
        return len(result.matches), meter
    if strategy == "join-index":
        executor.precompute_join_index(
            ir_r.relation, ir_s.relation, "shape", "shape", Overlaps()
        )
    result = executor.join(
        ir_r.relation, "shape", ir_s.relation, "shape", Overlaps(),
        strategy=strategy, order=order, meter=meter,
    )
    return len(result.pairs), meter


def _signature(matches, meter):
    return (
        matches,
        meter.page_reads,
        meter.page_writes,
        meter.theta_filter_evals,
        meter.theta_exact_evals,
    )


@pytest.mark.parametrize("label", sorted(PINNED))
def test_cache_absent_counts_match_baseline(label, workload):
    executor = SpatialQueryExecutor(memory_pages=4000)
    matches, meter = _run(label, workload, executor)
    assert _signature(matches, meter) == PINNED[label], label
    assert meter.cache_probes == 0 and meter.cache_hits == 0


@pytest.mark.parametrize("label", sorted(PINNED))
def test_cache_cold_run_preserves_pinned_signature(label, workload):
    executor = SpatialQueryExecutor(
        memory_pages=4000,
        cache=QueryCache(CachePolicy(admission_threshold=0.0)),
    )
    matches, meter = _run(label, workload, executor)
    assert _signature(matches, meter) == PINNED[label], label
    # The probe happened and missed; probing is charge-free.
    assert meter.cache_probes == 1 and meter.cache_hits == 0


@pytest.mark.parametrize("label", sorted(PINNED))
def test_warm_hit_charges_nothing(label, workload):
    executor = SpatialQueryExecutor(
        memory_pages=4000,
        cache=QueryCache(CachePolicy(admission_threshold=0.0)),
    )
    matches_cold, _ = _run(label, workload, executor)
    matches_warm, meter = _run(label, workload, executor)
    assert matches_warm == matches_cold, label
    assert meter.cache_probes == 1 and meter.cache_hits == 1, label
    # A warm exact hit costs nothing in every paper category.
    assert meter.total() == 0.0, label
    assert meter.page_reads == 0 and meter.page_writes == 0, label
    assert meter.durability_ios == 0, label


def test_cache_counters_stay_out_of_cost_categories():
    meter = CostMeter()
    meter.record_cache_probe(7)
    meter.record_cache_hit(3)
    assert meter.total() == 0.0
    assert meter.io_operations == 0
    assert meter.durability_ios == 0
    snap = meter.snapshot()
    assert snap["cache_probes"] == 7 and snap["cache_hits"] == 3
    assert snap["total"] == 0.0
