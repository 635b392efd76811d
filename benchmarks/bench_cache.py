"""Query-result cache on a HI-LOC repeated-window workload.

The paper's HI-LOC regime (Figures 10/13) is the cache's home turf:
high locality of reference means the same hot windows and the same join
are issued over and over.  This bench replays such a workload twice --
through an uncached executor and through a cache-wrapped one -- and
measures the metered cost (Table 3 units) of each:

1. *Hot selections* -- a fixed set of hot windows queried for several
   rounds, with shrunken variants riding the containment tier.  The
   cached replay must cost at least ``BENCH_CACHE_SPEEDUP`` (default
   5x) less than the uncached one, and every warm exact hit must read
   zero pages.
2. *Repeated join* -- the same tree join issued round after round; same
   speedup bound, and the warm rounds must be free.

``BENCH_CACHE_COUNT`` overrides the per-relation cardinality (the smoke
suite sets it tiny; the full run defaults to 2,000 x 2,000).
"""

import os

import pytest

from benchmarks.artifacts import build_clustered_relation, emit_bench_artifact
from repro.cache import QueryCache
from repro.core.executor import SpatialQueryExecutor
from repro.geometry import Rect
from repro.predicates.theta import Overlaps
from repro.storage.costs import CostMeter

COUNT = int(os.environ.get("BENCH_CACHE_COUNT", "2000"))
SPEEDUP = float(os.environ.get("BENCH_CACHE_SPEEDUP", "5.0"))
ROUNDS = 8

#: The hot set: windows over the clustered universe, each with a
#: shrunken variant that exercises the containment tier on warm rounds.
HOT_WINDOWS = [
    Rect(80.0, 80.0, 380.0, 380.0),
    Rect(500.0, 120.0, 820.0, 400.0),
    Rect(150.0, 550.0, 460.0, 900.0),
    Rect(560.0, 540.0, 920.0, 880.0),
]
SHRUNKEN = [
    Rect(w.xmin + 60.0, w.ymin + 60.0, w.xmax - 60.0, w.ymax - 60.0)
    for w in HOT_WINDOWS
]


@pytest.fixture(scope="module")
def relations():
    return (
        build_clustered_relation("r", COUNT, seed=901, clusters=12, max_width=12.0),
        build_clustered_relation("s", COUNT, seed=902, clusters=12, max_width=12.0),
    )


def run_select_rounds(executor, rel):
    """Replay the hot-window script; returns (total cost, answer sizes,
    per-round page reads)."""
    total = 0.0
    answers = []
    round_reads = []
    for _round in range(ROUNDS):
        reads = 0
        for window in HOT_WINDOWS + SHRUNKEN:
            meter = CostMeter()
            res = executor.select(rel, "shape", window, Overlaps(),
                                  strategy="tree", meter=meter)
            total += meter.total()
            reads += meter.page_reads
            answers.append(len(res.matches))
        round_reads.append(reads)
    return total, answers, round_reads


@pytest.mark.smoke
def test_hot_window_selects(benchmark, relations):
    rel, _ = relations

    uncached_total, uncached_answers, _ = run_select_rounds(
        SpatialQueryExecutor(memory_pages=4000), rel
    )

    cache = QueryCache()
    cached_exec = SpatialQueryExecutor(memory_pages=4000, cache=cache)
    cached_total, cached_answers, round_reads = benchmark.pedantic(
        run_select_rounds, args=(cached_exec, rel), rounds=1, iterations=1
    )

    # Same answers, query for query.
    assert cached_answers == uncached_answers
    # Every warm round is exact-tier: zero page reads after round one.
    assert all(r == 0 for r in round_reads[1:]), round_reads
    reduction = uncached_total / max(cached_total, 1e-9)

    print(f"\nHI-LOC hot windows: {COUNT} rects, {ROUNDS} rounds x "
          f"{len(HOT_WINDOWS + SHRUNKEN)} windows")
    print(f"uncached total {uncached_total:,.0f}  cached total "
          f"{cached_total:,.0f}  reduction {reduction:.1f}x")
    print(cache.describe())
    emit_bench_artifact("bench_cache", "hot_window_selects", {
        "count": COUNT,
        "rounds": ROUNDS,
        "uncached_total": uncached_total,
        "cached_total": cached_total,
        "reduction": reduction,
        "cache": cache.stats.snapshot(),
    })

    assert cache.stats.exact_hits > 0
    assert cache.stats.containment_hits > 0
    assert reduction >= SPEEDUP, (
        f"cached replay only {reduction:.1f}x cheaper (need {SPEEDUP:.0f}x)"
    )


def run_join_rounds(executor, rel_r, rel_s):
    total = 0.0
    sizes = []
    round_reads = []
    for _round in range(ROUNDS):
        meter = CostMeter()
        res = executor.join(rel_r, "shape", rel_s, "shape", Overlaps(),
                            strategy="tree", meter=meter)
        total += meter.total()
        sizes.append(len(res.pairs))
        round_reads.append(meter.page_reads)
    return total, sizes, round_reads


@pytest.mark.smoke
def test_repeated_join(benchmark, relations):
    rel_r, rel_s = relations

    uncached_total, uncached_sizes, _ = run_join_rounds(
        SpatialQueryExecutor(memory_pages=4000), rel_r, rel_s
    )

    cache = QueryCache()
    cached_exec = SpatialQueryExecutor(memory_pages=4000, cache=cache)
    cached_total, cached_sizes, round_reads = benchmark.pedantic(
        run_join_rounds, args=(cached_exec, rel_r, rel_s),
        rounds=1, iterations=1,
    )

    assert cached_sizes == uncached_sizes
    assert all(r == 0 for r in round_reads[1:]), round_reads
    reduction = uncached_total / max(cached_total, 1e-9)

    print(f"\nHI-LOC repeated join: {COUNT} x {COUNT} rects, {ROUNDS} rounds, "
          f"{uncached_sizes[0]} pairs")
    print(f"uncached total {uncached_total:,.0f}  cached total "
          f"{cached_total:,.0f}  reduction {reduction:.1f}x")
    print(cache.describe())
    emit_bench_artifact("bench_cache", "repeated_join", {
        "count": COUNT,
        "rounds": ROUNDS,
        "pairs": uncached_sizes[0],
        "uncached_total": uncached_total,
        "cached_total": cached_total,
        "reduction": reduction,
        "cache": cache.stats.snapshot(),
    })

    assert cache.stats.exact_hits == ROUNDS - 1
    assert reduction >= SPEEDUP, (
        f"cached replay only {reduction:.1f}x cheaper (need {SPEEDUP:.0f}x)"
    )
