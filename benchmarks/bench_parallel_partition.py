"""The partition plane-sweep join: granularity and rivals.

Two questions, answered empirically on uniform rectangle workloads
(wall-clock at scale is ``perf/``'s ``join_mbr_uniform``):

1. *Granularity* -- how the tile count moves sweep work (filter evals)
   and the replication overhead.
2. *Rivals* -- the same join via Algorithm JOIN over the R-trees and
   the z-order merge; all three must return the identical pair set.

``BENCH_PARTITION_COUNT`` overrides the per-relation cardinality (the
smoke suite sets it tiny; the full run defaults to 10,000 x 10,000).
"""

import os
import time

import pytest

from benchmarks.artifacts import emit_bench_artifact
from repro.geometry import Rect
from repro.join.tree_join import tree_join
from repro.join.zorder_merge import zorder_merge_join
from repro.parallel import partition_join
from repro.predicates.theta import Overlaps
from repro.storage.costs import CostMeter
from repro.workloads.assembly import build_indexed_relation

UNIVERSE = Rect(0, 0, 1024, 1024)
COUNT = int(os.environ.get("BENCH_PARTITION_COUNT", "10000"))
GRID_SWEEP = (1, 4, 16, 48)


@pytest.fixture(scope="module")
def relations():
    ir_r = build_indexed_relation(COUNT, universe=UNIVERSE, seed=701, max_extent=8)
    ir_s = build_indexed_relation(COUNT, universe=UNIVERSE, seed=702, max_extent=8)
    return ir_r, ir_s


def timed_partition_join(rel_r, rel_s, **kwargs):
    meter = CostMeter()
    start = time.perf_counter()
    result = partition_join(
        rel_r, rel_s, "shape", "shape", Overlaps(), meter=meter, **kwargs
    )
    return result, time.perf_counter() - start, meter


def test_grid_granularity(benchmark, relations):
    ir_r, ir_s = relations
    reference = None
    rows = []
    for n in GRID_SWEEP:
        result, elapsed, meter = timed_partition_join(
            ir_r.relation, ir_s.relation, grid=n
        )
        rows.append((n, result.stats["partitions"], meter.theta_filter_evals,
                     elapsed))
        if reference is None:
            reference = result.pair_set()
        else:
            assert result.pair_set() == reference

    # The workload-fitted default grid, once more under the benchmark timer.
    fitted, _, fitted_meter = benchmark.pedantic(
        timed_partition_join,
        args=(ir_r.relation, ir_s.relation),
        rounds=1, iterations=1,
    )
    assert fitted.pair_set() == reference

    print(f"\n{'grid':>6}{'tiles':>8}{'filter evals':>14}{'seconds':>10}")
    for n, tiles, evals, elapsed in rows:
        print(f"{n:>6}{tiles:>8}{evals:>14}{elapsed:>10.3f}")
    print(f"fitted {fitted.stats['grid_nx']}x{fitted.stats['grid_ny']}: "
          f"{fitted_meter.theta_filter_evals} filter evals")
    emit_bench_artifact("bench_parallel_partition", "grid_granularity", {
        "count": COUNT,
        "rows": [
            {"grid": n, "tiles": t, "filter_evals": evals, "seconds": s}
            for n, t, evals, s in rows
        ],
        "fitted_meter": fitted_meter.snapshot(),
    })

    # Finer grids prune: a 16x16 grid must do fewer filter evaluations
    # than the single-tile sweep (strictly fewer once the workload is
    # big enough to produce any candidates at all).
    single = rows[0][2]
    finer = dict((n, evals) for n, _, evals, _ in rows)[16]
    assert finer <= single
    if single > 100:
        assert finer < single


def test_against_rival_strategies(benchmark, relations):
    ir_r, ir_s = relations

    part, part_s, part_meter = benchmark.pedantic(
        timed_partition_join,
        args=(ir_r.relation, ir_s.relation),
        rounds=1, iterations=1,
    )

    start = time.perf_counter()
    tree = tree_join(ir_r.tree, ir_s.tree, Overlaps(), meter=CostMeter())
    tree_s = time.perf_counter() - start

    start = time.perf_counter()
    zorder = zorder_merge_join(
        ir_r.relation, ir_s.relation, "shape", "shape",
        universe=UNIVERSE, max_level=7, meter=CostMeter(),
    )
    zorder_s = time.perf_counter() - start

    assert tree.pair_set() == part.pair_set()
    assert zorder.pair_set() == part.pair_set()

    print(f"\n{len(part.pairs)} matches on {COUNT} x {COUNT} rects")
    print(f"{'strategy':<18}{'seconds':>10}{'pred evals':>12}")
    print(f"{'partition-sweep':<18}{part_s:>10.3f}"
          f"{part_meter.predicate_evaluations:>12}")
    print(f"{'tree-join':<18}{tree_s:>10.3f}{'':>12}")
    print(f"{'zorder-merge':<18}{zorder_s:>10.3f}{'':>12}")
