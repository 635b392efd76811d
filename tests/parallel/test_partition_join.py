"""End-to-end tests for :func:`partition_join` and its executor wiring.

The acceptance bar for the subsystem: on randomized overlap-join
workloads the partition strategy returns a pair set *identical* to the
nested loop's, and its pair list contains no duplicates even though no
dedup pass exists anywhere in the pipeline.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executor import SpatialQueryExecutor
from repro.errors import BufferPoolError, JoinError
from repro.geometry.rect import Rect
from repro.parallel import partition_join
from repro.parallel.partitioner import GridSpec
from repro.predicates.theta import NorthwestOf, Overlaps
from repro.relational.relation import Relation
from repro.storage.buffer import BufferPool
from repro.storage.costs import CostMeter
from repro.storage.disk import SimulatedDisk

from tests import oracle
from tests.join.conftest import (
    RECT_SCHEMA,
    make_point_relation,
    make_rect_relation,
)


def fresh_rect_relation(name, count, seed, *, spread=100.0, extent=10.0):
    pool = BufferPool(SimulatedDisk(), capacity=4000, meter=CostMeter())
    rel = Relation(name, RECT_SCHEMA, pool)
    rng = random.Random(seed)
    for i in range(count):
        x, y = rng.uniform(0, spread), rng.uniform(0, spread)
        rel.insert([i, Rect(x, y, x + rng.uniform(0, extent), y + rng.uniform(0, extent))])
    return rel


@given(
    n_r=st.integers(min_value=0, max_value=60),
    n_s=st.integers(min_value=0, max_value=60),
    seed=st.integers(min_value=0, max_value=10_000),
    grid=st.sampled_from([None, 1, 3, 6]),
)
@settings(max_examples=30, deadline=None)
def test_matches_nested_loop_on_random_workloads(n_r, n_s, seed, grid):
    rel_r = fresh_rect_relation("r", n_r, seed)
    rel_s = fresh_rect_relation("s", n_s, seed + 1)
    got = partition_join(rel_r, rel_s, "shape", "shape", Overlaps(), grid=grid)
    assert got.pairs == oracle.pairs(rel_r, "shape", rel_s, "shape", Overlaps())


class TestPartitionJoin:
    def test_worker_counts_agree_exactly(self):
        rel_r = fresh_rect_relation("r", 150, seed=11)
        rel_s = fresh_rect_relation("s", 150, seed=12)
        sequential = partition_join(
            rel_r, rel_s, "shape", "shape", Overlaps(), workers=1, grid=6
        )
        parallel = partition_join(
            rel_r, rel_s, "shape", "shape", Overlaps(), workers=3, grid=6
        )
        # Not just the same set: the same sorted list, deterministically.
        assert parallel.pairs == sequential.pairs

    def test_point_against_rect_relation(self):
        rel_r = fresh_rect_relation("r", 80, seed=13)
        rel_s = make_point_relation("s", 80, seed=14)
        res = partition_join(rel_r, rel_s, "shape", "loc", Overlaps())
        assert sorted(res.pair_set()) == oracle.pairs(rel_r, "shape", rel_s, "loc", Overlaps())

    def test_explicit_gridspec_and_universe(self):
        rel_r = fresh_rect_relation("r", 40, seed=15)
        rel_s = fresh_rect_relation("s", 40, seed=16)
        spec = GridSpec(Rect(0, 0, 120, 120), 5, 5)
        res = partition_join(rel_r, rel_s, "shape", "shape", Overlaps(), grid=spec)
        assert res.stats["grid_nx"] == 5 and res.stats["grid_ny"] == 5
        assert sorted(res.pair_set()) == oracle.pairs(
            rel_r, "shape", rel_s, "shape", Overlaps()
        )

    def test_stats_and_strategy(self):
        rel_r = fresh_rect_relation("r", 50, seed=17)
        rel_s = fresh_rect_relation("s", 50, seed=18)
        meter = CostMeter()
        res = partition_join(rel_r, rel_s, "shape", "shape", Overlaps(), meter=meter)
        assert res.strategy == "partition-sweep"
        for key in ("grid_nx", "grid_ny", "partitions", "workers", "page_reads"):
            assert key in res.stats
        # Each relation is read exactly once during extraction.
        assert meter.page_reads == rel_r.num_pages + rel_s.num_pages
        assert meter.theta_filter_evals >= meter.theta_exact_evals

    def test_collect_tuples(self):
        rel_r = fresh_rect_relation("r", 30, seed=19)
        rel_s = fresh_rect_relation("s", 30, seed=20)
        res = partition_join(
            rel_r, rel_s, "shape", "shape", Overlaps(), collect_tuples=True
        )
        assert len(res.tuples) == len(res.pairs)
        for (r_tid, s_tid), (r_rec, s_rec) in zip(res.pairs, res.tuples):
            assert r_rec.tid == r_tid and s_rec.tid == s_tid
            assert Overlaps()(r_rec["shape"], s_rec["shape"])

    def test_rejects_bad_arguments(self):
        rel_r = fresh_rect_relation("r", 5, seed=21)
        rel_s = fresh_rect_relation("s", 5, seed=22)
        with pytest.raises(JoinError):
            partition_join(rel_r, rel_s, "shape", "shape", Overlaps(), workers=0)
        with pytest.raises(BufferPoolError):
            partition_join(
                rel_r, rel_s, "shape", "shape", Overlaps(), memory_pages=10
            )

    def test_empty_relations(self):
        rel_r = fresh_rect_relation("r", 0, seed=23)
        rel_s = fresh_rect_relation("s", 0, seed=24)
        res = partition_join(rel_r, rel_s, "shape", "shape", Overlaps())
        assert res.pairs == []


class TestExecutorStrategy:
    def test_explicit_partition_strategy(self):
        executor = SpatialQueryExecutor(memory_pages=200, workers=2)
        rel_r = make_rect_relation("r", 60, seed=25)
        rel_s = make_rect_relation("s", 60, seed=26)
        res = executor.join(
            rel_r, "shape", rel_s, "shape", Overlaps(), strategy="partition"
        )
        assert res.strategy == "partition-sweep"
        assert sorted(res.pair_set()) == oracle.pairs(
            rel_r, "shape", rel_s, "shape", Overlaps()
        )

    def test_partition_rejects_non_overlap(self):
        executor = SpatialQueryExecutor(memory_pages=200)
        rel_r = make_rect_relation("r", 10, seed=27)
        rel_s = make_rect_relation("s", 10, seed=28)
        with pytest.raises(JoinError):
            executor.join(
                rel_r, "shape", rel_s, "shape", NorthwestOf(), strategy="partition"
            )

    def test_per_call_worker_override(self):
        executor = SpatialQueryExecutor(memory_pages=200, workers=1)
        rel_r = make_rect_relation("r", 60, seed=29)
        rel_s = make_rect_relation("s", 60, seed=30)
        res = executor.join(
            rel_r, "shape", rel_s, "shape", Overlaps(),
            strategy="partition", workers=2,
        )
        assert sorted(res.pair_set()) == oracle.pairs(
            rel_r, "shape", rel_s, "shape", Overlaps()
        )

    def test_workers_validated(self):
        with pytest.raises(JoinError):
            SpatialQueryExecutor(workers=0)
