"""The tile sweep's report, stats and cancellation boundary.

Crash recovery for partitioned joins is the shard supervisor's (see
``tests/shard``); what is left to check here is that ``run_partitions``
says how it ran and stops at a group boundary when its token fires.
"""

import pytest

from repro.parallel import plane_sweep
from repro.parallel.join import partition_join
from repro.parallel.partitioner import GridSpec, partition_pair
from repro.parallel.pool import PoolReport, run_partitions
from repro.predicates.theta import Overlaps
from repro.relational.columns import data_universe, extract_columns

from tests.join.conftest import make_rect_relation


def build_tasks(n=80):
    columns_r, columns_s = (
        extract_columns(make_rect_relation(name, n, seed=seed), "shape")
        for name, seed in (("r", 11), ("s", 12))
    )
    spec = GridSpec(data_universe(columns_r, columns_s), 4, 4)
    return partition_pair(columns_r, columns_s, spec), spec


class TestSequentialRecovery:
    def test_report_shape_on_clean_run(self):
        tasks, spec = build_tasks()
        pairs, meter, report = run_partitions(tasks, spec, Overlaps(), workers=3)
        assert pairs == sorted(pairs) and pairs
        assert isinstance(report, PoolReport)
        assert (report.requested_workers, report.effective_workers) == (3, 1)
        assert meter.theta_filter_evals > 0


class TestPartitionJoinIntegration:
    def test_stats_report_requested_and_effective_workers(self):
        rel_r = make_rect_relation("r", 100, seed=21)
        rel_s = make_rect_relation("s", 100, seed=22)
        res = partition_join(rel_r, rel_s, "shape", "shape", Overlaps(), workers=2)
        assert res.stats["requested_workers"] == 2
        assert res.stats["workers"] == 1
        clean = partition_join(rel_r, rel_s, "shape", "shape", Overlaps())
        assert res.pairs == clean.pairs


class TestTileCancellation:
    """The token is checked before every group of tiles (regression: one
    worker used to mean one chunk, so a deadline was looked at once
    before the whole sweep).  A group cannot hold more than ``BLOCK``
    candidates, so that is how far a sweep walks between checks."""

    def _expiring_token(self):
        """Deterministic token: alive on its first check, expired on the
        second.  Each clock call advances virtual time by 1.5s against a
        2.0s deadline, so no wall-clock sleeping or racing is involved."""
        from repro.core.cancel import CancellationToken

        state = {"now": 0.0}

        def clock() -> float:
            state["now"] += 1.5
            return state["now"]

        return CancellationToken(deadline=2.0, clock=clock)

    def test_expired_token_stops_at_the_next_group(self, monkeypatch):
        from repro.errors import QueryCancelled

        import repro.parallel.pool as pool_mod

        tasks, spec = build_tasks()
        # Tiles of this workload bound ~50 candidates each: a few a group.
        monkeypatch.setattr(plane_sweep, "BLOCK", 128)
        groups = list(plane_sweep.task_groups(tasks))
        assert len(groups) > 2 and len(groups[0]) > 1
        assert [t.key for g in groups for t in g] == [t.key for t in tasks]
        swept = []
        real_sweep = pool_mod.sweep_task

        def counting_sweep(grid, group, *args):
            swept.append([task.key for task in group])
            return real_sweep(grid, group, *args)

        monkeypatch.setattr(pool_mod, "sweep_task", counting_sweep)
        token = self._expiring_token()
        with pytest.raises(QueryCancelled):
            run_partitions(tasks, spec, Overlaps(), cancel=token)
        # The first group ran; the check before the second one fired, and
        # the raise leaves the caller with no (partial) pair list.
        assert swept == [[task.key for task in groups[0]]]
        assert token.cancelled

    def test_live_token_lets_the_sweep_complete(self):
        from repro.core.cancel import CancellationToken

        tasks, spec = build_tasks()
        clean_pairs, _, _ = run_partitions(tasks, spec, Overlaps())
        pairs, _, _ = run_partitions(
            tasks, spec, Overlaps(), cancel=CancellationToken(),
        )
        assert pairs == clean_pairs
