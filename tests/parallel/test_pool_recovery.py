"""Worker pool failure recovery: crashed chunks re-run sequentially."""

import multiprocessing
import time

import pytest

from repro.faults import FaultPlan
from repro.parallel.join import partition_join
from repro.parallel.partitioner import GridSpec, partition_pair
from repro.parallel.pool import PoolReport, run_partitions
from repro.predicates.theta import Overlaps
from repro.storage.costs import CostMeter

from tests.join.conftest import make_rect_relation


@pytest.fixture(autouse=True)
def no_leaked_children():
    """Every pool path must reap its workers before returning.

    ``active_children()`` also joins finished processes, so lingering
    (but exited) workers from a previous test do not count; anything
    still alive shortly after the test body ran is a leak.
    """
    multiprocessing.active_children()
    yield
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


def build_tasks(n=80):
    rel_r = make_rect_relation("r", n, seed=11)
    rel_s = make_rect_relation("s", n, seed=12)
    entries = {}
    for name, rel in (("r", rel_r), ("s", rel_s)):
        out = []
        for pid in rel.page_ids:
            page = rel.buffer_pool.fetch(pid)
            for slot, record in enumerate(page.slots):
                if record is None:
                    continue
                geom = record["shape"]
                from repro.storage.record import RecordId

                out.append((RecordId(pid, slot), geom.mbr(), geom))
        entries[name] = out
    mbrs = [e[1] for e in entries["r"]] + [e[1] for e in entries["s"]]
    from repro.geometry.rect import Rect

    spec = GridSpec(Rect.union_of(mbrs), 4, 4)
    return partition_pair(entries["r"], entries["s"], spec), spec


class TestSequentialRecovery:
    def test_injected_crash_recovered_in_sequential_mode(self):
        tasks, spec = build_tasks()
        clean_pairs, _, _ = run_partitions(tasks, spec, Overlaps(), workers=1)

        plan = FaultPlan(seed=0, worker_crashes={0})
        pairs, meter, report = run_partitions(
            tasks, spec, Overlaps(), workers=1, fault_plan=plan
        )
        assert sorted(pairs) == sorted(clean_pairs)
        assert report.retried_chunks == 1
        assert report.recoveries[0].chunk == 0
        assert "injected crash" in report.recoveries[0].cause
        assert plan.summary() == {"injected": 1, "consumed": 1, "outstanding": 0}

    def test_report_shape_on_clean_run(self):
        tasks, spec = build_tasks()
        pairs, meter, report = run_partitions(tasks, spec, Overlaps(), workers=1)
        assert isinstance(report, PoolReport)
        assert report.effective_workers == 1
        assert report.degrade_reason is None
        assert report.retried_chunks == 0
        assert not report.degraded


class TestParallelRecovery:
    def test_crashed_chunk_reexecuted_with_identical_results(self):
        tasks, spec = build_tasks()
        clean_pairs, clean_meter, _ = run_partitions(
            tasks, spec, Overlaps(), workers=1
        )

        plan = FaultPlan(seed=0, worker_crashes={0, 1})
        pairs, meter, report = run_partitions(
            tasks, spec, Overlaps(), workers=3, fault_plan=plan
        )
        assert sorted(pairs) == sorted(clean_pairs)
        assert report.retried_chunks == 2
        assert {r.chunk for r in report.recoveries} == {0, 1}
        assert all(r.recovered for r in report.recoveries)
        # The merged meter covers every tile exactly once: recovery does
        # not double-count the crashed chunk's successful re-run.
        assert meter.theta_filter_evals == clean_meter.theta_filter_evals

    def test_all_chunks_crashing_still_completes(self):
        tasks, spec = build_tasks()
        clean_pairs, _, _ = run_partitions(tasks, spec, Overlaps(), workers=1)
        plan = FaultPlan(seed=0, worker_crashes={0, 1, 2, 3})
        pairs, _, report = run_partitions(
            tasks, spec, Overlaps(), workers=4, fault_plan=plan
        )
        assert sorted(pairs) == sorted(clean_pairs)
        assert report.retried_chunks == len(report.recoveries) >= 1


class TestTimeoutRecovery:
    def test_timed_out_chunks_recovered_and_pool_reaped(self, monkeypatch):
        """A chunk stuck past its timeout is re-run in the parent.

        The stall is injected into the *workers only* (pool workers are
        daemonic; the parent is not), so the sequential recovery pass
        stays fast.  The ``no_leaked_children`` fixture then proves the
        terminate path reaped the stalled workers.
        """
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the injected stall reaches workers via fork only")
        tasks, spec = build_tasks(n=20)
        clean_pairs, _, _ = run_partitions(tasks, spec, Overlaps(), workers=1)

        import repro.parallel.pool as pool_mod

        real_sweep = pool_mod.sweep_task

        def stalling_sweep(*args, **kwargs):
            if multiprocessing.current_process().daemon:
                time.sleep(60.0)
            return real_sweep(*args, **kwargs)

        monkeypatch.setattr(pool_mod, "sweep_task", stalling_sweep)
        pairs, _, report = run_partitions(
            tasks, spec, Overlaps(), workers=2, chunk_timeout=0.2
        )
        assert sorted(pairs) == sorted(clean_pairs)
        if not report.degraded:
            assert report.retried_chunks >= 1
            assert all("timeout" in r.cause for r in report.recoveries)


class TestPartitionJoinIntegration:
    def _relations(self):
        import random

        from repro.faults import FaultyDisk
        from repro.geometry.rect import Rect
        from repro.relational.relation import Relation
        from repro.storage.buffer import BufferPool

        from tests.join.conftest import RECT_SCHEMA

        plan = FaultPlan(seed=5, worker_crashes={0})
        disk = FaultyDisk(plan)
        pool = BufferPool(disk, capacity=4000, meter=CostMeter())
        rels = []
        for name, seed in (("r", 21), ("s", 22)):
            rel = Relation(name, RECT_SCHEMA, pool)
            rng = random.Random(seed)
            for i in range(100):
                x, y = rng.uniform(0, 100), rng.uniform(0, 100)
                rel.insert(
                    [i, Rect(x, y, x + rng.uniform(0, 8), y + rng.uniform(0, 8))]
                )
            rels.append(rel)
        return rels[0], rels[1], plan

    def test_stats_surface_recovery(self):
        rel_r, rel_s, plan = self._relations()
        meter = CostMeter()
        res = partition_join(
            rel_r, rel_s, "shape", "shape", Overlaps(),
            workers=2, meter=meter, fault_plan=plan,
        )
        assert res.stats["chunk_retries"] == 1
        assert any("chunk 0" in line for line in res.stats["recovered_chunks"])
        # Same pair set as a clean single-worker run.
        clean = partition_join(rel_r, rel_s, "shape", "shape", Overlaps())
        assert res.pair_set() == clean.pair_set()

    def test_stats_report_requested_and_effective_workers(self):
        rel_r, rel_s, _ = self._relations()
        res = partition_join(rel_r, rel_s, "shape", "shape", Overlaps(), workers=2)
        assert res.stats["requested_workers"] == 2
        assert res.stats["workers"] >= 1
        assert res.stats["chunk_retries"] == 0
        # Degrade, if it happened, must carry a reason.
        if res.stats["workers"] == 1:
            assert "degrade_reason" in res.stats


class TestRecoveryCancellation:
    """The recovery pass honours the cancellation token (regression).

    A worker crash used to jump straight into the sequential re-run even
    when the query's deadline had expired while the crashed attempt ran
    -- an expired query must not finish the recovery pass.
    """

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

    def test_expired_token_stops_the_recovery_pass(self):
        from repro.errors import QueryCancelled

        tasks, spec = build_tasks()
        plan = FaultPlan(seed=0, worker_crashes={0})
        token = self._expiring_token()
        with pytest.raises(QueryCancelled):
            run_partitions(
                tasks, spec, Overlaps(), workers=1,
                fault_plan=plan, cancel=token,
            )
        # The crash was injected, but its recovery must not have been
        # recorded as completed work.
        assert token.cancelled

    def test_live_token_lets_recovery_complete(self):
        from repro.core.cancel import CancellationToken

        tasks, spec = build_tasks()
        clean_pairs, _, _ = run_partitions(tasks, spec, Overlaps(), workers=1)
        plan = FaultPlan(seed=0, worker_crashes={0})
        pairs, _, report = run_partitions(
            tasks, spec, Overlaps(), workers=1,
            fault_plan=plan, cancel=CancellationToken(),
        )
        assert sorted(pairs) == sorted(clean_pairs)
        assert report.retried_chunks == 1
