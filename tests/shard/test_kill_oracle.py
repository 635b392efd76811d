"""Differential chaos oracle: a shard kill at *every* dispatch boundary.

The strongest robustness claim of the shard runtime is all-or-nothing:
whatever the crash timing, a distributed query either returns results
byte-identical to the unsharded oracle (failover absorbed the crash) or
raises a typed :class:`ShardUnavailable` -- never a silent partial
answer.  These tests enumerate every dispatch index of a small fixed
workload, inject a kill exactly there, and check the dichotomy, across
the acceptance seeds 1, 7 and 42.
"""

from __future__ import annotations

import pytest

from repro.errors import ShardUnavailable
from repro.faults import FaultPlan
from repro.geometry.rect import Rect
from repro.predicates.theta import Overlaps
from repro.shard import ShardRouter

from tests import oracle
from tests.shard.conftest import loaded_runtime

WINDOW = Rect(10.0, 10.0, 45.0, 45.0)
SIZE = 30
SEEDS = (1, 7, 42)


def run_workload(fault_plan=None, retries=2):
    """Load both relations, join, select; returns results + runtime facts."""
    runtime, rel_r, rel_s = loaded_runtime(
        3, size=SIZE, fault_plan=fault_plan
    )
    with runtime:
        router = ShardRouter(runtime, retries=retries)
        join = router.join("r", "s", Overlaps())
        select = router.select("r", WINDOW, Overlaps(), with_payloads=False)
        return {
            "pairs": join.pairs,
            "tids": [t for t, _ in select.matches],
            "dispatches": runtime.status()["dispatches"],
            "restarts": sum(s.restarts for s in runtime.shards),
            "oracle_pairs": oracle.pairs(rel_r, "shape", rel_s, "shape", Overlaps()),
            "oracle_tids": oracle.tids(rel_r, "shape", WINDOW, Overlaps()),
        }


@pytest.fixture(scope="module")
def clean():
    baseline = run_workload()
    assert baseline["pairs"] == baseline["oracle_pairs"]
    assert baseline["tids"] == baseline["oracle_tids"]
    assert baseline["restarts"] == 0
    assert baseline["pairs"] and baseline["tids"]
    return baseline


@pytest.mark.parametrize("seed", SEEDS)
def test_kill_at_every_dispatch_boundary_is_absorbed(seed, clean):
    """With failover enabled, every kill timing yields identical results,
    and each injected kill is metered as exactly one restart."""
    for index in range(clean["dispatches"]):
        plan = FaultPlan(seed=seed, kill_shard_at={index: -1})
        result = run_workload(fault_plan=plan)
        context = f"seed={seed} kill_at={index}"
        assert result["pairs"] == clean["oracle_pairs"], context
        assert result["tids"] == clean["oracle_tids"], context
        summary = plan.summary()
        assert summary["consumed"] == summary["injected"] == 1, context
        assert result["restarts"] == 1, context


@pytest.mark.parametrize("seed", SEEDS)
def test_kill_without_failover_is_typed_or_identical(seed, clean):
    """retries=0: a kill during a query dispatch surfaces as a typed
    ShardUnavailable (mutation-phase kills still self-heal -- the
    durable write already committed).  Partial answers never escape."""
    unavailable = 0
    for index in range(clean["dispatches"]):
        plan = FaultPlan(seed=seed, kill_shard_at={index: -1})
        try:
            result = run_workload(fault_plan=plan, retries=0)
        except ShardUnavailable as exc:
            unavailable += 1
            assert exc.retryable
            assert 0 <= exc.shard_id < 3
            assert exc.attempts == 1
        else:
            context = f"seed={seed} kill_at={index}"
            assert result["pairs"] == clean["oracle_pairs"], context
            assert result["tids"] == clean["oracle_tids"], context
    # The workload's query phase has at least one dispatch, so the
    # no-failover sweep must have hit the typed error at least once.
    assert unavailable > 0


def test_double_kill_same_query_exhausts_bounded_retries(clean):
    """Kill the same shard's replacement too: two crashes against one
    retry budget must surface as ShardUnavailable, not loop forever."""
    survived = 0
    for index in range(clean["dispatches"]):
        plan = FaultPlan(
            seed=7, kill_shard_at={index: -1, index + 1: -1}
        )
        try:
            result = run_workload(fault_plan=plan, retries=1)
        except ShardUnavailable:
            continue
        survived += 1
        assert result["pairs"] == clean["oracle_pairs"]
        assert result["tids"] == clean["oracle_tids"]
    assert survived > 0
