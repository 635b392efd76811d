"""Cross-process trace grafting and the distributed conservation law.

The tentpole claim of the observability PR: a sharded query is ONE
trace tree.  A session handed a tracer opens a span over a fresh
per-query meter, the
router carries the minted :class:`TraceContext` in every dispatch, each
worker records remote spans and ships them back with its meter delta,
and the router grafts them under the session span while the dispatch
absorbs the delta into the query meter.  Consequences pinned here:

* exclusive per-span costs sum to the merged per-query meter exactly --
  across process boundaries, with or without a mid-join shard kill;
* the sharded tree's remote spans carry stable process-qualified uids
  (``shard2g1:0``) tagged with shard, generation and the request's
  trace id;
* a killed dispatch contributes no spans and no delta; the re-dispatch
  after failover contributes exactly one of each, from the *next*
  generation's process label;
* results stay byte-identical to the unsharded oracle throughout.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan
from repro.geometry.rect import Rect
from repro.obs import TraceContext, Tracer, sum_cost_self
from repro.predicates.theta import Overlaps
from repro.server import QueryService
from repro.storage.costs import COUNTER_FIELDS, CostMeter

from tests import oracle
from tests.shard.conftest import (
    build_relations,
    loaded_runtime,
)

WINDOW = Rect(10.0, 10.0, 45.0, 45.0)
SEEDS = (1, 7, 42)


def _assert_conserves(records, meter):
    """Exclusive span deltas must reproduce the meter's totals exactly."""
    totals = sum_cost_self(records)
    snap = meter.snapshot()
    for key in COUNTER_FIELDS + ("total",):
        assert totals[key] == pytest.approx(snap[key]), key


class TestRouterLevelGraft:
    def test_traced_join_is_one_conserving_tree(self):
        runtime, rel_r, rel_s = loaded_runtime(3)
        with runtime:
            tracer = Tracer(process="s1")
            meter = CostMeter()
            ctx = TraceContext("t-test-1", 1)
            with tracer.span("session.shard_join", meter=meter) as span:
                result = runtime.router.join(
                    "r", "s", Overlaps(),
                    trace=ctx.for_span(tracer.uid_of(span)),
                    meter=meter, tracer=tracer,
                )
        assert result.pairs == oracle.pairs(rel_r, "shape", rel_s, "shape", Overlaps())
        records = tracer.to_records()
        roots = [r for r in records if r["parent_id"] is None]
        assert len(roots) == 1 and roots[0]["name"] == "session.shard_join"
        _assert_conserves(records, meter)
        # One worker-side join span per shard, each tagged with the
        # minted trace id and its own shard/generation identity.
        shard_spans = [r for r in records if r["name"] == "shard.join"]
        assert len(shard_spans) == 3
        assert {r["tags"]["shard"] for r in shard_spans} == {0, 1, 2}
        for r in shard_spans:
            assert r["tags"]["trace_id"] == "t-test-1"
            assert r["tags"]["generation"] == 0
            assert r["uid"] == f"shard{r['tags']['shard']}g0:0"
            assert r["parent_uid"] == "s1:0"
        # The session span did no work itself: the workers did it all.
        assert roots[0]["cost_self"]["total"] == 0.0

    def test_untraced_join_ships_no_spans(self):
        runtime, rel_r, rel_s = loaded_runtime(3)
        with runtime:
            tracer = Tracer(process="s1")
            meter = CostMeter()
            runtime.router.join(
                "r", "s", Overlaps(), meter=meter, tracer=tracer,
            )
        # No trace context -> workers created no tracer, shipped nothing.
        assert tracer.to_records() == []
        assert meter.total() > 0  # the meter delta still flowed home

    def test_traced_select_conserves_too(self):
        runtime, rel_r, rel_s = loaded_runtime(3)
        with runtime:
            tracer = Tracer(process="s1")
            meter = CostMeter()
            ctx = TraceContext("t-test-2", 2)
            with tracer.span("session.shard_select", meter=meter) as span:
                result = runtime.router.select(
                    "r", WINDOW, Overlaps(), with_payloads=False,
                    trace=ctx.for_span(tracer.uid_of(span)),
                    meter=meter, tracer=tracer,
                )
        assert [t for t, _ in result.matches] == \
            oracle.tids(rel_r, "shape", WINDOW, Overlaps())
        records = tracer.to_records()
        _assert_conserves(records, meter)
        selects = [r for r in records if r["name"] == "shard.select"]
        assert selects and all(
            r["tags"]["trace_id"] == "t-test-2" for r in selects
        )


def _service_over(runtime) -> QueryService:
    service = QueryService()
    service.attach_shards(runtime)
    return service


class TestSessionLevelGraft:
    def test_session_shard_join_builds_one_tree(self):
        runtime, rel_r, rel_s = loaded_runtime(3)
        with runtime:
            service = _service_over(runtime)
            try:
                with service.open_session("c1") as session:
                    session.tracer = Tracer(process=f"s{session.session_id}")
                    result = session.shard_join("r", "s", Overlaps())
                    records = session.tracer.to_records()
            finally:
                service.close()
        assert result.pairs == oracle.pairs(rel_r, "shape", rel_s, "shape", Overlaps())
        roots = [r for r in records if r["parent_id"] is None]
        assert len(roots) == 1
        root = roots[0]
        assert root["name"] == "session.shard_join"
        assert root["uid"].startswith("s1:")
        # Conservation against the root's inclusive delta: the session
        # span opened over the per-query meter, so its inclusive cost IS
        # the merged meter total.
        totals = sum_cost_self(records)
        for key in COUNTER_FIELDS + ("total",):
            assert totals[key] == pytest.approx(root["cost"][key]), key
        assert root["cost"]["total"] > 0
        assert root["cost_self"]["total"] == 0.0
        # The minted context is visible on both sides of the boundary
        # (worker root spans are stamped; their inner spans inherit by
        # tree position).
        trace_id = root["tags"]["trace_id"]
        shard_roots = [r for r in records if r["name"] == "shard.join"]
        assert shard_roots
        for r in shard_roots:
            assert r["tags"]["trace_id"] == trace_id

    def test_two_requests_two_disjoint_trees(self):
        runtime, rel_r, rel_s = loaded_runtime(3)
        with runtime:
            service = _service_over(runtime)
            try:
                with service.open_session("c1") as session:
                    session.tracer = Tracer(process=f"s{session.session_id}")
                    session.shard_join("r", "s", Overlaps())
                    session.shard_select("r", WINDOW, Overlaps())
                    records = session.tracer.to_records()
            finally:
                service.close()
        roots = [r for r in records if r["parent_id"] is None]
        assert [r["name"] for r in roots] == [
            "session.shard_join", "session.shard_select",
        ]
        # Distinct minted identities, strictly increasing service seq.
        assert roots[0]["tags"]["trace_id"] != roots[1]["tags"]["trace_id"]
        assert roots[0]["tags"]["seq"] < roots[1]["tags"]["seq"]
        # Every span's uid is unique across both grafted trees.
        uids = [r["uid"] for r in records]
        assert len(uids) == len(set(uids))


class TestKillDuringJoin:
    """The acceptance scenario: a mid-join shard kill, end to end."""

    def _run(self, seed: int):
        # Find the dispatch index of the join's second shard call, so
        # the kill lands mid-query (after loading, before completion).
        runtime, _, _ = loaded_runtime(3)
        with runtime:
            load_dispatches = runtime.status()["dispatches"]
        plan = FaultPlan(seed=seed, kill_shard_at={load_dispatches + 1: -1})
        runtime, rel_r, rel_s = loaded_runtime(3, fault_plan=plan)
        with runtime:
            service = _service_over(runtime)
            try:
                with service.open_session("c1") as session:
                    session.tracer = Tracer(process=f"s{session.session_id}")
                    result = session.shard_join("r", "s", Overlaps())
                    records = session.tracer.to_records()
            finally:
                service.close()
            status = runtime.status()
        return plan, service, result, records, status, rel_r, rel_s

    @pytest.mark.parametrize("seed", SEEDS)
    def test_killed_join_still_one_conserving_tree(self, seed):
        plan, service, result, records, status, rel_r, rel_s = self._run(seed)
        assert plan.summary()["consumed"] == 1
        assert status["restarts"] == 1
        assert result.pairs == oracle.pairs(rel_r, "shape", rel_s, "shape", Overlaps())
        roots = [r for r in records if r["parent_id"] is None]
        assert len(roots) == 1
        totals = sum_cost_self(records)
        for key in COUNTER_FIELDS + ("total",):
            assert totals[key] == pytest.approx(roots[0]["cost"][key]), key
        # Exactly one shard.join span per shard: the killed dispatch
        # shipped nothing, the failover re-dispatch exactly one.
        shard_spans = [r for r in records if r["name"] == "shard.join"]
        assert len(shard_spans) == 3
        assert {r["tags"]["shard"] for r in shard_spans} == {0, 1, 2}
        # The restarted shard answered from its next generation; its uid
        # says so, and can never collide with the dead incarnation's.
        generations = {
            r["tags"]["shard"]: r["tags"]["generation"] for r in shard_spans
        }
        assert sorted(generations.values()) == [0, 0, 1]
        bumped = next(s for s, g in generations.items() if g == 1)
        bumped_span = next(
            r for r in shard_spans if r["tags"]["shard"] == bumped
        )
        assert bumped_span["uid"] == f"shard{bumped}g1:0"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_flight_recorder_names_the_incident(self, seed):
        plan, service, *_ = self._run(seed)
        kinds = [e["kind"] for e in service.flight.snapshot()]
        assert "shard_kill" in kinds
        assert "failover" in kinds
        assert "wal_recovery" in kinds
        assert "shard_restart" in kinds
        # The incident unfolds in causal order: kill, then failover,
        # then recovery, then the restarted worker.
        assert kinds.index("shard_kill") < kinds.index("failover")
        assert kinds.index("failover") < kinds.index("wal_recovery")
        assert kinds.index("wal_recovery") < kinds.index("shard_restart")
        failover = next(
            e for e in service.flight.snapshot() if e["kind"] == "failover"
        )
        assert failover["fields"]["op"] == "join"
        assert failover["fields"]["attempt"] == 1
