"""Tracer: span nesting, meter deltas, conservation, export, no-op path."""

import io
import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    coalesce,
    render_records,
    sum_cost_self,
)
from repro.storage.costs import COUNTER_FIELDS, CostMeter


class TestSpanStructure:
    def test_nesting_and_depth(self):
        t = Tracer()
        with t.span("root"):
            with t.span("child"):
                with t.span("grandchild"):
                    pass
            with t.span("sibling"):
                pass
        names = [s.name for s in t.spans]
        assert names == ["root", "child", "grandchild", "sibling"]
        root, child, grand, sibling = t.spans
        assert root.parent_id is None and root.depth == 0
        assert child.parent_id == root.span_id and child.depth == 1
        assert grand.parent_id == child.span_id and grand.depth == 2
        assert sibling.parent_id == root.span_id
        assert t.roots() == [root]

    def test_tags_from_kwargs_and_set_tag(self):
        t = Tracer()
        with t.span("op", level=3) as span:
            span.set_tag("nodes", 17)
        assert t.spans[0].tags == {"level": 3, "nodes": 17}

    def test_wall_clock_measured(self):
        t = Tracer()
        with t.span("op"):
            pass
        assert t.spans[0].wall_seconds >= 0.0
        assert t.spans[0].wall_end is not None

    def test_mis_nested_exit_raises(self):
        t = Tracer()
        outer = t.span("outer")
        inner = t.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(ObservabilityError, match="span stack corrupted"):
            outer.__exit__(None, None, None)


class TestMeterDeltas:
    def test_inclusive_delta_and_virtual_duration(self):
        meter = CostMeter()
        meter.record_read(3)  # pre-span charges must not leak in
        t = Tracer()
        with t.span("op", meter=meter):
            meter.record_read(2)
            meter.record_filter_eval()
        cost = t.spans[0].cost
        assert cost["page_reads"] == 2
        assert cost["theta_filter_evals"] == 1
        assert cost["total"] == 2 * 1000 + 1
        assert t.spans[0].virtual_duration == cost["total"]

    def test_no_meter_means_empty_cost(self):
        t = Tracer()
        with t.span("op"):
            pass
        assert t.spans[0].cost == {}

    def test_parent_cost_includes_children(self):
        meter = CostMeter()
        t = Tracer()
        with t.span("parent", meter=meter):
            meter.record_filter_eval()
            with t.span("child", meter=meter):
                meter.record_exact_eval(2)
        parent, child = t.spans
        assert parent.cost["theta_filter_evals"] == 1
        assert parent.cost["theta_exact_evals"] == 2
        assert child.cost["theta_exact_evals"] == 2


class TestConservation:
    def _traced_work(self):
        meter = CostMeter()
        t = Tracer()
        with t.span("root", meter=meter):
            meter.record_read(4)
            with t.span("a", meter=meter):
                meter.record_filter_eval(10)
            with t.span("b", meter=meter):
                meter.record_exact_eval(5)
                with t.span("b.inner", meter=meter):
                    meter.record_write(1)
        return t, meter

    def test_cost_self_sums_to_meter_totals(self):
        t, meter = self._traced_work()
        totals = sum_cost_self(t.to_records())
        snap = meter.snapshot()
        for key in COUNTER_FIELDS + ("total",):
            assert totals[key] == pytest.approx(snap[key]), key

    def test_cost_self_is_exclusive(self):
        t, _ = self._traced_work()
        by_name = {r["name"]: r for r in t.to_records()}
        # root's own work: 4 reads only (children ate the rest).
        assert by_name["root"]["cost_self"]["page_reads"] == 4
        assert by_name["root"]["cost_self"]["theta_filter_evals"] == 0
        assert by_name["b"]["cost_self"]["page_writes"] == 0
        assert by_name["b.inner"]["cost_self"]["page_writes"] == 1


class TestExport:
    def test_jsonl_round_trip(self):
        t, _ = TestConservation()._traced_work()
        out = io.StringIO()
        count = t.export_jsonl(out)
        lines = out.getvalue().strip().splitlines()
        assert count == len(lines) == 4
        records = [json.loads(line) for line in lines]
        assert [r["name"] for r in records] == ["root", "a", "b", "b.inner"]
        for r in records:
            assert set(r) == {
                "span_id", "parent_id", "uid", "parent_uid", "process",
                "depth", "name", "tags", "wall_seconds", "cost",
                "cost_self",
            }
        # uids are stable, process-qualified forms of the local ids.
        assert records[0]["uid"] == "main:0"
        assert records[0]["parent_uid"] is None
        assert all(r["process"] == "main" for r in records)
        by_name = {r["name"]: r for r in records}
        assert by_name["b.inner"]["parent_uid"] == by_name["b"]["uid"]

    def test_render_tree_shape(self):
        t, _ = TestConservation()._traced_work()
        text = t.render_tree()
        assert "root" in text and "|-- a" in text and "`-- b" in text
        assert "`-- b.inner" in text
        assert "cost=" in text and "wall=" in text


def _remote_records(process: str = "shard1g0", reads: int = 2):
    """A worker-side trace: one root with a child, exported to wire form."""
    meter = CostMeter()
    remote = Tracer(process=process)
    with remote.span("shard.join", meter=meter, shard=1):
        with remote.span("shard.join.sweep", meter=meter):
            meter.record_read(reads)
            meter.record_filter_eval(3)
    return remote.to_records()


class TestGraft:
    def test_remote_roots_attach_under_active_span(self):
        t = Tracer()
        with t.span("session.shard_join") as span:
            grafted = t.graft(_remote_records())
        root, sweep = grafted
        assert root.parent_id == span.span_id
        assert root.depth == span.depth + 1
        assert sweep.parent_id == root.span_id  # remote link preserved
        assert sweep.depth == root.depth + 1

    def test_without_active_span_remote_roots_become_local_roots(self):
        t = Tracer()
        grafted = t.graft(_remote_records())
        assert grafted[0].parent_id is None
        assert grafted[0] in t.roots()

    def test_uids_survive_the_graft(self):
        t = Tracer(process="s1")
        with t.span("session.shard_join"):
            t.graft(_remote_records(process="shard2g1"))
        by_name = {r["name"]: r for r in t.to_records()}
        assert by_name["session.shard_join"]["uid"] == "s1:0"
        assert by_name["shard.join"]["uid"] == "shard2g1:0"
        assert by_name["shard.join.sweep"]["uid"] == "shard2g1:1"
        assert by_name["shard.join.sweep"]["parent_uid"] == "shard2g1:0"
        assert by_name["shard.join"]["parent_uid"] == "s1:0"

    def test_grafted_costs_are_inclusive_deltas(self):
        t = Tracer()
        with t.span("session.shard_join", meter=CostMeter()):
            grafted = t.graft(_remote_records(reads=5))
        root = grafted[0]
        assert root.cost["page_reads"] == 5
        assert root.cost["theta_filter_evals"] == 3
        assert root.cost["total"] == 5 * 1000 + 3

    def test_conservation_extends_over_the_graft(self):
        # Mirrors the dispatch protocol: each worker's meter delta is
        # absorbed into the query meter (so the session span's inclusive
        # delta covers the remote work) *and* its spans are grafted as
        # children carrying the same delta.  The session span's
        # exclusive cost is then zero and the exclusive sums equal the
        # query meter's totals -- the cross-process conservation law.
        meter = CostMeter()
        t = Tracer()
        with t.span("session.shard_join", meter=meter):
            for process, reads in (("shard1g0", 5), ("shard2g0", 1)):
                t.graft(_remote_records(process=process, reads=reads))
                meter.record_read(reads)       # dispatch absorbs the
                meter.record_filter_eval(3)    # worker's reply delta
        records = t.to_records()
        totals = sum_cost_self(records)
        snap = meter.snapshot()
        for key in COUNTER_FIELDS + ("total",):
            assert totals[key] == pytest.approx(snap[key]), key
        by_name = {r["name"]: r for r in records}
        # The session span ate nothing itself.
        assert by_name["session.shard_join"]["cost_self"]["total"] == 0.0

    def test_two_generations_never_collide(self):
        t = Tracer()
        with t.span("session.shard_join"):
            t.graft(_remote_records(process="shard1g0"))
            t.graft(_remote_records(process="shard1g1"))
        uids = [r["uid"] for r in t.to_records()]
        assert len(uids) == len(set(uids))

    def test_missing_process_requires_default(self):
        records = _remote_records()
        for r in records:
            r["process"] = None
        t = Tracer()
        with pytest.raises(ObservabilityError, match="process label"):
            t.graft(records)
        grafted = t.graft(records, default_process="shard9g0")
        assert t.uid_of(grafted[0]) == "shard9g0:0"

    def test_null_tracer_drops_grafts(self):
        assert NULL_TRACER.graft(_remote_records()) == []


class TestRenderRecords:
    def test_wire_form_render_matches_live_render(self):
        t = Tracer(process="s1")
        meter = CostMeter()
        with t.span("session.shard_join", meter=meter, table="r"):
            t.graft(_remote_records())
            meter.record_exact_eval()
        # Round-trip through JSONL: the renderer must not need live spans.
        out = io.StringIO()
        t.export_jsonl(out)
        records = [
            json.loads(line) for line in out.getvalue().splitlines()
        ]
        assert render_records(records) == t.render_tree()
        assert "session.shard_join" in render_records(records)

    def test_orphan_parent_renders_as_root(self):
        records = _remote_records()
        # Drop the root: the child's parent_uid now dangles.
        child_only = [r for r in records if r["parent_uid"] is not None]
        text = render_records(child_only)
        assert "shard.join.sweep" in text

    def test_empty(self):
        assert render_records([]) == ""


class TestNullTracer:
    def test_shared_noop_handle(self):
        t = NullTracer()
        h1 = t.span("a", meter=CostMeter(), level=1)
        h2 = t.span("b")
        assert h1 is h2  # one shared handle: no allocation per site
        with h1 as span:
            span.set_tag("anything", 42)  # silently dropped
        assert t.to_records() == [] and t.roots() == []
        assert t.render_tree() == ""
        assert t.export_jsonl(io.StringIO()) == 0

    def test_enabled_flags(self):
        assert Tracer().enabled is True
        assert NULL_TRACER.enabled is False

    def test_coalesce(self):
        assert coalesce(None) is NULL_TRACER
        t = Tracer()
        assert coalesce(t) is t
