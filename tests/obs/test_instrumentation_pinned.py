"""Instrumentation must not change what the engine does or charges.

Every strategy's metered behaviour on a pinned workload is recorded
here as an exact tuple.  Two claims are enforced:

1. with tracing *disabled* (the default), the counts match the pre-PR
   baselines byte for byte -- the no-op path really is a no-op;
2. with tracing *enabled*, the full meter snapshot is identical to the
   disabled run -- observing the engine does not perturb it.

If a legitimate engine change shifts these numbers, re-pin them in the
same commit and say why in the message.
"""

import pytest

from repro.geometry import Rect
from repro.core.executor import SpatialQueryExecutor
from repro.obs import MetricsRegistry, Tracer, sum_cost_self
from repro.predicates.theta import Overlaps
from repro.storage.costs import C_IO, COUNTER_FIELDS, CostMeter
from repro.workloads.assembly import build_indexed_relation

QUERY = Rect(100.0, 100.0, 400.0, 420.0)

#: label -> (matches, page_reads, page_writes, filter_evals, exact_evals)
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


def fresh_workload():
    """A pair nothing has read yet: a partition join that finds its
    operands' column snapshots retained (DESIGN.md, "Epochs and derived
    state") charges buffer hits where the pinned cold run charges page
    reads, so every pinned run builds its own relations."""
    ir_r = build_indexed_relation(120, seed=11, max_extent=40.0)
    ir_s = build_indexed_relation(100, seed=12, max_extent=40.0)
    return ir_r, ir_s


@pytest.fixture
def workload():
    return fresh_workload()


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
def test_disabled_tracer_counts_match_baseline(label, workload):
    executor = SpatialQueryExecutor(memory_pages=4000)
    matches, meter = _run(label, workload, executor)
    assert _signature(matches, meter) == PINNED[label], label


@pytest.mark.parametrize("label", sorted(PINNED))
def test_enabled_tracer_does_not_perturb_meter(label, workload):
    plain = SpatialQueryExecutor(memory_pages=4000)
    matches_plain, meter_plain = _run(label, workload, plain)

    traced = SpatialQueryExecutor(
        memory_pages=4000, tracer=Tracer(), metrics=MetricsRegistry()
    )
    matches_traced, meter_traced = _run(label, fresh_workload(), traced)

    assert matches_traced == matches_plain
    # Every counter, not just the pinned five: observation is free.
    assert meter_traced.snapshot() == meter_plain.snapshot(), label


def test_a_warm_partition_join_charges_hits_for_the_pages_it_was_spared(workload):
    """The second partition join of an unchanged pair finds both column
    snapshots: same answer, same Theta and theta work, no page read, one
    buffer hit per page the snapshots stood in for -- and so a total
    lower by exactly those pages' I/O price."""
    ir_r, ir_s = workload
    executor = SpatialQueryExecutor(memory_pages=4000)
    matches_cold, cold = _run("join:partition", workload, executor)
    matches_warm, warm = _run("join:partition", workload, executor)
    assert _signature(matches_cold, cold) == PINNED["join:partition"]
    assert _signature(matches_warm, warm) == (25, 0, 0, 232, 25)
    pages = ir_r.relation.num_pages + ir_s.relation.num_pages
    assert (cold.page_reads, cold.buffer_hits) == (pages, 0)
    assert (warm.page_reads, warm.buffer_hits) == (0, pages)
    assert cold.total() - warm.total() == pages * C_IO
    for name in COUNTER_FIELDS:
        if name not in ("page_reads", "buffer_hits"):
            assert getattr(warm, name) == getattr(cold, name), name


def test_executor_trace_conserves_cost(workload):
    """Sum of exclusive span costs == the meter, through the executor."""
    ir_r, ir_s = workload
    tracer = Tracer()
    executor = SpatialQueryExecutor(memory_pages=4000, tracer=tracer)
    meter = CostMeter()
    executor.select(
        ir_r.relation, "shape", QUERY, Overlaps(),
        strategy="tree", meter=meter,
    )
    executor.execute_join(
        ir_r.relation, "shape", ir_s.relation, "shape", Overlaps(),
        strategy="tree", meter=meter,
    )
    totals = sum_cost_self(tracer.to_records())
    snap = meter.snapshot()
    for key in COUNTER_FIELDS + ("total",):
        assert totals[key] == pytest.approx(snap[key]), key
    # Both workloads produced real nested traces, not flat ones.
    assert len(tracer.roots()) == 2
    assert any(span.depth >= 1 for span in tracer.spans)
