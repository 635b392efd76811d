"""Disabled-tracer overhead on the join kernels must be noise.

The observability PR's contract is that tracing you do not ask for costs
(essentially) nothing: span sites are per phase / per level, never per
tuple, and the disabled path is one attribute call returning a shared
no-op handle.  This bench quantifies that claim on the two kernels whose
inner loops are pure predicate evaluation -- the z-order merge and
Algorithm JOIN over two R-trees:

1. measure the kernel's wall time with tracing disabled (min of
   repeats, the standard noise filter);
2. count the span sites one run actually opens (with a recording
   tracer) and measure the cost of a single no-op span entry/exit;
3. assert ``span_sites x per_site_cost < TOLERANCE x kernel_time`` --
   the *total* disabled-instrumentation budget, bounded far below the
   2% predicate-eval slowdown the acceptance criterion allows.

The analytic bound is what's asserted because it is robust on noisy
single-core CI containers; the direct enabled-vs-disabled A/B timing is
measured and reported (and shipped in the JSON artifact) but not gated.

The distributed extension applies the same discipline across the
process boundary: on an 8-shard join, remote span records are O(shards)
-- a few per worker dispatch, never per tuple -- and the graft that
merges them into the session tree costs ``remote_records x
per_record_graft_cost``, asserted below 3% of the untraced kernel.  The
untraced dispatch path ships no spans at all, so its budget stays the
single-process 2%.

A run sized down through ``BENCH_TRACE_COUNT`` or ``BENCH_DIST_COUNT`` is a
smoke run: it records both overheads and their tolerances in the
artifact (``bound_checked: false``) and asserts neither bound.

``BENCH_TRACE_COUNT`` overrides the per-relation cardinality,
``BENCH_TRACE_TOLERANCE`` the asserted overhead fraction (default 0.02);
``BENCH_DIST_SHARDS``, ``BENCH_DIST_COUNT`` and
``BENCH_DIST_TRACE_TOLERANCE`` (default 0.03) parameterize the
distributed variant.
"""

import os
import time

import pytest

from benchmarks.artifacts import emit_bench_artifact, sized_down
from repro.geometry import Rect
from repro.join.tree_join import tree_join
from repro.join.zorder_merge import zorder_merge_join
from repro.obs import NULL_TRACER, MetricsRegistry, TraceContext, Tracer
from repro.predicates.theta import Overlaps
from repro.shard import ShardRuntime
from repro.storage.costs import CostMeter
from repro.workloads.assembly import build_indexed_relation

UNIVERSE = Rect(0, 0, 1024, 1024)
COUNT = int(os.environ.get("BENCH_TRACE_COUNT", "1200"))
TOLERANCE = float(os.environ.get("BENCH_TRACE_TOLERANCE", "0.02"))
DIST_SHARDS = int(os.environ.get("BENCH_DIST_SHARDS", "8"))
#: 12,000 x 12,000 rows, an untraced 8-shard join of ~70 ms: at 4,000 x
#: 4,000 it takes ~7 ms, and two dozen fixed-cost spans are not small
#: against that.
DIST_COUNT = int(os.environ.get("BENCH_DIST_COUNT", "12000"))
DIST_TOLERANCE = float(os.environ.get("BENCH_DIST_TRACE_TOLERANCE", "0.03"))
#: A sized-down run measures and records the overheads, unasserted.
BOUND_CHECKED = not sized_down("BENCH_TRACE_COUNT", "BENCH_DIST_COUNT")
REPEATS = 5
NULL_SPAN_SAMPLES = 20_000
GRAFT_SAMPLES = 200


@pytest.fixture(scope="module")
def relations():
    ir_r = build_indexed_relation(COUNT, universe=UNIVERSE, seed=801, max_extent=8)
    ir_s = build_indexed_relation(COUNT, universe=UNIVERSE, seed=802, max_extent=8)
    return ir_r, ir_s


def min_wall(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def null_span_cost() -> float:
    """Seconds per disabled span entry/exit (amortized over many)."""
    meter = CostMeter()
    start = time.perf_counter()
    for _ in range(NULL_SPAN_SAMPLES):
        with NULL_TRACER.span("x", meter=meter, level=0):
            pass
    return (time.perf_counter() - start) / NULL_SPAN_SAMPLES


def _run_zorder(ir_r, ir_s, tracer=None):
    meter = CostMeter()
    result = zorder_merge_join(
        ir_r.relation, ir_s.relation, "shape", "shape",
        universe=UNIVERSE, meter=meter, tracer=tracer,
    )
    return result, meter


def _run_tree(ir_r, ir_s, tracer=None):
    meter = CostMeter()
    result = tree_join(
        ir_r.tree, ir_s.tree, Overlaps(), meter=meter, tracer=tracer,
    )
    return result, meter


KERNELS = {"zorder": _run_zorder, "tree-join": _run_tree}


@pytest.mark.smoke
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_disabled_tracer_overhead_is_bounded(relations, kernel):
    ir_r, ir_s = relations
    run = KERNELS[kernel]

    # How many span sites does one run actually open?
    recording = Tracer()
    result, meter = run(ir_r, ir_s, tracer=recording)
    span_sites = len(recording.spans)
    predicate_evals = meter.theta_filter_evals + meter.theta_exact_evals
    # Span sites must be a small constant (per phase), never per tuple:
    # the count cannot grow with the relation cardinality.
    assert 1 <= span_sites <= 8, (
        f"{kernel}: {span_sites} spans for {predicate_evals} predicate "
        "evals -- span sites must stay per phase, not per tuple"
    )

    disabled = min_wall(lambda: run(ir_r, ir_s))
    enabled = min_wall(lambda: run(ir_r, ir_s, tracer=Tracer()))
    per_site = null_span_cost()
    overhead = span_sites * per_site
    fraction = overhead / disabled

    print(
        f"\n{kernel}: {predicate_evals} predicate evals, {span_sites} span "
        f"sites, disabled {disabled * 1e3:.2f}ms, enabled "
        f"{enabled * 1e3:.2f}ms, null-span {per_site * 1e9:.0f}ns/site, "
        f"disabled overhead {fraction * 100:.4f}% (budget "
        f"{TOLERANCE * 100:.1f}%)"
    )
    emit_bench_artifact("bench_trace_overhead", kernel, {
        "predicate_evals": predicate_evals,
        "span_sites": span_sites,
        "disabled_seconds": disabled,
        "enabled_seconds": enabled,
        "null_span_seconds_per_site": per_site,
        "overhead_fraction": fraction,
        "tolerance": TOLERANCE,
        "bound_checked": BOUND_CHECKED,
        "pairs": len(result.pairs),
    })
    if BOUND_CHECKED:
        assert fraction < TOLERANCE, (
            f"{kernel}: disabled-tracer overhead {fraction:.4%} exceeds "
            f"{TOLERANCE:.0%}"
        )


@pytest.mark.smoke
def test_metrics_snapshot_artifact(relations):
    """Ship one instrumented run's metrics registry in the artifact."""
    ir_r, ir_s = relations
    metrics = MetricsRegistry()
    tracer = Tracer()
    meter = CostMeter()
    from repro.core.executor import SpatialQueryExecutor

    executor = SpatialQueryExecutor(tracer=tracer, metrics=metrics)
    result, report = executor.execute_join(
        ir_r.relation, "shape", ir_s.relation, "shape", Overlaps(),
        strategy="tree", meter=meter,
    )
    assert report.succeeded
    snapshot = metrics.snapshot()
    assert "join.filter_evals" in snapshot
    emit_bench_artifact("bench_trace_overhead", "metrics_snapshot", snapshot)


@pytest.fixture(scope="module")
def shard_fleet():
    """An inline 8-shard fleet with both relations loaded."""
    ir_r = build_indexed_relation(
        DIST_COUNT, universe=UNIVERSE, seed=811, max_extent=8
    )
    ir_s = build_indexed_relation(
        DIST_COUNT, universe=UNIVERSE, seed=812, max_extent=8
    )
    ir_r.relation.name = "r"
    ir_s.relation.name = "s"
    runtime = ShardRuntime(UNIVERSE, DIST_SHARDS)
    runtime.load_relation(ir_r.relation, "shape")
    runtime.load_relation(ir_s.relation, "shape")
    try:
        yield runtime
    finally:
        runtime.close()


def per_record_graft_cost(records) -> float:
    """Seconds to graft one exported remote span record (amortized)."""
    start = time.perf_counter()
    for _ in range(GRAFT_SAMPLES):
        Tracer(process="sink").graft(records)
    return (time.perf_counter() - start) / (GRAFT_SAMPLES * len(records))


def real_span_cost() -> float:
    """Seconds per *recording* span entry/exit (the worker-side price)."""
    tracer = Tracer(process="probe")
    meter = CostMeter()
    start = time.perf_counter()
    for _ in range(NULL_SPAN_SAMPLES):
        with tracer.span("x", meter=meter, level=0):
            pass
    return (time.perf_counter() - start) / NULL_SPAN_SAMPLES


@pytest.mark.smoke
def test_distributed_tracing_overhead_is_bounded(shard_fleet):
    """Remote spans are O(shards); graft + record cost stays under 3%."""
    runtime = shard_fleet
    theta = Overlaps()

    # One traced run: count what actually crosses the wire.
    tracer = Tracer(process="bench")
    meter = CostMeter()
    ctx = TraceContext("bench-dist", 1)
    with tracer.span("session.shard_join", meter=meter) as span:
        result = runtime.router.join(
            "r", "s", theta,
            trace=ctx.for_span(tracer.uid_of(span)),
            meter=meter, tracer=tracer,
        )
    records = tracer.to_records()
    remote = [r for r in records if r["process"] != "bench"]
    assert remote, "a traced sharded join must ship remote spans"
    per_shard: dict[int, int] = {}
    for r in remote:
        shard = int(r["process"].split("g")[0].removeprefix("shard"))
        per_shard[shard] = per_shard.get(shard, 0) + 1
    # O(shards), never per tuple: a handful of spans per dispatch.
    assert len(per_shard) == DIST_SHARDS
    assert max(per_shard.values()) <= 4, per_shard
    assert len(remote) <= 4 * DIST_SHARDS

    # The untraced dispatch path ships nothing at all -- the worker
    # never builds a tracer, so its kernel is byte-for-byte the same.
    silent = Tracer(process="bench")
    runtime.router.join("r", "s", theta, meter=CostMeter(), tracer=silent)
    assert silent.to_records() == []

    # Analytic budget: worker-side span recording plus router-side
    # grafting, both amortized per record, against the untraced kernel.
    untraced = min_wall(
        lambda: runtime.router.join("r", "s", theta, meter=CostMeter())
    )
    wire = [dict(r) for r in remote]
    per_graft = per_record_graft_cost(wire)
    per_span = real_span_cost()
    overhead = len(remote) * (per_graft + per_span)
    fraction = overhead / untraced

    print(
        f"\ndistributed: {DIST_SHARDS} shards, {len(remote)} remote spans, "
        f"untraced {untraced * 1e3:.2f}ms, graft "
        f"{per_graft * 1e9:.0f}ns/record, span {per_span * 1e9:.0f}ns/site, "
        f"overhead {fraction * 100:.4f}% (budget {DIST_TOLERANCE * 100:.1f}%)"
    )
    emit_bench_artifact("bench_trace_overhead", "distributed", {
        "shards": DIST_SHARDS,
        "remote_spans": len(remote),
        "pairs": len(result.pairs),
        "untraced_seconds": untraced,
        "graft_seconds_per_record": per_graft,
        "span_seconds_per_site": per_span,
        "overhead_fraction": fraction,
        "tolerance": DIST_TOLERANCE,
        "bound_checked": BOUND_CHECKED,
    })
    if BOUND_CHECKED:
        assert fraction < DIST_TOLERANCE, (
            f"distributed-tracing overhead {fraction:.4%} exceeds "
            f"{DIST_TOLERANCE:.0%}"
        )
