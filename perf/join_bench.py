"""The measured process of the join workloads.

Runs in a child of ``run.py`` so the peak RSS belongs to one workload and
the oracle never shares a heap with the code being timed.  Prints one
JSON object on its last stdout line; the parent checks the answers.

One op is what a user calls: ``SpatialQueryExecutor(memory_pages=fits,
interval=True).plan_and_execute_join(r, "shape", s, "shape", Overlaps())``.
"""

from __future__ import annotations

import argparse
import gc
import json
import time
from dataclasses import dataclass, field
from statistics import median

import measure
import oracle
import workloads
from trace import Trace

COLUMN = "shape"
#: Ops of the untraced and of the traced pass of a traced run.
TRACED_OPS = 2
#: Grid of the interval tier's traced probe; the planner's default
#: (level 6) resolves almost nothing on these polygons.
INTERVAL_LEVEL = 8
#: Candidate pairs classified one by one for ``intermediate.classify_us``.
CLASSIFY_SAMPLE = 300
SHARDS = 2
#: Rows per relation the alternatives (2 workers, shard fleet) run on: at
#: 100k they take 28 s and 2 x 10 s, more than the rest of the traced run.
ALTERNATIVES_N = 50_000


def _executor(relations):
    from repro.core.executor import SpatialQueryExecutor

    fits = relations["r"].num_pages + relations["s"].num_pages + 64
    return SpatialQueryExecutor(memory_pages=fits, interval=True)


def _answer(result, oid_of) -> tuple[int, int]:
    of_r, of_s = oid_of["r"], oid_of["s"]
    return len(result.pairs), oracle.checksum(
        oracle.pair_id(of_r[a], of_s[b]) for a, b in result.pairs
    )


def _timed_op(executor, relations, theta):
    """One op with the collector in a known state.

    A full collection over a million live tuples costs as much as 10% of
    an op and falls on whichever op crosses the threshold; collecting
    before each op (outside the timing) keeps the collector enabled but
    makes every op pay the same share.
    """
    from repro.storage.costs import CostMeter

    gc.collect()
    meter = CostMeter()
    start = time.perf_counter()
    result, report = executor.plan_and_execute_join(
        relations["r"], COLUMN, relations["s"], COLUMN, theta, meter=meter
    )
    return (time.perf_counter() - start) * 1e3, result, report, meter


def _set_up(workload, seed: int, n: int, theta):
    start = time.perf_counter()
    relations, oid_of, split = measure.load_relations(workload, seed, n)
    executor = _executor(relations)
    first_ms, result, _report, _meter = _timed_op(executor, relations, theta)
    split["core.first_op_ms"] = first_ms
    return time.perf_counter() - start, relations, oid_of, executor, split, result


def run_e2e(workload, seed: int, size) -> dict:
    from repro.predicates.theta import Overlaps

    theta = Overlaps()
    setup_s = []
    relations = oid_of = executor = None
    for _ in range(workloads.SETUPS):
        relations = oid_of = executor = None  # drop the previous build
        gc.collect()
        seconds, relations, oid_of, executor, _split, first = _set_up(
            workload, seed, size.n, theta
        )
        setup_s.append(seconds)
    answers = [_answer(first, oid_of)]

    passes, facts = [], {}
    for _ in range(size.passes):
        calib_before = measure.calib_ms()
        op_ms = []
        for _ in range(size.ops):
            ms, result, report, meter = _timed_op(executor, relations, theta)
            op_ms.append(ms)
            answers.append(_answer(result, oid_of))
            snap = meter.snapshot()
            facts = {
                "strategy": report.strategy,
                "pairs": len(result.pairs),
                "filter_evals": int(snap.get("theta_filter_evals", 0)),
                "exact_evals": int(snap.get("theta_exact_evals", 0)),
                "interval_probes": int(snap.get("interval_probes", 0)),
            }
        passes.append({
            "op_ms": op_ms,
            "wall_s": sum(op_ms) / 1e3,
            "calib_ms": [calib_before, measure.calib_ms()],
        })
    return {
        "setup_s": setup_s,
        "passes": passes,
        "answers": answers,
        "facts": facts,
        "peak_rss_mb": measure.peak_rss_mb(),
    }


# ----------------------------------------------------------------------
# Traced run: one layer per probe, each through the layer's public calls
# ----------------------------------------------------------------------


@dataclass
class _Traced:
    """What the probes of one traced run share."""

    workload: workloads.Workload
    seed: int
    n: int
    relations: dict
    executor: object
    theta: object
    trace: Trace = field(default_factory=Trace)
    #: Chosen by the planner in the traced pass.
    plan: object = None
    strategy: str = ""
    plan_span: int = 0
    #: ``executor.join`` with the chosen strategy.
    join_ms: float = 0.0
    #: ``(geom_r, geom_s)`` of every MBR-intersecting pair.
    candidates: list = field(default_factory=list)
    #: Stage times of the partition pipeline, for ``core.unattributed_ms``.
    stages: dict = field(default_factory=dict)

    @property
    def r(self):
        return self.relations["r"]

    @property
    def s(self):
        return self.relations["s"]

    @property
    def universe(self):
        from repro.geometry.rect import Rect

        return Rect(0.0, 0.0, self.workload.universe, self.workload.universe)


def _ms(fn) -> tuple[float, object]:
    gc.collect()
    seconds, out = measure.timed(fn)
    return seconds * 1e3, out


def _traced_pass(t: _Traced, oid_of, answers: list) -> dict:
    """``TRACED_OPS`` ops as users run them, then replayed plan -> execute."""
    from repro.core.optimizer import executable_strategy, plan_join
    from repro.storage.costs import CostMeter

    untraced = []
    for _ in range(TRACED_OPS):
        ms, result, _report, _meter = _timed_op(t.executor, t.relations, t.theta)
        untraced.append(ms)
        answers.append(_answer(result, oid_of))

    for op in range(TRACED_OPS):
        gc.collect()
        meter = CostMeter()
        with t.trace.span("op", op=op):
            with t.trace.span("core.plan") as plan_span:
                t.plan = plan_join(
                    t.r, COLUMN, t.s, COLUMN, t.theta,
                    memory_pages=t.executor.memory_pages,
                    workers=t.executor.workers, interval=True,
                )
            t.strategy = executable_strategy(t.plan)
            with t.trace.span("core.join"):
                result = t.executor.join(
                    t.r, COLUMN, t.s, COLUMN, t.theta, strategy=t.strategy,
                    interval=t.plan.interval_spec if t.plan.use_interval else False,
                    meter=meter,
                )
        answers.append(_answer(result, oid_of))
    t.plan_span = plan_span["id"]
    t.join_ms = t.trace.median_ms("core.join")

    snap = meter.snapshot()
    exact_evals = snap.get("theta_exact_evals", 0)
    return {
        "core.plan_ms": t.trace.median_ms("core.plan"),
        "core.join_ms": t.join_ms,
        "predicates.filter_evals": snap.get("theta_filter_evals", 0),
        "predicates.exact_evals": exact_evals,
        "predicates.exact_per_result": exact_evals / max(1, len(result.pairs)),
        "trace.overhead_pct": (
            median(t.trace.durations_ms("op")) / median(untraced) - 1.0
        ) * 100.0,
    }


def _estimator(t: _Traced) -> dict:
    """The planner's sampling, replayed on its own as a child of the plan."""
    from repro.costmodel.estimation import (
        estimate_interval_resolution,
        estimate_join_selectivity,
    )

    gc.collect()
    with t.trace.span("costmodel.estimate", parent=t.plan_span):
        estimate_join_selectivity(
            t.r, COLUMN, t.s, COLUMN, t.theta, sample_pairs=400, seed=0
        )
        estimate_interval_resolution(
            t.r, COLUMN, t.s, COLUMN, t.plan.interval_spec, sample_pairs=200, seed=0
        )
    return {"costmodel.estimate_ms": t.trace.median_ms("costmodel.estimate")}


def _partition_stages(t: _Traced) -> dict:
    """The partition strategy stage by stage: scan, scatter, sweep, assemble."""
    from repro.geometry.rect import Rect
    from repro.join.result import JoinResult
    from repro.parallel.partitioner import GridSpec, partition_pair
    from repro.parallel.pool import run_partitions

    gc.collect()
    with t.trace.span("replay.partition"):
        with t.trace.span("relational.scan"):
            entries_r, entries_s = (
                [(row.tid, row[COLUMN].mbr(), row[COLUMN]) for row in rel.scan()]
                for rel in (t.r, t.s)
            )
        with t.trace.span("parallel.scatter"):
            universe = Rect.union_of([e[1] for e in entries_r + entries_s])
            grid = GridSpec.for_workload(universe, len(entries_r) + len(entries_s), 1)
            tasks = partition_pair(entries_r, entries_s, grid)
        with t.trace.span("parallel.sweep"):
            found, _meter, _report = run_partitions(tasks, grid, t.theta, workers=1)
        with t.trace.span("core.assemble"):
            JoinResult(strategy="partition-sweep", pairs=sorted(found))
    for name in ("relational.scan", "parallel.scatter", "parallel.sweep",
                 "core.assemble"):
        t.stages[name + "_ms"] = t.trace.median_ms(name)
    return {
        **t.stages,
        "parallel.replication":
            sum(task.load for task in tasks) / (len(entries_r) + len(entries_s)),
    }


def _tree_strategies(t: _Traced) -> dict:
    from repro.join.accessor import RelationAccessor
    from repro.join.tree_join import tree_join
    from repro.join.zorder_merge import zorder_merge_join

    tree_ms, _ = _ms(lambda: tree_join(
        t.r.index_on(COLUMN), t.s.index_on(COLUMN), t.theta,
        accessor_r=RelationAccessor(t.r), accessor_s=RelationAccessor(t.s),
    ))
    zorder_ms, _ = _ms(lambda: zorder_merge_join(
        t.r, t.s, COLUMN, COLUMN, universe=t.universe,
        memory_pages=t.executor.memory_pages,
    ))
    return {"join.tree_join_ms": tree_ms, "join.zorder_ms": zorder_ms}


def _predicates(t: _Traced) -> dict:
    """Mean cost of one filter call and one exact call over the candidates."""
    raw = workloads.shapes(t.workload, t.seed, t.n)
    i, j = oracle.mbr_pairs(oracle.boxes_of(raw["r"]), oracle.boxes_of(raw["s"]))
    geom_r = [row[COLUMN] for row in t.r.scan()]
    geom_s = [row[COLUMN] for row in t.s.scan()]
    t.candidates = [(geom_r[a], geom_s[b]) for a, b in zip(i.tolist(), j.tolist())]
    boxes = [(a.mbr(), b.mbr()) for a, b in t.candidates]
    big_theta = t.theta.filter_operator()
    filter_ms, _ = _ms(lambda: [big_theta(a, b) for a, b in boxes])
    exact_ms, _ = _ms(lambda: [t.theta(a, b) for a, b in t.candidates])
    calls = max(1, len(t.candidates))
    return {
        "predicates.filter_us": filter_ms * 1e3 / calls,
        "predicates.exact_us": exact_ms * 1e3 / calls,
    }


def _interval_tier(t: _Traced) -> dict:
    """The second tier on a level-8 grid: build, classify, warm join."""
    from repro.core.executor import SpatialQueryExecutor
    from repro.intermediate.approx import classify
    from repro.intermediate.filter import IntervalSpec
    from repro.intermediate.raster import rasterize
    from repro.storage.costs import CostMeter

    spec = IntervalSpec(t.universe, INTERVAL_LEVEL)
    tiered = SpatialQueryExecutor(memory_pages=t.executor.memory_pages)

    def join_on(meter):
        return _ms(lambda: tiered.join(
            t.r, COLUMN, t.s, COLUMN, t.theta,
            strategy=t.strategy, interval=spec, meter=meter,
        ))[0]

    # The first call rasterises both relations through
    # ApproximationStore.table_for; the second finds the tables built.
    cold_ms = join_on(CostMeter())
    meter = CostMeter()
    warm_ms = join_on(meter)
    snap = meter.snapshot()

    step = max(1, len(t.candidates) // CLASSIFY_SAMPLE)
    sample = [
        (rasterize(a, spec.universe, spec.level), rasterize(b, spec.universe, spec.level))
        for a, b in t.candidates[::step]
    ]
    classify_ms, _ = _ms(lambda: [classify(a, b) for a, b in sample])
    return {
        "intermediate.build_ms": cold_ms - warm_ms,
        "intermediate.join_on_ms": warm_ms,
        "intermediate.payoff": t.join_ms / warm_ms,
        "intermediate.resolved_share":
            snap.get("interval_evals_saved", 0) / max(1, snap.get("interval_probes", 0)),
        "intermediate.classify_us": classify_ms * 1e3 / max(1, len(sample)),
    }


def _two_workers(t: _Traced, alt: dict) -> dict:
    def partition(workers: int) -> float:
        return _ms(lambda: t.executor.join(
            alt["r"], COLUMN, alt["s"], COLUMN, t.theta,
            strategy="partition", workers=workers, interval=False,
        ))[0]

    one, two = partition(1), partition(2)
    return {"parallel.join_w2_ms": two, "parallel.w2_speedup": one / two}


def _shard_fleet(t: _Traced, alt: dict) -> dict:
    from repro.shard import ShardRuntime

    values = {}
    for mode, processes in (("inline", False), ("proc", True)):
        with ShardRuntime(t.universe, SHARDS, processes=processes) as fleet:
            load_ms, _ = _ms(lambda: [
                fleet.load_relation(rel, COLUMN) for rel in alt.values()
            ])
            join_ms, _ = _ms(lambda: fleet.router.join("r", "s", t.theta))
        if mode == "inline":
            values["shard.load_ms"] = load_ms
        values[f"shard.join_{mode}_ms"] = join_ms
    return values


def run_traced(workload, seed: int, size) -> dict:
    from repro.predicates.theta import Overlaps

    theta = Overlaps()
    layers = measure.Layers()
    _seconds, relations, oid_of, executor, split, first = _set_up(
        workload, seed, size.n, theta
    )
    layers.values.update(split)
    answers = [_answer(first, oid_of)]
    t = _Traced(workload, seed, size.n, relations, executor, theta)

    calib = [measure.calib_ms()]
    layers.values.update(_traced_pass(t, oid_of, answers))
    calib.append(measure.calib_ms())

    layers.probe("costmodel.estimate", lambda: _estimator(t))
    layers.probe("partition stages", lambda: _partition_stages(t))
    if workload.indexed:
        layers.probe("tree strategies", lambda: _tree_strategies(t))
    ran = (
        layers.values.get("join.tree_join_ms", 0.0) if t.strategy == "tree"
        else sum(t.stages.values())
    )
    layers.values["core.unattributed_ms"] = t.join_ms - ran
    layers.probe("predicates", lambda: _predicates(t))
    if workload.polygon_radius:
        # Rectangles are their own MBR: every candidate is a hit and the
        # tier has nothing to resolve, so it is probed on polygons only.
        layers.probe("intermediate", lambda: _interval_tier(t))

    alt = relations
    if size.n > ALTERNATIVES_N:
        alt, _oids, _split = measure.load_relations(workload, seed, ALTERNATIVES_N)
    layers.probe("parallel.w2", lambda: _two_workers(t, alt))
    layers.probe("shard", lambda: _shard_fleet(t, alt))
    layers.values["host.calib_ms"] = min(calib)

    t.trace.write(measure.OUT_DIR / f"trace_{workload.name}.jsonl")
    return {
        "layers": layers.values,
        "broken": layers.broken,
        "answers": answers,
        "facts": {"strategy": t.strategy, "pairs": answers[-1][0],
                  "spans": len(t.trace.spans), "calib_ms": calib},
        "peak_rss_mb": measure.peak_rss_mb(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    measure.use_checkout_source()
    workload = workloads.WORKLOADS[args.workload]
    size = workloads.sizing(workload, args.seconds, args.tiny)
    run = run_traced if args.trace else run_e2e
    print(json.dumps(run(workload, args.seed, size)))


if __name__ == "__main__":
    main()
