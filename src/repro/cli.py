"""Command-line interface: regenerate the paper's studies from a shell.

Usage::

    python -m repro figures                 # Figures 8-13 as tables
    python -m repro figures --figure 11     # one figure
    python -m repro updates                 # Section 4.2 update costs
    python -m repro crossovers              # exact crossover points
    python -m repro demo                    # measured strategy comparison
    python -m repro demo --fault-seed 7 --fault-rate 0.02
                                            # ... under injected storage faults
    python -m repro trace --explain --drift # instrumented query + span tree
    python -m repro trace --trace-out t.jsonl --metrics
    python -m repro serve --port 7654       # multi-session query service
    python -m repro client --port 7654 --request '{"op":"relations"}'
    python -m repro shards --kill-at 3      # supervised fleet under chaos
    python -m repro obs --kill-at 2         # distributed-tracing dashboard
    python -m repro calibrate --check       # the planner's regret, measured

All output is plain text, suitable for diffing between runs.  With
``--fault-seed``/``--fault-rate`` the demo relations live on a
:class:`~repro.faults.disk.FaultyDisk`, every strategy runs through the
resilient executor (bounded retries + fallback chain), and the fault
audit -- injected vs. consumed, per-strategy retries and fallbacks -- is
appended to the table.
"""

from __future__ import annotations

import argparse
from typing import Sequence

from repro.costmodel.sensitivity import join_crossover
from repro.costmodel.sweep import join_study, log_space, selection_study, update_study

#: Figure number -> (study kind, distribution).
FIGURES = {
    8: ("select", "uniform"),
    9: ("select", "no-loc"),
    10: ("select", "hi-loc"),
    11: ("join", "uniform"),
    12: ("join", "no-loc"),
    13: ("join", "hi-loc"),
}


def _figure_table(number: int, points: int) -> str:
    kind, dist = FIGURES[number]
    if kind == "select":
        study = selection_study(dist, log_space(1e-6, 1.0, points))
    else:
        study = join_study(dist, log_space(1e-12, 1.0, points))
    return f"--- Figure {number} ---\n{study.format_table()}"


def cmd_figures(args: argparse.Namespace) -> str:
    numbers = [args.figure] if args.figure else sorted(FIGURES)
    return "\n\n".join(_figure_table(n, args.points) for n in numbers)


def cmd_updates(args: argparse.Namespace) -> str:
    durable = getattr(args, "durable", False)
    lines = ["update costs per insertion (Table 3 parameters)"]
    baseline = update_study()
    if not durable:
        for name, value in baseline.items():
            lines.append(f"  {name:6s} = {value:16.1f}")
        return "\n".join(lines)
    durable_costs = update_study(
        durable=True, policy=args.policy, checkpoint_every=args.checkpoint_every
    )
    lines[0] += (
        f" -- durable: WAL sync={args.policy}, "
        f"checkpoint every {args.checkpoint_every} ops"
    )
    for name, value in baseline.items():
        lines.append(
            f"  {name:6s} = {value:16.1f}  "
            f"durable = {durable_costs[name]:16.1f}  "
            f"(+{durable_costs[name] - value:.1f})"
        )
    return "\n".join(lines)


def cmd_crossovers(_args: argparse.Namespace) -> str:
    lines = ["exact D_III / D_IIb crossover selectivities (bisection)"]
    for dist in ("uniform", "no-loc", "hi-loc"):
        p = join_crossover(dist)
        lines.append(
            f"  {dist:8s}: p = {p:.3e}" if p is not None else f"  {dist:8s}: none"
        )
    return "\n".join(lines)


def _crash_demo(args: argparse.Namespace) -> str:
    """Run a durable workload, crash it at a physical write, recover.

    Prints the fault plan audit, the :class:`~repro.wal.RecoveryReport`
    and a prefix-verification line: the recovered state must equal the
    state after some prefix of the committed operations.
    """
    from repro.errors import CrashError
    from repro.faults import FaultPlan, FaultyDisk
    from repro.relational.relation import Relation
    from repro.relational.schema import Column, ColumnType, Schema
    from repro.storage.buffer import BufferPool
    from repro.storage.costs import CostMeter
    from repro.wal import Checkpointer, WriteAheadLog, recover

    plan = FaultPlan(
        seed=args.fault_seed if args.fault_seed is not None else 0,
        crash_at_write=args.crash_at,
        crash_torn_tail=args.torn_tail,
    )
    disk = FaultyDisk(plan)
    meter = CostMeter()
    # States after each committed operation, oldest first -- the prefix
    # family the recovered state must be a member of.
    prefixes: list[tuple[int, ...]] = [()]
    live: list[int] = []
    try:
        pool = BufferPool(disk, 256, meter)
        wal = WriteAheadLog(disk, meter)
        pool.wal = wal
        schema = Schema([Column("oid", ColumnType.INT)])
        rel = Relation("objects", schema, pool, wal=wal)
        checkpointer = Checkpointer(wal, [rel], every_ops=16)
        tids = {}
        for i in range(args.size):
            tids[i] = rel.insert([i]).tid
            live.append(i)
            prefixes.append(tuple(sorted(live)))
            if i % 7 == 6:
                victim = live[len(live) // 2]
                rel.delete(tids[victim])
                live.remove(victim)
                prefixes.append(tuple(sorted(live)))
            checkpointer.maybe_checkpoint()
        pool.flush_all()
    except CrashError:
        pass

    lines = [
        "crash demo: {} inserts (1 delete per 7), crash scheduled at "
        "physical write {}{}".format(
            args.size, args.crash_at,
            " with torn tail" if args.torn_tail else "",
        ),
        "fault plan: {injected} injected, {consumed} consumed, "
        "{outstanding} outstanding".format(**plan.summary()),
    ]
    if not disk.crashed:
        lines.append(
            "workload finished before the scheduled write index -- "
            "no crash fired, nothing to recover"
        )
        return "\n".join(lines)

    relations, report = recover(disk.crash_image(), plan=plan)
    lines.append("")
    lines.append(report.format())
    recovered = (
        tuple(sorted(t["oid"] for t in relations["objects"].scan()))
        if "objects" in relations
        else ()
    )
    if recovered in prefixes:
        lines.append(
            f"recovered state = committed prefix of "
            f"{len(recovered)} live rows (out of {len(live)} at crash time)"
        )
    else:  # pragma: no cover - the crash-anywhere property forbids this
        lines.append("ERROR: recovered state is NOT a committed prefix")
    lines.append(
        "fault plan after recovery: {injected} injected, {consumed} "
        "consumed, {outstanding} outstanding".format(**plan.summary())
    )
    lines.append(
        f"durability cost: {meter.log_writes} log writes, "
        f"{meter.checkpoint_pages} checkpoint pages"
    )
    return "\n".join(lines)


def cmd_demo(args: argparse.Namespace) -> str:
    from repro.core.comparison import StrategyComparison
    from repro.predicates.theta import Overlaps, WithinDistance
    from repro.workloads.assembly import build_indexed_relation

    if args.crash_at is not None:
        return _crash_demo(args)

    faulted = args.fault_seed is not None or args.fault_rate > 0.0
    disk = None
    if faulted:
        from repro.faults import FaultPlan, FaultyDisk

        plan = FaultPlan(
            seed=args.fault_seed if args.fault_seed is not None else 0,
            read_rate=args.fault_rate,
            write_rate=args.fault_rate,
            torn_rate=args.fault_rate / 2,
        )
        disk = FaultyDisk(plan)

    ir_r = build_indexed_relation(args.size, seed=1, disk=disk)
    ir_s = build_indexed_relation(args.size, seed=2, disk=disk)
    # Fault runs use an overlaps join so the whole fallback chain
    # (partition -> tree -> zorder -> scan) is applicable.
    theta = Overlaps() if faulted else WithinDistance(30.0)
    report = StrategyComparison().compare_join(
        ir_r.relation, "shape", ir_s.relation, "shape", theta,
        resilient=faulted,
    )
    lines = [report.format_table()]
    if faulted:
        lines.append("")
        lines.append(
            "fault injection: seed={} rate={} -> {injected} injected, "
            "{consumed} consumed, {outstanding} outstanding".format(
                args.fault_seed, args.fault_rate, **disk.plan.summary()
            )
        )
        for strategy, exec_report in report.execution_reports.items():
            lines.append(
                f"  {strategy:<12} retries={exec_report.retries} "
                f"backoff={exec_report.backoff_steps} "
                f"fallbacks={exec_report.fallbacks} "
                f"ran={exec_report.strategy}"
            )
    return "\n".join(lines)


def cmd_trace(args: argparse.Namespace) -> str:
    """Run one seeded SELECT and one JOIN fully instrumented.

    Emits the span tree (``--explain``), the JSONL trace
    (``--trace-out``), the model-vs-measured drift verdict (``--drift``)
    and the metrics registry (``--metrics``).  With ``--cache`` the
    SELECT and the JOIN each run twice through a query cache -- the cold
    pass misses and is admitted, the warm pass reports its hit tier --
    and the cache summary is appended.  With ``--interval`` the join
    runs with the raster-interval second tier enabled and the interval
    counters (probes, sure hits, exact evals saved) are summarized.
    The footer verifies trace conservation: the exclusive per-span cost
    deltas must sum back to the query meter's totals.
    """
    from repro.core.executor import SpatialQueryExecutor
    from repro.geometry.rect import Rect
    from repro.obs import MetricsRegistry, Tracer, sum_cost_self
    from repro.predicates.theta import Overlaps
    from repro.storage.costs import CostMeter
    from repro.workloads.assembly import build_indexed_relation

    tracer = Tracer()
    metrics = MetricsRegistry()
    cache = None
    if args.cache:
        from repro.cache import QueryCache

        cache = QueryCache(byte_budget=args.cache_budget)
    ir_r = build_indexed_relation(args.size, seed=args.seed)
    ir_s = build_indexed_relation(args.size, seed=args.seed + 1)
    executor = SpatialQueryExecutor(
        tracer=tracer, metrics=metrics, cache=cache,
        interval=True if args.interval else None,
    )
    theta = Overlaps()
    meter = CostMeter()

    query = Rect(100.0, 100.0, 400.0, 420.0)
    selected = executor.select(
        ir_r.relation, "shape", query, theta, strategy="tree", meter=meter
    )

    plan = None
    if args.drift:
        from repro.core.optimizer import plan_join

        plan = plan_join(
            ir_r.relation, "shape", ir_s.relation, "shape", theta,
            memory_pages=executor.memory_pages, workers=executor.workers,
            cache=cache,
        )
    result, report = executor.execute_join(
        ir_r.relation, "shape", ir_s.relation, "shape", theta,
        strategy=args.strategy, meter=meter, plan=plan,
    )

    lines = [
        f"traced workload: {args.size} tuples/relation, seed {args.seed}",
        f"SELECT {query} overlaps -> {len(selected.matches)} matches",
        f"JOIN ({report.strategy}) -> {len(result.pairs)} pairs",
    ]
    if args.interval:
        stats = meter.snapshot()
        lines.append(
            f"interval filter: {int(stats['interval_probes'])} probes, "
            f"{int(stats['interval_sure_hits'])} sure hits, "
            f"{int(stats['interval_evals_saved'])} exact evals saved"
        )
    if cache is not None:
        warm_select = executor.select(
            ir_r.relation, "shape", query, theta, strategy="tree", meter=meter
        )
        select_tier = (
            warm_select.strategy[len("cached-"):]
            if warm_select.strategy.startswith("cached-")
            else "miss"
        )
        warm_result, warm_report = executor.execute_join(
            ir_r.relation, "shape", ir_s.relation, "shape", theta,
            strategy=args.strategy, meter=meter, plan=plan,
        )
        lines.append(
            f"warm SELECT -> {len(warm_select.matches)} matches "
            f"(cache: {select_tier} hit)"
        )
        lines.append(
            f"warm JOIN -> {len(warm_result.pairs)} pairs "
            f"(cache: {warm_report.cached or 'miss'}"
            f"{' hit' if warm_report.cached else ''})"
        )
        lines.append(cache.describe())
    if args.explain:
        lines.append("")
        lines.append(tracer.render_tree())
    if args.drift:
        lines.append("")
        lines.append(report.drift.format())
    if args.metrics:
        lines.append("")
        lines.append(metrics.render())
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as out:
            count = tracer.export_jsonl(out)
        lines.append(f"wrote {count} spans to {args.trace_out}")

    # Trace conservation: exclusive span deltas must sum to the meter.
    reconstructed = sum_cost_self(tracer.to_records())
    expected = meter.snapshot()
    drifted_keys = [
        k for k, v in expected.items()
        if abs(reconstructed.get(k, 0.0) - v) > 1e-6
    ]
    if drifted_keys:  # pragma: no cover - conservation is pinned by tests
        lines.append(f"WARNING: trace does not account for {drifted_keys}")
    else:
        lines.append(
            f"trace accounts for all {expected['total']:.0f} metered cost "
            f"units across {len(tracer.spans)} spans"
        )
    return "\n".join(lines)


def _demo_relations(size: int) -> dict:
    """The served / sharded demo pair: indexed relations ``r`` and ``s``."""
    from repro.workloads.assembly import build_indexed_relation

    return {
        name: build_indexed_relation(size, seed=seed, name=name)
        for name, seed in (("r", 1), ("s", 2))
    }


def _kill_plan(args: argparse.Namespace):
    """The ``--kill-at INDEX[:SHARD]`` schedule as a fault plan, if any."""
    from repro.faults.plan import FaultPlan

    if not args.kill_at:
        return None
    schedule = {}
    for spec in args.kill_at:
        index, _, shard = spec.partition(":")
        schedule[int(index)] = int(shard) if shard else -1
    return FaultPlan(args.fault_seed, kill_shard_at=schedule)


def _build_service(size: int, cache_budget: int, config=None):
    """A QueryService over two freshly built demo relations ``r`` and ``s``."""
    from repro.cache import QueryCache
    from repro.server import QueryService, StateManager

    state = StateManager()
    for ir in _demo_relations(size).values():
        state.register(ir.relation)
    return QueryService(
        state, cache=QueryCache(byte_budget=cache_budget), config=config
    )


def cmd_serve(args: argparse.Namespace) -> str:
    """Serve the demo relations over TCP until interrupted."""
    from repro.server import QueryServer, ServiceConfig

    service = _build_service(
        args.size, args.cache_budget,
        ServiceConfig(
            max_inflight=args.max_inflight,
            session_budget=args.session_budget,
        ),
    )
    server = QueryServer(
        service, host=args.host, port=args.port,
        drain_timeout=args.drain_timeout,
    ).start()
    print(
        f"query service on {server.host}:{server.port} "
        f"(relations: {', '.join(service.state.names())}; "
        f"max_inflight={args.max_inflight}; "
        f"drain_timeout={args.drain_timeout:g}s) -- Ctrl-C to stop"
    )
    try:
        import time

        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        # Graceful drain: in-flight queries get drain_timeout to finish
        # (new requests are refused with a retryable ShuttingDown);
        # stragglers are cancelled through their tokens.
        print("draining ...")
    finally:
        server.stop()
    snap = service.metrics.snapshot()
    queries = sum(
        s["value"] for s in snap.get("server.queries", [])
    )
    return f"served {queries} queries; bye"


def cmd_client(args: argparse.Namespace) -> str:
    """Send one request line (or a ping) to a running server."""
    import json

    from repro.server import QueryClient, RetryPolicy

    if args.request:
        request = json.loads(args.request)
    else:
        request = {"op": "ping"}
    if args.deadline_ms is not None:
        request.setdefault("deadline_ms", args.deadline_ms)
    retry = None
    if args.retries > 0:
        retry = RetryPolicy(
            max_attempts=args.retries + 1, seed=args.retry_seed
        )
    with QueryClient(args.host, args.port, retry=retry) as client:
        payload = client.request(**request)
        attempts = client.last_attempts
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if attempts > 1:
        text += f"\n(succeeded on attempt {attempts})"
    return text


def cmd_shards(args: argparse.Namespace) -> str:
    """Shard-runtime demo: distributed join vs. the unsharded oracle.

    Loads the demo relations into a standing shard fleet, optionally
    schedules seeded shard kills at exact dispatch boundaries, runs a
    distributed join and select, and verifies both against the
    single-process engine -- then prints the fleet status and the fault
    audit, so a kill that was absorbed is visibly consumed.
    """
    from repro.core.executor import SpatialQueryExecutor
    from repro.geometry.rect import Rect
    from repro.predicates.theta import Overlaps
    from repro.shard import ShardRuntime

    plan = _kill_plan(args)
    relations = _demo_relations(args.size)
    universe = relations["r"].universe
    theta = Overlaps()
    window = Rect(100.0, 100.0, 400.0, 400.0)

    executor = SpatialQueryExecutor()
    oracle_join = sorted(executor.join(
        relations["r"].relation, "shape",
        relations["s"].relation, "shape", theta, strategy="scan",
    ).pairs)
    oracle_select = sorted(executor.select(
        relations["r"].relation, "shape", window, theta,
        strategy="scan",
    ).tids)

    lines = []
    with ShardRuntime(
        universe, args.shards, bits=args.bits,
        processes=args.processes, fault_plan=plan,
    ) as runtime:
        for name, ir in relations.items():
            runtime.load_relation(ir.relation, "shape")
        join_result = runtime.router.join("r", "s", theta)
        select_result = runtime.router.select(
            "r", window, theta, with_payloads=False
        )
        status = runtime.status()

    join_ok = join_result.pairs == oracle_join
    select_ok = [t for t, _ in select_result.matches] == oracle_select
    lines.append(
        f"shard fleet: {status['n_shards']} shards over "
        f"{1 << status['bits']}x{1 << status['bits']} z-cells "
        f"({'processes' if status['processes'] else 'inline'}"
        f"{', degraded: ' + status['degrade_reason'] if status['degrade_reason'] else ''})"
    )
    lines.append(
        f"{'shard':>5} {'z-range':>13} {'gen':>4} {'restarts':>8} "
        f"{'dispatches':>10} {'rows':>6} {'mode':>8} {'alive':>5}"
    )
    for s in status["shards"]:
        lo, hi = s["zrange"]
        lines.append(
            f"{s['shard']:>5} {f'[{lo},{hi}]':>13} {s['generation']:>4} "
            f"{s['restarts']:>8} {s['dispatches']:>10} {s['rows']:>6} "
            f"{s['mode']:>8} {str(s['alive']):>5}"
        )
    lines.append(
        f"join: {len(join_result.pairs)} pairs via {join_result.strategy} "
        f"-- {'identical to unsharded oracle' if join_ok else 'MISMATCH'}"
    )
    lines.append(
        f"select: {len(select_result.matches)} matches via "
        f"{select_result.strategy} -- "
        f"{'identical to unsharded oracle' if select_ok else 'MISMATCH'}"
    )
    if plan is not None:
        lines.append(
            f"fault audit: {plan.summary()['injected']} injected, "
            f"{plan.summary()['consumed']} consumed"
        )
        lines.extend(f"  {event}" for event in plan.describe_events())
    return "\n".join(lines)


def cmd_obs(args: argparse.Namespace) -> str:
    """End-to-end observability dashboard over a sharded query service.

    Builds a query service fronting a standing shard fleet, runs traced
    distributed reads through a session (optionally killing shards at
    exact dispatch boundaries), and renders what the observability stack
    saw: the hottest spans of the grafted distributed trace, the per-op
    SLO latency table, the flight recorder's incident tail, the
    model-drift verdict for the sharded join, and the cross-process
    cost-conservation footer (exclusive span deltas vs. the roots'
    inclusive totals).
    """
    from repro.core.executor import SpatialQueryExecutor
    from repro.core.optimizer import plan_join
    from repro.geometry.rect import Rect
    from repro.obs import sum_cost_self
    from repro.obs.drift import drift_from_plan
    from repro.predicates.theta import Overlaps
    from repro.server import QueryService
    from repro.shard import ShardRuntime

    plan = _kill_plan(args)
    relations = _demo_relations(args.size)
    universe = relations["r"].universe
    theta = Overlaps()
    window = Rect(100.0, 100.0, 400.0, 400.0)

    oracle_pairs = sorted(SpatialQueryExecutor().join(
        relations["r"].relation, "shape",
        relations["s"].relation, "shape", theta, strategy="scan",
    ).pairs)
    # The Section-4 prediction for the sharded join: D_PAR at one worker
    # per shard (the reference-point rule keeps total work invariant
    # under the split, so the formula prices the merged meter).
    join_plan = plan_join(
        relations["r"].relation, "shape",
        relations["s"].relation, "shape", theta, workers=args.shards,
    )

    service = QueryService()
    lines = []
    try:
        with ShardRuntime(
            universe, args.shards, bits=args.bits, fault_plan=plan,
        ) as runtime:
            service.attach_shards(runtime)
            for ir in relations.values():
                runtime.load_relation(ir.relation, "shape")
            with service.open_session("obs") as session:
                join_result = session.shard_join("r", "s", theta)
                select_result = session.shard_select("r", window, theta)
                records = session.tracer.to_records()
            stats = service.stats()
            status = runtime.status()
    finally:
        service.close()

    join_ok = join_result.pairs == oracle_pairs
    lines.append(
        f"observability dashboard: {status['n_shards']} shards, "
        f"{args.size} tuples/relation"
        + (f", {len(plan.kill_shard_at)} scheduled kill(s)"
           if plan is not None else "")
    )
    lines.append(
        f"join: {len(join_result.pairs)} pairs via {join_result.strategy} "
        f"-- {'identical to unsharded oracle' if join_ok else 'MISMATCH'}"
    )
    lines.append(
        f"select: {len(select_result.matches)} matches via "
        f"{select_result.strategy}"
    )

    lines.append("")
    lines.append(f"top spans by exclusive cost (of {len(records)} total):")
    ranked = sorted(
        records,
        key=lambda r: r["cost_self"].get("total", 0.0),
        reverse=True,
    )[:args.top]
    for r in ranked:
        lines.append(
            f"  {r['uid']:>12}  {r['name']:<22} "
            f"cost_self={r['cost_self'].get('total', 0.0):>10.0f}  "
            f"cost={r['cost'].get('total', 0.0):>10.0f}"
        )

    lines.append("")
    lines.append("SLO: server.latency_seconds percentiles per (op, outcome)")
    lines.append(
        f"  {'op':<14} {'outcome':<10} {'count':>5} "
        f"{'p50':>10} {'p95':>10} {'p99':>10}"
    )

    def _ms(value) -> str:
        return f"{value * 1e3:8.2f}ms" if value is not None else f"{'-':>10}"

    for row in stats["slo"]:
        lines.append(
            f"  {row['op']:<14} {row['outcome']:<10} {row['count']:>5} "
            f"{_ms(row['p50'])} {_ms(row['p95'])} {_ms(row['p99'])}"
        )

    lines.append("")
    flight = stats["flight"]
    lines.append(
        f"flight recorder: {flight['recorded']} recorded, "
        f"{flight['dropped']} dropped"
    )
    if flight["events"]:
        for event in flight["events"]:
            fields = " ".join(
                f"{k}={v}" for k, v in sorted(event["fields"].items())
            )
            lines.append(
                f"  #{event['id']} {event['kind']}"
                + (f" {fields}" if fields else "")
            )
    else:
        lines.append("  (no incidents)")

    measured = next(
        (r["cost"].get("total", 0.0) for r in records
         if r["name"] == "session.shard_join"),
        0.0,
    )
    lines.append("")
    lines.append(drift_from_plan(
        join_plan, join_result.strategy, measured,
        query=f"sharded join r x s ({join_result.strategy})",
    ).format())

    # Cross-process conservation: every exclusive span delta -- session
    # spans and grafted worker spans alike -- must sum back to the root
    # spans' inclusive totals.  Nothing leaks, nothing double-counts.
    total_self = sum_cost_self(records)["total"]
    root_total = sum(
        r["cost"].get("total", 0.0)
        for r in records if r["parent_id"] is None
    )
    lines.append("")
    if abs(total_self - root_total) > 1e-6:  # pragma: no cover - pinned
        lines.append(
            f"WARNING: conservation violated "
            f"(self={total_self:.0f} != roots={root_total:.0f})"
        )
    else:
        lines.append(
            f"conservation: {total_self:.0f} exclusive cost units across "
            f"{len(records)} spans == the grafted trees' inclusive totals"
        )
    if args.trace_out:
        import json

        with open(args.trace_out, "w", encoding="utf-8") as out:
            count = 0
            for record in records:
                out.write(json.dumps(record, sort_keys=True) + "\n")
                count += 1
        lines.append(f"wrote {count} spans to {args.trace_out}")
    return "\n".join(lines)


def cmd_calibrate(args: argparse.Namespace) -> str:
    import sys

    from repro.core.calibration import calibrate

    return calibrate(
        check=args.check, tiny=args.tiny, write=args.write,
        log=lambda line: print(line, file=sys.stderr, flush=True),
    )


def build_parser() -> argparse.ArgumentParser:
    from repro.core.strategies import JOIN_STRATEGIES

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Efficient Computation of Spatial Joins' "
            "(Guenther, ICDE 1993)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="print Figures 8-13 as tables")
    figures.add_argument(
        "--figure", type=int, choices=sorted(FIGURES), default=None,
        help="print a single figure",
    )
    figures.add_argument(
        "--points", type=int, default=13, help="sweep points per figure"
    )
    figures.set_defaults(handler=cmd_figures)

    updates = sub.add_parser("updates", help="Section 4.2 update costs")
    updates.add_argument(
        "--durable", action="store_true",
        help="also show costs with the write-ahead-logging surcharge",
    )
    updates.add_argument(
        "--policy", choices=("always", "group"), default="always",
        help="WAL sync policy for the durable column",
    )
    updates.add_argument(
        "--checkpoint-every", type=int, default=64,
        help="checkpoint cadence (operations) for the durable column",
    )
    updates.set_defaults(handler=cmd_updates)

    crossovers = sub.add_parser("crossovers", help="exact crossover points")
    crossovers.set_defaults(handler=cmd_crossovers)

    calibrate = sub.add_parser(
        "calibrate",
        help="fit the planner's seconds-per-unit profile and print its regret",
    )
    mode = calibrate.add_mutually_exclusive_group()
    mode.add_argument(
        "--check", action="store_true",
        help="keep the committed profile; print its regret at the fitting "
        "and a held-out seed",
    )
    mode.add_argument(
        "--write", action="store_true",
        help="rewrite the committed profile with the fitted constants",
    )
    calibrate.add_argument(
        "--tiny", action="store_true", help="a seconds-long smoke grid",
    )
    calibrate.set_defaults(handler=cmd_calibrate)

    demo = sub.add_parser("demo", help="measured strategy comparison")
    demo.add_argument("--size", type=int, default=400, help="tuples per relation")
    demo.add_argument(
        "--fault-seed", type=int, default=None,
        help="seed for deterministic storage-fault injection",
    )
    demo.add_argument(
        "--fault-rate", type=float, default=0.0,
        help="per-access transient fault probability (0 disables injection)",
    )
    demo.add_argument(
        "--crash-at", type=int, default=None,
        help="run a durable workload and crash the disk at this physical "
        "write index, then recover and verify the committed prefix",
    )
    demo.add_argument(
        "--torn-tail", action="store_true",
        help="with --crash-at: land the in-flight write torn (partial frame)",
    )
    demo.set_defaults(handler=cmd_demo)

    trace = sub.add_parser(
        "trace", help="run an instrumented query and inspect its spans"
    )
    trace.add_argument("--size", type=int, default=300, help="tuples per relation")
    trace.add_argument("--seed", type=int, default=11, help="workload seed")
    trace.add_argument(
        "--strategy", default="auto", choices=("auto", *JOIN_STRATEGIES),
        help="join strategy to trace (default: the planner's pick, the "
        "strategy predicted fastest)",
    )
    trace.add_argument(
        "--trace-out", default=None, metavar="FILE.jsonl",
        help="write the span records as JSON Lines to this file",
    )
    trace.add_argument(
        "--explain", action="store_true",
        help="print the span tree with per-span cost deltas",
    )
    trace.add_argument(
        "--drift", action="store_true",
        help="plan with the Section 4 formulas and report model drift",
    )
    trace.add_argument(
        "--metrics", action="store_true",
        help="print the metrics registry after the run",
    )
    trace.add_argument(
        "--cache", action="store_true",
        help="run each query twice through a query-result cache and "
        "report the warm pass's hit tier",
    )
    trace.add_argument(
        "--cache-budget", type=int, default=8 * 1024 * 1024,
        metavar="BYTES", help="query-cache byte budget (with --cache)",
    )
    trace.add_argument(
        "--interval", action="store_true",
        help="enable the raster-interval second-tier filter on the join "
        "and report how many exact evaluations it saved",
    )
    trace.set_defaults(handler=cmd_trace)

    serve = sub.add_parser(
        "serve", help="serve demo relations over the TCP line protocol"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="0 picks a free port"
    )
    serve.add_argument("--size", type=int, default=300, help="tuples per relation")
    serve.add_argument(
        "--max-inflight", type=int, default=8,
        help="admission control: max queries executing at once",
    )
    serve.add_argument(
        "--session-budget", type=int, default=None,
        help="max queries per session (default: unbounded)",
    )
    serve.add_argument(
        "--cache-budget", type=int, default=8 * 1024 * 1024,
        metavar="BYTES", help="shared query-cache byte budget",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=5.0, metavar="SECONDS",
        help="on shutdown, grace period for in-flight queries before "
        "they are cancelled through their tokens",
    )
    serve.set_defaults(handler=cmd_serve)

    client = sub.add_parser(
        "client", help="send one protocol request to a running server"
    )
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, required=True)
    client.add_argument(
        "--request", default=None, metavar="JSON",
        help="request object, e.g. "
        "'{\"op\":\"select\",\"relation\":\"r\",\"column\":\"shape\","
        "\"rect\":[0,0,100,100],\"theta\":\"overlaps\"}' (default: ping)",
    )
    client.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="attach a deadline to the request (server cancels past it)",
    )
    client.add_argument(
        "--retries", type=int, default=0,
        help="retry retryable failures (busy/conflict/shutting-down) "
        "up to this many times with exponential backoff",
    )
    client.add_argument(
        "--retry-seed", type=int, default=0,
        help="seed for the deterministic retry jitter",
    )
    client.set_defaults(handler=cmd_client)

    shards = sub.add_parser(
        "shards", help="supervised shard fleet demo with optional chaos"
    )
    shards.add_argument(
        "--processes", action="store_true",
        help="run shards as real worker processes (default: inline)",
    )
    shards.set_defaults(handler=cmd_shards)

    obs = sub.add_parser(
        "obs", help="distributed-observability dashboard over a shard fleet"
    )
    obs.add_argument(
        "--top", type=int, default=8,
        help="how many spans to show in the hot-span table",
    )
    obs.add_argument(
        "--trace-out", default=None, metavar="FILE.jsonl",
        help="write the grafted distributed trace as JSON Lines",
    )
    obs.set_defaults(handler=cmd_obs)

    for fleet in (shards, obs):
        fleet.add_argument(
            "--shards", type=int, default=4,
            help="number of standing shard workers",
        )
        fleet.add_argument(
            "--size", type=int, default=200, help="tuples per relation"
        )
        fleet.add_argument(
            "--bits", type=int, default=4,
            help="z-order resolution bits per axis for the key space",
        )
        fleet.add_argument(
            "--kill-at", action="append", default=None, metavar="INDEX[:SHARD]",
            help="kill a shard at this dispatch index (repeatable); "
            "omit :SHARD to kill whichever shard is being dispatched to",
        )
        fleet.add_argument(
            "--fault-seed", type=int, default=7,
            help="seed for the deterministic fault plan (with --kill-at)",
        )

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    print(args.handler(args))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
