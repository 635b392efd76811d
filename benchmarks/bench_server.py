"""Query-service throughput: one session vs eight concurrent sessions.

The session layer adds pin/validate bookkeeping, admission control and
shared-cache locking on top of the bare executor.  This bench prices
that overhead: a fixed script of hot-window SELECTs and a repeated join
is pushed through the service by a single session and then by eight
threaded sessions, and both aggregate throughputs (queries/sec) land in
the artifact.  The paper's engine is single-node and the workload is
CPU-bound, so eight sessions buy *concurrency*, not parallelism -- the
assertion is therefore about overhead, not speedup: fanning the same
query volume across eight sessions must not collapse aggregate
throughput below ``BENCH_SERVER_FLOOR`` (default 0.25x) of the
single-session rate, and no query may be shed at the bench's capacity.

``BENCH_SERVER_COUNT`` overrides per-relation cardinality;
``BENCH_SERVER_QUERIES`` the total query volume per scenario.  A run
sized down through either is a smoke run: it records the ratio and the
floor in the artifact (``bound_checked: false``) and asserts only that
nothing was shed.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from benchmarks.artifacts import (
    build_clustered_relation,
    emit_bench_artifact,
    sized_down,
)
from repro.cache import QueryCache
from repro.geometry import Rect
from repro.predicates.theta import Overlaps
from repro.server import QueryService, ServiceConfig, StateManager

COUNT = int(os.environ.get("BENCH_SERVER_COUNT", "800"))
TOTAL_QUERIES = int(os.environ.get("BENCH_SERVER_QUERIES", "240"))
FLOOR = float(os.environ.get("BENCH_SERVER_FLOOR", "0.25"))
#: A sized-down run measures and records the ratio, unasserted.
BOUND_CHECKED = not sized_down("BENCH_SERVER_COUNT", "BENCH_SERVER_QUERIES")
SESSIONS = 8

WINDOWS = [
    Rect(80.0, 80.0, 380.0, 380.0),
    Rect(500.0, 120.0, 820.0, 400.0),
    Rect(150.0, 550.0, 460.0, 900.0),
    Rect(560.0, 540.0, 920.0, 880.0),
]


def build_service() -> QueryService:
    state = StateManager()
    state.register(build_clustered_relation("r", COUNT, seed=901, clusters=12, max_width=12.0))
    state.register(build_clustered_relation("s", COUNT, seed=902, clusters=12, max_width=12.0))
    return QueryService(
        state,
        cache=QueryCache(byte_budget=8 << 20),
        config=ServiceConfig(max_inflight=SESSIONS, snapshot_retries=4),
    )


def run_script(session, queries: int, worker: int) -> int:
    """Issue ``queries`` alternating SELECT/JOIN ops; returns the count."""
    theta = Overlaps()
    done = 0
    for i in range(queries):
        if i % 8 == 7:
            session.join("r", "shape", "s", "shape", theta)
        else:
            window = WINDOWS[(i + worker) % len(WINDOWS)]
            session.select("r" if i % 2 else "s", "shape", window, theta)
        done += 1
    return done


def throughput(service: QueryService, sessions: int) -> tuple[float, int]:
    """Aggregate queries/sec pushing TOTAL_QUERIES through N sessions."""
    per_session = TOTAL_QUERIES // sessions
    counts: list[int] = []
    lock = threading.Lock()

    def worker(idx: int) -> None:
        with service.open_session() as session:
            done = run_script(session, per_session, idx)
        with lock:
            counts.append(done)

    start = time.perf_counter()
    if sessions == 1:
        worker(0)
    else:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(sessions)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    elapsed = time.perf_counter() - start
    return sum(counts) / elapsed, sum(counts)


@pytest.mark.smoke
def test_session_scaling(benchmark):
    service = build_service()

    # Warm the shared cache once so both scenarios replay the same mix
    # of warm hits and cold joins.
    with service.open_session() as session:
        run_script(session, len(WINDOWS) * 2, 0)

    solo_qps, solo_done = throughput(service, 1)

    def eight_sessions():
        return throughput(service, SESSIONS)

    fan_qps, fan_done = benchmark.pedantic(eight_sessions, rounds=3,
                                           warmup_rounds=1)

    snapshot = service.metrics.snapshot()
    shed = sum(s["value"] for s in snapshot.get("server.shed", []))
    conflicts = sum(s["value"] for s in snapshot.get("server.conflicts", []))

    print(f"\n  1 session : {solo_qps:10.1f} queries/sec ({solo_done} queries)")
    print(f"  {SESSIONS} sessions: {fan_qps:10.1f} queries/sec ({fan_done} queries)")
    print(f"  ratio     : {fan_qps / solo_qps:.2f}x   shed={shed} conflicts={conflicts}")

    emit_bench_artifact("bench_server", "session_scaling", {
        "relation_count": COUNT,
        "total_queries": TOTAL_QUERIES,
        "solo_qps": solo_qps,
        "fan_sessions": SESSIONS,
        "fan_qps": fan_qps,
        "ratio": fan_qps / solo_qps,
        "floor": FLOOR,
        "bound_checked": BOUND_CHECKED,
        "shed": shed,
        "conflicts": conflicts,
    })
    emit_bench_artifact("bench_server", "metrics", snapshot)

    # Capacity matched the session count, so nothing may have been shed;
    # session fan-out must not collapse aggregate throughput.
    assert shed == 0
    if BOUND_CHECKED:
        assert fan_qps >= FLOOR * solo_qps, (
            f"8-session throughput collapsed: {fan_qps:.1f} qps vs "
            f"{solo_qps:.1f} solo (floor {FLOOR}x)"
        )
