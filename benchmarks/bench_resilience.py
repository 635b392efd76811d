"""Resilience overhead: cancellation checks and graceful-drain latency.

The cooperative cancellation points (strategy-attempt, tree-level and
node-pop boundaries) run on every query, token or no token, so their
cost is a permanent tax on the hot path.  This bench prices it: the
same SELECT script runs through the executor bare (``cancel=None``) and
with a live token, and the ratio lands in the artifact.  The assertion
is a generous floor -- the tokened run must keep at least
``BENCH_RESILIENCE_FLOOR`` (default 0.5x) of the bare throughput --
because the check is a ``None``-test plus one lock-free flag read, not
real work.

The second measurement times a graceful stop with a query in flight:
``QueryServer.stop`` must come in under the drain grace plus the
cancellation-unwind slack, proving drains are bounded by cooperation,
not by the slowest query.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from benchmarks.artifacts import build_clustered_relation, emit_bench_artifact
from repro.core.cancel import CancellationToken
from repro.core.executor import SpatialQueryExecutor
from repro.errors import QueryCancelled
from repro.geometry import Rect
from repro.predicates.theta import Overlaps
from repro.server import QueryServer, QueryService, StateManager

UNIVERSE = Rect(0.0, 0.0, 1000.0, 1000.0)
COUNT = int(os.environ.get("BENCH_RESILIENCE_COUNT", "600"))
QUERIES = int(os.environ.get("BENCH_RESILIENCE_QUERIES", "120"))
FLOOR = float(os.environ.get("BENCH_RESILIENCE_FLOOR", "0.5"))

WINDOWS = [
    Rect(80.0, 80.0, 380.0, 380.0),
    Rect(500.0, 120.0, 820.0, 400.0),
    Rect(150.0, 550.0, 460.0, 900.0),
    Rect(560.0, 540.0, 920.0, 880.0),
]


def run_selects(executor, rel, cancel) -> float:
    theta = Overlaps()
    start = time.perf_counter()
    for i in range(QUERIES):
        executor.select(rel, "shape", WINDOWS[i % len(WINDOWS)], theta,
                        strategy="tree", order="dfs", cancel=cancel)
    return QUERIES / (time.perf_counter() - start)


@pytest.mark.smoke
def test_cancellation_check_overhead(benchmark):
    rel = build_clustered_relation("r", COUNT, seed=907, clusters=10, max_width=12.0)
    executor = SpatialQueryExecutor()
    bare_qps = run_selects(executor, rel, cancel=None)

    token = CancellationToken.with_timeout(3600.0)

    def tokened():
        return run_selects(executor, rel, cancel=token)

    tokened_qps = benchmark.pedantic(tokened, rounds=3, warmup_rounds=1)

    ratio = tokened_qps / bare_qps
    print(f"\n  bare   : {bare_qps:10.1f} selects/sec")
    print(f"  tokened: {tokened_qps:10.1f} selects/sec ({ratio:.2f}x)")
    emit_bench_artifact("bench_resilience", "cancellation_overhead", {
        "count": COUNT,
        "queries": QUERIES,
        "bare_qps": bare_qps,
        "tokened_qps": tokened_qps,
        "ratio": ratio,
    })
    assert ratio >= FLOOR, (
        f"cancellation checks cost {1 - ratio:.0%} of throughput "
        f"(floor {FLOOR:.2f}x)"
    )


class SlowTheta(Overlaps):
    """Per-evaluation sleep: a query that outlives any sane drain."""

    def __call__(self, a, b):
        time.sleep(0.01)
        return super().__call__(a, b)


@pytest.mark.smoke
def test_graceful_drain_is_bounded_by_cooperation():
    state = StateManager()
    state.register(build_clustered_relation("r", 60, seed=908, clusters=10, max_width=12.0))
    service = QueryService(state)
    server = QueryServer(service).start()

    started = threading.Event()
    outcomes: list[str] = []

    def long_query():
        with service.open_session() as session:
            started.set()
            try:
                session.select("r", "shape", UNIVERSE, SlowTheta(),
                               strategy="tree", order="dfs")
                outcomes.append("finished")
            except QueryCancelled:
                outcomes.append("cancelled")

    t = threading.Thread(target=long_query)
    t.start()
    assert started.wait(5.0)
    time.sleep(0.05)  # let the query get inside the traversal

    drain_timeout = 0.1
    start = time.perf_counter()
    server.stop(drain_timeout=drain_timeout)
    elapsed = time.perf_counter() - start
    t.join(timeout=10.0)

    # The 60-row scan at 10ms/eval would run ~0.6s; a bounded drain
    # must beat that by cancelling, with slack for the unwind.
    bound = drain_timeout + 2.0
    print(f"\n  drain with straggler: {elapsed * 1000:8.1f} ms "
          f"(grace {drain_timeout * 1000:.0f} ms, outcome {outcomes})")
    emit_bench_artifact("bench_resilience", "drain_latency", {
        "drain_timeout_s": drain_timeout,
        "elapsed_s": elapsed,
        "outcome": outcomes,
    })
    assert elapsed < bound, f"drain took {elapsed:.2f}s (bound {bound:.2f}s)"
    assert service.health()["inflight"] == 0
