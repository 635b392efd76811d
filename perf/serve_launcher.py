"""The measured process of the serve workloads: a query server on a socket.

Builds the relations and wires ``QueryService`` + 8 MiB ``QueryCache`` +
``QueryServer`` exactly as ``repro serve`` does, then obeys one-word
commands on stdin, answering each with one JSON line on stdout:

``pass``   wait for the last pass's sessions to close, collect garbage and
           ``QueryCache.clear()``: the next timed pass starts from the same
           state as the first;
``stats``  cache counters, entry count and peak RSS so far;
``quit``   drain and stop the server, report, exit.

The first line it prints, once the kept set-up is serving, carries the
port, every set-up's duration and the relations' base epochs.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

import measure
import workloads


def set_up(workload, seed: int, n: int):
    """Generate, load, index, serve, and answer one select over the socket."""
    from repro.cache import QueryCache
    from repro.server import (
        QueryClient,
        QueryServer,
        QueryService,
        ServiceConfig,
        StateManager,
    )

    start = time.perf_counter()
    relations, _oid_of, split = measure.load_relations(workload, seed, n)
    state = StateManager()
    for relation in relations.values():
        state.register(relation)
    cache = QueryCache(byte_budget=measure.CACHE_BYTES)
    service = QueryService(
        state, cache=cache,
        config=ServiceConfig(max_inflight=8, session_budget=None),
    )
    server = QueryServer(service, host="127.0.0.1", port=0, drain_timeout=5.0).start()
    first = time.perf_counter()
    with QueryClient(server.host, server.port) as client:
        half = workload.universe / 2.0
        client.request(
            op="select", relation="r", column="shape", theta="overlaps",
            rect=[half, half, half + workload.window, half + workload.window],
        )
    done = time.perf_counter()
    split["core.first_op_ms"] = (done - first) * 1e3
    return done - start, server, relations, split


def _say(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setups", type=int, default=workloads.SETUPS)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    measure.use_checkout_source()
    workload = workloads.WORKLOADS[args.workload]
    size = workloads.sizing(workload, args.seconds, args.tiny)

    setup_s = []
    server = relations = split = None
    for _ in range(args.setups):
        if server is not None:
            server.stop()
        server = relations = None
        gc.collect()
        seconds, server, relations, split = set_up(workload, args.seed, size.n)
        setup_s.append(seconds)
    service, cache = server.service, server.service.cache
    # The warm-up select is cached; no timed pass may start with it.
    cache.clear()
    baseline = cache.stats.snapshot()
    _say({
        "port": server.port,
        "setup_s": setup_s,
        "split": split,
        "epochs": {name: rel.modification_count for name, rel in relations.items()},
    })

    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "pass":
                # A session keeps every span of every query it ran; the
                # clients reconnect between passes so that weight goes.
                deadline = time.monotonic() + 5.0
                while service.sessions_active and time.monotonic() < deadline:
                    time.sleep(0.01)
                gc.collect()
                cache.clear()
                baseline = cache.stats.snapshot()
                _say({"ok": True})
            elif command == "stats":
                now = cache.stats.snapshot()
                _say({
                    "cache": {k: now[k] - baseline[k] for k in now},
                    "entries": len(cache),
                    "peak_rss_mb": measure.peak_rss_mb(),
                })
            elif command == "quit":
                break
            else:
                _say({"error": f"unknown command {command!r}"})
    finally:
        server.stop()
    _say({"peak_rss_mb": measure.peak_rss_mb()})


if __name__ == "__main__":
    main()
