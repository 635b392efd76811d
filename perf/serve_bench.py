"""Drives the serve workloads: a server process, closed-loop connections.

The server (``serve_launcher.py``) is the measured process.  This module
runs in the bench process and plays the users: one thread per connection,
each sending its fixed op list over the real socket with ``QueryClient``
and the stock ``RetryPolicy``, the next request only after the previous
reply -- line-protocol clients block on each reply, so the load is a
closed loop, ``workloads.CONNECTIONS`` clients strong.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import threading
import time
from statistics import median

import measure
import oracle
import workloads
from trace import Trace

#: Ops per sweep of the in-process replica (traced run).
SWEEP_OPS = 1000
#: Fresh windows probed against the steady-state cache (traced run).
CACHE_PROBES = 200
PINGS = 500
DELETES = 5


class ServerProcess:
    """The launcher child: its ready line, its stdin commands, its exit."""

    def __init__(self, workload, seed: int, seconds: float, tiny: bool,
                 setups: int) -> None:
        argv = [
            sys.executable, str(measure.PERF_DIR / "serve_launcher.py"),
            "--workload", workload.name, "--seed", str(seed),
            "--seconds", str(seconds), "--setups", str(setups),
        ]
        if tiny:
            argv.append("--tiny")
        self._proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=measure.child_env(),
        )
        self.ready = self._read()
        self.final: dict = {}

    def _read(self) -> dict:
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"serve launcher exited with code {self._proc.wait()} before replying"
            )
        return json.loads(line)

    def command(self, word: str) -> dict:
        self._proc.stdin.write(word + "\n")
        self._proc.stdin.flush()
        return self._read()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        try:
            if exc_type is None and self._proc.poll() is None:
                self.final = self.command("quit")
        finally:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()


def _request(op: tuple) -> dict:
    if op[0] == "select":
        _, relation, window = op
        return {"op": "select", "relation": relation, "column": "shape",
                "theta": "overlaps", "rect": list(window)}
    _, oid, rect = op
    return {"op": "insert", "relation": "r", "oid": oid, "rect": list(rect)}


def drive(clients, pass_ops, trace: Trace | None = None):
    """One pass: every connection sends its ops; returns records and wall.

    ``records[conn][i]`` is ``(seconds, reply)`` where a reply is the
    payload dict or the exception the client raised after its retries.
    """
    from repro.errors import ProtocolError

    requests = [[_request(op) for op in ops] for ops in pass_ops]
    records = [[] for _ in clients]
    clock = [[0.0, 0.0] for _ in clients]
    gate = threading.Barrier(len(clients))

    def connection(conn: int) -> None:
        client, out = clients[conn], records[conn]
        gate.wait()
        clock[conn][0] = time.perf_counter()
        for i, request in enumerate(requests[conn]):
            start = time.perf_counter()
            try:
                if trace is None:
                    reply = client.request(**request)
                else:
                    with trace.span("net.request", op=conn * len(requests[0]) + i):
                        reply = client.request(**request)
            except (ProtocolError, OSError) as exc:
                reply = exc
            out.append((time.perf_counter() - start, reply))
        clock[conn][1] = time.perf_counter()

    threads = [
        threading.Thread(target=connection, args=(conn,)) for conn in range(len(clients))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = max(end for _s, end in clock) - min(start for start, _e in clock)
    return records, wall


def check(pass_ops, records, expected: oracle.SelectOracle) -> int:
    """How many ops failed: an error after retries or a wrong answer."""
    failed = 0
    for ops, recs in zip(pass_ops, records):
        for op, (_seconds, reply) in zip(ops, recs):
            if isinstance(reply, Exception):
                failed += 1
            elif op[0] == "select":
                try:
                    want = expected.expect(op[1], op[2], reply["epoch"])
                except ValueError:
                    failed += 1
                    continue
                if (reply["count"], oracle.checksum(reply["oids"])) != want:
                    failed += 1
            else:
                index = op[1] - workloads.INSERT_OID_BASE
                if (reply["inserted"] != op[1]
                        or reply["epoch"] != expected.insert_epoch(index)):
                    failed += 1
    return failed


def _oracle_for(workload, seed: int, size, passes, base_epoch) -> oracle.SelectOracle:
    inserts = [op[2] for p in passes for op in p[-1] if op[0] == "insert"]
    return oracle.SelectOracle(
        workloads.shapes(workload, seed, size.n), inserts,
        workloads.INSERT_OID_BASE, base_epoch,
    )


def _reconnect(server: ServerProcess, clients: list) -> list:
    """Fresh connections on a server reset for the next pass.

    A server session keeps the spans of every query it ran, so a pass on
    a used connection is slower than the one before.  New sessions make
    the passes equal; within a pass the growth is part of what users pay.
    """
    from repro.server import QueryClient, RetryPolicy

    for client in clients:
        client.close()
    server.command("pass")
    return [
        QueryClient("127.0.0.1", server.ready["port"], retry=RetryPolicy())
        for _ in range(workloads.CONNECTIONS)
    ]


def run_e2e(workload, seed: int, size, seconds: float, tiny: bool) -> dict:
    passes = workloads.serve_ops(workload, seed, size)
    out_passes, attempted, failed = [], 0, 0
    measure.share_one_cpu()
    with ServerProcess(workload, seed, seconds, tiny, workloads.SETUPS) as server:
        expected = _oracle_for(workload, seed, size, passes, server.ready["epochs"])
        clients = []
        retries = 0
        try:
            for pass_ops in passes:
                clients = _reconnect(server, clients)
                gc.collect()
                calib_before = measure.calib_ms()
                records, wall = drive(clients, pass_ops)
                calib_after = measure.calib_ms()
                failed += check(pass_ops, records, expected)
                attempted += sum(len(r) for r in records)
                out_passes.append({
                    "op_ms": [s * 1e3 for recs in records for s, _ in recs],
                    "wall_s": wall,
                    "calib_ms": [calib_before, calib_after],
                })
                retries += sum(c.retries_total for c in clients)
            stats = server.command("stats")
        finally:
            for client in clients:
                client.close()
    return {
        "setup_s": server.ready["setup_s"],
        "passes": out_passes,
        "attempted": attempted,
        "failed": failed,
        "facts": {"cache": stats["cache"], "client_retries": retries},
        "peak_rss_mb": server.final["peak_rss_mb"],
    }


# ----------------------------------------------------------------------
# Traced run: the socket for net.*, an in-process replica for the rest
# ----------------------------------------------------------------------

CACHE_KEY = {"strategy": "tree", "order": "bfs"}


def _p50_us(seconds: list[float]) -> float:
    return median(seconds) * 1e6 if seconds else 0.0


def _interleaved(pass_ops) -> list[tuple]:
    """A pass's first ops as one stream, the connections taking turns."""
    return [op for group in zip(*pass_ops) for op in group][:SWEEP_OPS]


class _Replica:
    """An in-process copy of the served state, one fresh service per sweep.

    ``ops`` are the workload's own requests as one stream -- the stream
    the solo connection sent over the socket -- and ``reads`` the selects
    among them.
    """

    def __init__(self, workload, seed: int, n: int, pass_ops) -> None:
        from repro.geometry.rect import Rect
        from repro.predicates.theta import Overlaps
        from repro.server import StateManager

        self.workload, self.seed = workload, seed
        self.relations, _oid_of, _split = measure.load_relations(workload, seed, n)
        self.state = StateManager()
        for relation in self.relations.values():
            self.state.register(relation)
        self.theta = Overlaps()
        self.ops = _interleaved(pass_ops)
        self.reads = [(op[1], Rect(*op[2])) for op in self.ops if op[0] == "select"]
        #: Left by the executor sweep at its steady-state entry count.
        self.warm_cache = None

    def service(self):
        from repro.cache import QueryCache
        from repro.server import QueryService

        return QueryService(self.state, cache=QueryCache(byte_budget=measure.CACHE_BYTES))

    def cold_accessor(self, relation, meter):
        """What the executor hands a traversal: a fresh pool charging ``meter``."""
        from repro.join.accessor import RelationAccessor
        from repro.storage.buffer import BufferPool

        return RelationAccessor(
            relation, BufferPool(relation.buffer_pool.disk, measure.POOL_PAGES, meter)
        )


def _protocol(rep: _Replica) -> dict:
    from repro.geometry.rect import Rect
    from repro.server.protocol import encode_ok, handle_request, parse_request

    svc = rep.service()
    parse, handle, encode, reply_bytes, insert = [], [], [], [], []
    with svc.open_session("replica") as session:
        for op in rep.ops:
            if op[0] == "insert":
                row = [op[1], Rect(*op[2])]
                insert.append(measure.timed(lambda: session.insert("r", row))[0])
                continue
            line = json.dumps(_request(op), separators=(",", ":"))
            seconds, request = measure.timed(lambda: parse_request(line))
            parse.append(seconds)
            seconds, payload = measure.timed(lambda: handle_request(session, request))
            handle.append(seconds)
            seconds, reply = measure.timed(lambda: encode_ok(payload))
            encode.append(seconds)
            reply_bytes.append(len(reply) + 1)
    svc.close()
    return {
        "protocol.parse_us": _p50_us(parse),
        "protocol.handle_us": _p50_us(handle),
        "protocol.encode_us": _p50_us(encode),
        "net.reply_bytes": median(reply_bytes),
        "service.insert_us": _p50_us(insert),
    }


def _service_select(rep: _Replica) -> dict:
    svc = rep.service()
    with svc.open_session("replica") as session:
        via_session = [
            measure.timed(lambda: session.select(rel, "shape", window, rep.theta))[0]
            for rel, window in rep.reads
        ]
    svc.close()
    svc = rep.service()
    via_executor = [
        measure.timed(lambda: svc.executor.select(
            rep.relations[rel], "shape", window, rep.theta, cache=svc.cache
        ))[0]
        for rel, window in rep.reads
    ]
    rep.warm_cache = svc.cache
    svc.close()
    return {
        "service.select_us": _p50_us(via_session),
        "service.overhead_us": _p50_us(via_session) - _p50_us(via_executor),
    }


def _core_select(rep: _Replica) -> dict:
    from repro.core.executor import SpatialQueryExecutor
    from repro.join.select import spatial_select
    from repro.storage.costs import CostMeter

    executor = SpatialQueryExecutor()
    seconds, direct, page_reads, exact, results = [], [], 0, 0, 0
    for rel, window in rep.reads:
        relation = rep.relations[rel]
        meter = CostMeter()
        took, result = measure.timed(lambda: executor.select(
            relation, "shape", window, rep.theta, meter=meter
        ))
        seconds.append(took)
        snap = meter.snapshot()
        page_reads += snap.get("page_reads", 0)
        exact += snap.get("theta_exact_evals", 0)
        results += len(result.matches)
        meter = CostMeter()
        direct.append(measure.timed(lambda: spatial_select(
            relation.index_on("shape"), window, rep.theta,
            accessor=rep.cold_accessor(relation, meter), meter=meter,
        ))[0])
    return {
        "core.select_us": _p50_us(seconds),
        "join.select_us": _p50_us(direct),
        "core.page_reads_per_select": page_reads / len(rep.reads),
        "predicates.exact_per_result": exact / max(1, results),
    }


def _cache_paths(rep: _Replica) -> dict:
    """Miss, admit, exact hit and containment hit on the steady-state cache."""
    from repro.geometry.rect import Rect
    from repro.join.select import spatial_select
    from repro.storage.costs import CostMeter

    cache = rep.warm_cache
    miss, admit, exact_hit, contained = [], [], [], []

    def probe(relation, window):
        took, (tier, _served) = measure.timed(lambda: cache.probe_select(
            relation, "shape", window, rep.theta, meter=CostMeter(), **CACHE_KEY
        ))
        return took, tier

    for rel, raw in workloads.probe_windows(rep.workload, rep.seed, CACHE_PROBES):
        relation, window = rep.relations[rel], Rect(*raw)
        took, tier = probe(relation, window)
        if tier is not None:
            continue
        miss.append(took)
        meter = CostMeter()
        candidates: list = []
        result = spatial_select(
            relation.index_on("shape"), window, rep.theta,
            accessor=rep.cold_accessor(relation, meter), meter=meter,
            candidates_out=candidates,
        )
        took, admitted = measure.timed(lambda: cache.admit_select(
            relation, "shape", window, rep.theta, result=result,
            candidates=candidates, measured_cost=meter.total(),
            epoch=relation.modification_count, **CACHE_KEY
        ))
        if not admitted:
            continue
        admit.append(took)
        took, tier = probe(relation, window)
        if tier == "exact":
            exact_hit.append(took)
        dx, dy = window.width / 4, window.height / 4
        took, tier = probe(relation, Rect(
            window.xmin + dx, window.ymin + dy, window.xmax - dx, window.ymax - dy
        ))
        if tier == "containment":
            contained.append(took)
    return {
        "cache.probe_miss_us": _p50_us(miss),
        "cache.admit_us": _p50_us(admit),
        "cache.exact_hit_us": _p50_us(exact_hit),
        "cache.containment_hit_us": _p50_us(contained),
    }


def _deletes(rep: _Replica) -> dict:
    from repro.server.protocol import handle_request

    svc = rep.service()
    with svc.open_session("replica") as session:
        took = [
            measure.timed(lambda: handle_request(
                session, {"op": "delete", "relation": "r", "oid": oid}
            ))[0]
            for oid in range(DELETES)
        ]
    svc.close()
    return {"service.delete_ms": median(took) * 1e3}


def run_traced(workload, seed: int, size, seconds: float, tiny: bool) -> dict:
    layers = measure.Layers()
    trace = Trace()
    passes = workloads.serve_ops(workload, seed, workloads.Sizing(size.n, 3, size.ops))
    attempted = failed = retries = 0
    measure.share_one_cpu()
    with ServerProcess(workload, seed, seconds, tiny, 1) as server:
        layers.values.update(server.ready["split"])
        expected = _oracle_for(workload, seed, size, passes, server.ready["epochs"])
        clients = []
        try:
            walls, calib = {}, [measure.calib_ms()]
            for label, pass_ops, tracer in (
                ("untraced", passes[0], None), ("traced", passes[1], trace),
            ):
                clients = _reconnect(server, clients)
                gc.collect()
                records, walls[label] = drive(clients, pass_ops, tracer)
                calib.append(measure.calib_ms())
                failed += check(pass_ops, records, expected)
                attempted += sum(len(r) for r in records)
                retries += sum(c.retries_total for c in clients)
            stats = server.command("stats")

            # One connection alone: socket latency with no other thread
            # waiting for the interpreter lock on either side.
            clients = _reconnect(server, clients)
            solo_ops = [_interleaved(passes[2])]
            records, _wall = drive(clients[:1], solo_ops)
            failed += check(solo_ops, records, expected)
            attempted += len(records[0])
            solo_us = _p50_us([s for s, _ in records[0]])
            pings = [
                measure.timed(lambda: clients[0].request(op="ping"))[0] for _ in range(PINGS)
            ]
            snapshot = clients[0].request(op="metrics")["metrics"]
        finally:
            for client in clients:
                client.close()

    def counter(name: str) -> float:
        return sum(series["value"] for series in snapshot.get(name, []))

    cache = stats["cache"]
    probes = max(1, cache["probes"])
    layers.values.update({
        "net.ping_us": _p50_us(pings),
        "net.client_retries": retries,
        "server.conflicts": counter("server.conflicts"),
        "server.shed": counter("server.shed"),
        "cache.exact_share": cache["exact_hits"] / probes,
        "cache.containment_share": cache["containment_hits"] / probes,
        "cache.miss_share": cache["misses"] / probes,
        "cache.entries": stats["entries"],
        "cache.evictions": cache["evictions"],
        "cache.invalidations": cache["invalidations"],
        "trace.overhead_pct": (walls["traced"] / walls["untraced"] - 1.0) * 100.0,
        "host.calib_ms": min(calib),
    })

    replica = _Replica(workload, seed, size.n, passes[2])
    layers.probe("protocol", lambda: _protocol(replica))
    layers.probe("service.select", lambda: _service_select(replica))
    layers.probe("core.select", lambda: _core_select(replica))
    layers.probe("cache", lambda: _cache_paths(replica))
    layers.probe("service.delete", lambda: _deletes(replica))
    layers.values["net.wire_overhead_us"] = (
        solo_us - layers.values.get("protocol.handle_us", 0.0)
    )
    trace.write(measure.OUT_DIR / f"trace_{workload.name}.jsonl")
    return {
        "layers": layers.values,
        "broken": layers.broken,
        "attempted": attempted,
        "failed": failed,
        "facts": {"cache": cache, "spans": len(trace.spans), "calib_ms": calib},
        "peak_rss_mb": server.final["peak_rss_mb"],
    }
