"""Chaos soak: retrying clients vs. a seeded fault-injecting proxy.

Eight client threads hammer a live server *through* a
:class:`~repro.faults.net.ChaosProxy` that drops connections, stalls,
garbles and truncates reply lines on a seeded schedule.  The clients'
retry policies must absorb every injected fault:

* readers go through the proxy -- selects are idempotent, so drops and
  half-written replies are safely retried across reconnects;
* writers connect directly (a write whose reply was lost has an unknown
  outcome; the client correctly refuses to blind-retry it, so routing
  writers around the wire chaos keeps the oracle exact) and still retry
  retryable server errors (busy, conflict);
* every read's answer is validated after the run against an
  epoch-stamped oracle rebuilt from the writers' committed epochs --
  the differential check stays intact under wire chaos.

Afterwards the plan's audit must balance (every injected fault consumed
by a retry), and the server must drain to zero in-flight with zero
leaked connection threads.

``CHAOS_SEED`` seeds both the fault plan and the workload; the CI
``chaos-soak`` matrix runs 1/7/42.
"""

from __future__ import annotations

import os
import random
import threading

from repro.faults import ChaosProxy, FaultPlan
from repro.geometry.rect import Rect
from repro.predicates.theta import Overlaps
from repro.server import QueryClient, QueryServer, RetryPolicy, ServiceConfig

from tests.oracle import Model
from tests.server.conftest import build_service, seeded_rect

SEED = int(os.environ.get("CHAOS_SEED", "1"))
READERS = 6
WRITERS = 2
OPS_PER_CLIENT = 12


def test_chaos_soak_retrying_clients_survive_wire_faults():
    service, base = build_service(
        count=30,
        config=ServiceConfig(max_inflight=8, snapshot_retries=8),
    )
    plan = FaultPlan(
        seed=SEED,
        net_drop_rate=0.06,
        net_stall_rate=0.06,
        net_garble_rate=0.06,
        net_partial_rate=0.04,
        net_stall_seconds=0.005,
        max_burst=3,
    )
    server = QueryServer(service).start()
    proxy = ChaosProxy(plan, server.address).start()
    # Writes are logged in reply order, not commit order; the model
    # replays them by epoch.
    model = Model()
    for name in ("r", "s"):
        model.load(name, base[name])
    theta = Overlaps()
    failures: list[str] = []
    observations: list[tuple[str, int, Rect, list[int]]] = []
    obs_lock = threading.Lock()
    tallies = {"reads": 0, "writes": 0, "retries": 0}
    clients: list[QueryClient] = []
    clients_lock = threading.Lock()

    def bump(key: str, n: int = 1) -> None:
        with obs_lock:
            tallies[key] += n

    def run_reader(worker: int) -> None:
        rng = random.Random(SEED * 100 + worker)
        client = QueryClient(
            *proxy.address, timeout=15.0,
            retry=RetryPolicy(max_attempts=12, base_delay=0.005,
                              max_delay=0.08, seed=SEED * 10 + worker),
        )
        with clients_lock:
            clients.append(client)
        for _ in range(OPS_PER_CLIENT):
            name = rng.choice(("r", "s"))
            window = seeded_rect(rng, max_extent=40.0)
            try:
                payload = client.request(
                    op="select", relation=name, column="shape",
                    rect=[window.xmin, window.ymin,
                          window.xmax, window.ymax],
                    theta="overlaps", deadline_ms=30_000,
                )
            except Exception as exc:
                failures.append(f"reader {worker}: {exc!r}")
                return
            with obs_lock:
                observations.append(
                    (name, payload["epoch"], window,
                     sorted(payload["oids"]))
                )
            bump("reads")
        bump("retries", client.retries_total)

    def run_writer(worker: int) -> None:
        rng = random.Random(SEED * 200 + worker)
        client = QueryClient(
            *server.address, timeout=15.0,
            retry=RetryPolicy(max_attempts=12, base_delay=0.005,
                              max_delay=0.08, seed=SEED * 20 + worker),
        )
        with clients_lock:
            clients.append(client)
        next_oid = 50_000 * (worker + 1)
        mine: list[int] = []
        for _ in range(OPS_PER_CLIENT):
            name = "r" if worker % 2 == 0 else "s"
            try:
                if mine and rng.random() < 0.3:
                    oid = mine.pop(rng.randrange(len(mine)))
                    payload = client.request(op="delete", relation=name,
                                             oid=oid)
                    if payload["deleted"]:
                        model.delete(name, oid, payload["epoch"])
                else:
                    oid = next_oid
                    next_oid += 1
                    rect = seeded_rect(rng)
                    payload = client.request(
                        op="insert", relation=name, oid=oid,
                        rect=[rect.xmin, rect.ymin, rect.xmax, rect.ymax],
                    )
                    model.insert(name, oid, rect, payload["epoch"])
                    mine.append(oid)
            except Exception as exc:
                failures.append(f"writer {worker}: {exc!r}")
                return
            bump("writes")

    threads = [
        threading.Thread(target=run_reader, args=(i,), name=f"chaos-reader-{i}")
        for i in range(READERS)
    ] + [
        threading.Thread(target=run_writer, args=(i,), name=f"chaos-writer-{i}")
        for i in range(WRITERS)
    ]
    assert len(threads) == 8
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=180.0)
    assert not any(t.is_alive() for t in threads), "chaos workload hung"
    assert failures == []
    assert tallies["reads"] == READERS * OPS_PER_CLIENT
    assert tallies["writes"] == WRITERS * OPS_PER_CLIENT

    # Audit barrier: with injection off, one clean round-trip per
    # direction consumes any still-pending fault events.
    plan.enabled = False
    with QueryClient(*proxy.address, timeout=15.0,
                     retry=RetryPolicy(max_attempts=5,
                                       base_delay=0.01)) as probe:
        assert probe.request(op="ping")["pong"] is True
    assert plan.outstanding == 0, plan.describe_events()
    if plan.injected:  # the seeds CI runs all inject at these rates
        assert tallies["retries"] > 0, \
            "faults were injected but no client ever retried"

    # Differential check, post-hoc: every observed answer must equal
    # the model's reconstruction at its pinned epoch.
    for name, epoch, window, got in observations:
        want = model.select(name, window, theta, epoch)
        assert got == want, (
            f"select {name}@{epoch}: got {len(got)} oids, want {len(want)}"
        )

    for c in clients:
        c.close()
    proxy.stop()
    server.stop(drain_timeout=5.0)

    # Shutdown invariants: nothing in flight, nothing leaked.
    assert service.health()["inflight"] == 0
    assert server._reap_conn_threads() == []
    leaked = [
        t.name for t in threading.enumerate()
        if t.name.startswith(("query-server", "chaos-pump",
                              "chaos-proxy"))
    ]
    assert leaked == [], f"leaked threads: {leaked}"
    assert service.sessions_active == 0
