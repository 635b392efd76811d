"""Concurrency stress: N sessions, mixed workload, snapshot isolation.

Eight threaded sessions hammer two shared relations with SELECTs, JOINs,
inserts and deletes.  Every committed write appends to an epoch-stamped
op log *inside the write lock* (via ``on_commit``), so the log is in
true commit order; every read returns its pinned epoch(s).  The model
(:class:`tests.oracle.Model`) reconstructs each relation's exact row set
at any epoch from the log and checks every concurrent answer against it:

* a SELECT's oids must equal the predicate evaluated over the rows
  at the pinned epoch;
* a JOIN's oid pairs must equal the nested-loop join of the two
  reconstructions at the pinned epoch pair;
* additionally, a sample of SELECT answers is re-executed
  single-threaded through a fresh executor over a relation *rebuilt*
  at the pinned epoch -- the literal differential check.

``SERVER_STRESS_SEED`` seeds the workload (the CI soak matrix runs
1/7/42); overload shedding and snapshot conflicts are tolerated and
counted, never hidden.
"""

from __future__ import annotations

import os
import random
import threading

from repro.cache import QueryCache
from repro.errors import ServerBusy, SnapshotConflict
from repro.geometry.rect import Rect
from repro.predicates.theta import Overlaps
from repro.server import ServiceConfig

from tests.oracle import Model
from tests.server.conftest import build_service, build_relation, seeded_rect

SEED = int(os.environ.get("SERVER_STRESS_SEED", "1"))
SESSIONS = 8
OPS_PER_SESSION = 25
BASE_ROWS = 40


def test_eight_sessions_see_snapshot_isolated_answers():
    service, base = build_service(
        count=BASE_ROWS,
        cache=QueryCache(),
        config=ServiceConfig(max_inflight=6, snapshot_retries=6),
    )
    model = Model()
    for name in ("r", "s"):
        model.load(name, base[name], service.state.get(name).modification_count)
    theta = Overlaps()
    failures: list[str] = []
    tallies = {"reads": 0, "writes": 0, "shed": 0, "conflicts": 0}
    tally_lock = threading.Lock()
    select_checks: list[tuple[str, int, Rect, list[int]]] = []

    def bump(key: str) -> None:
        with tally_lock:
            tallies[key] += 1

    def run_reader(worker: int) -> None:
        rng = random.Random(SEED * 1000 + worker)
        with service.open_session() as session:
            for _ in range(OPS_PER_SESSION):
                window = seeded_rect(rng, max_extent=40.0)
                try:
                    if rng.random() < 0.6:
                        name = rng.choice(("r", "s"))
                        result, epoch = session.select(
                            name, "shape", window, theta
                        )
                        got = sorted(t["oid"] for _tid, t in result.matches)
                        want = model.select(name, window, theta, epoch)
                        if got != want:
                            failures.append(
                                f"select {name}@{epoch}: got {got}, want {want}"
                            )
                        elif rng.random() < 0.1:
                            select_checks.append((name, epoch, window, got))
                    else:
                        result, (e_r, e_s) = session.join(
                            "r", "shape", "s", "shape", theta,
                            collect_tuples=True,
                        )
                        got = sorted(
                            (a["oid"], b["oid"]) for a, b in result.tuples
                        )
                        want = model.join("r", "s", theta, (e_r, e_s))
                        if got != want:
                            failures.append(
                                f"join @({e_r},{e_s}): {len(got)} pairs, "
                                f"want {len(want)}"
                            )
                    bump("reads")
                except ServerBusy:
                    bump("shed")
                except SnapshotConflict:
                    bump("conflicts")

    def run_writer(worker: int) -> None:
        rng = random.Random(SEED * 2000 + worker)
        next_oid = 10_000 * (worker + 1)
        with service.open_session() as session:
            for _ in range(OPS_PER_SESSION):
                name = rng.choice(("r", "s"))
                try:
                    if rng.random() < 0.65:
                        oid = next_oid
                        next_oid += 1
                        rect = seeded_rect(rng)
                        session.insert(
                            name, [oid, rect],
                            on_commit=lambda e, n=name, o=oid, rc=rect:
                                model.insert(n, o, rc, e),
                        )
                    else:
                        target = rng.choice(list(model.rows(name)) or [0])
                        session.delete_where(
                            name, lambda t, tgt=target: t["oid"] == tgt,
                            on_commit=lambda e, n=name, tgt=target:
                                model.delete(n, tgt, e),
                        )
                    bump("writes")
                except ServerBusy:
                    bump("shed")

    threads = [
        threading.Thread(target=run_reader, args=(i,)) for i in range(5)
    ] + [
        threading.Thread(target=run_writer, args=(i,)) for i in range(3)
    ]
    assert len(threads) == SESSIONS
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    assert not any(t.is_alive() for t in threads), "stress workload hung"

    assert failures == []
    assert tallies["reads"] > 0 and tallies["writes"] > 0
    # Every pinned epoch a reader reported must be a committed epoch:
    # no read ever validated against a mid-write state.
    for name in ("r", "s"):
        committed = set(model.epochs(name))
        for chk_name, epoch, _, _ in select_checks:
            if chk_name == name:
                assert epoch in committed

    # Differential spot-check: rebuild the relation at the pinned epoch
    # and re-execute the same SELECT single-threaded.
    from repro.core.executor import SpatialQueryExecutor

    solo = SpatialQueryExecutor()
    for name, epoch, window, got in select_checks[:10]:
        rebuilt, _ = build_relation(f"rebuilt-{name}-{epoch}", 0, seed=0)
        for oid, rect in sorted(model.rows(name, epoch).items()):
            rebuilt.insert([oid, rect])
        solo_result = solo.select(rebuilt, "shape", window, theta)
        assert sorted(t["oid"] for _tid, t in solo_result.matches) == got

    # The shared metrics saw the same traffic the tallies did.
    snapshot = service.metrics.snapshot()
    queries = sum(s["value"] for s in snapshot.get("server.queries", []))
    assert queries >= tallies["reads"] + tallies["writes"]


def test_conflict_and_shed_paths_are_exercised_and_metered():
    """Force both admission-control outcomes under real concurrency.

    The stress test above tolerates shed/conflict; this one *requires*
    them, with a tiny capacity and a write-heavy interleave, so the CI
    soak proves the paths run (acceptance: both exercised and metered).
    """
    service, _ = build_service(
        count=20,
        config=ServiceConfig(max_inflight=1, snapshot_retries=4),
    )
    theta = Overlaps()
    stop = threading.Event()
    shed_seen = threading.Event()

    def hammer_reads(worker: int) -> None:
        rng = random.Random(SEED + worker)
        with service.open_session() as session:
            while not stop.is_set():
                try:
                    session.select(
                        "r", "shape", seeded_rect(rng, 30.0), theta
                    )
                except ServerBusy:
                    shed_seen.set()

    threads = [
        threading.Thread(target=hammer_reads, args=(i,)) for i in range(3)
    ]
    for t in threads:
        t.start()
    shed_seen.wait(timeout=30.0)
    stop.set()
    for t in threads:
        t.join(timeout=30.0)
    assert shed_seen.is_set(), "max_inflight=1 under 3 sessions never shed"
    snapshot = service.metrics.snapshot()
    shed = sum(s["value"] for s in snapshot.get("server.shed", []))
    assert shed >= 1

    # Conflicts: a reader whose first attempt always overlaps a write.
    conflict_service, _ = build_service(count=20)
    session = conflict_service.open_session()
    rel = conflict_service.state.get("r")
    first = []

    def racy(pin):
        if not first:
            first.append(1)
            conflict_service.state.write(
                "r", lambda r: r.insert([5000, Rect(1, 1, 2, 2)])
            )
        return True

    conflict_service.run_read(session, "select", (rel,), racy)
    session.close()
    snapshot = conflict_service.metrics.snapshot()
    conflicts = sum(
        s["value"] for s in snapshot.get("server.conflicts", [])
    )
    assert conflicts == 1
