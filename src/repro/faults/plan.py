"""Deterministic fault plans: *what* fails, *when*, reproducibly.

A :class:`FaultPlan` is the single source of truth for injected storage,
network and shard failures.  It is seeded, so two runs with the same seed and
the same access sequence inject the identical fault sequence -- the
property every "survives faults" test relies on.

The plan also keeps the books: every injected fault is logged as a
:class:`FaultEvent`, and the event is marked *consumed* once a retry or
a recovery path got past it.  An execution that claims to have survived
a fault run can therefore be audited: ``injected == consumed`` (for
transient faults) means no fault was silently dropped.

Two knobs bound the adversary so bounded-retry recovery is guaranteed to
terminate:

* ``max_burst`` caps *consecutive* transient failures per page and
  operation -- after ``max_burst`` failures in a row the next attempt is
  forced to succeed, so any retry budget larger than ``max_burst`` wins;
* ``read_outages`` schedules an exact number of failures for a specific
  page, for tests that need a strategy to fail deterministically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum


class FaultKind(str, Enum):
    """What kind of failure was injected."""

    TRANSIENT_READ = "transient-read"
    TRANSIENT_WRITE = "transient-write"
    TORN_WRITE = "torn-write"
    PERMANENT_READ = "permanent-read"
    CRASH = "crash"
    NET_DROP = "net-drop"
    NET_STALL = "net-stall"
    NET_GARBLE = "net-garble"
    NET_PARTIAL = "net-partial"
    SHARD_KILL = "shard-kill"


#: Fault kinds injected on the wire (by :class:`~repro.faults.net.ChaosProxy`)
#: rather than on the simulated disk.
NET_FAULT_KINDS = frozenset({
    FaultKind.NET_DROP,
    FaultKind.NET_STALL,
    FaultKind.NET_GARBLE,
    FaultKind.NET_PARTIAL,
})


@dataclass(slots=True)
class FaultEvent:
    """One injected fault: its kind, its target, and whether recovery
    got past it (``consumed``)."""

    kind: FaultKind
    target: int
    op_index: int
    consumed: bool = False

    def describe(self) -> str:
        state = "consumed" if self.consumed else "outstanding"
        if self.kind is FaultKind.CRASH:
            noun = "physical write"
        elif self.kind in NET_FAULT_KINDS:
            noun = "connection"
        elif self.kind is FaultKind.SHARD_KILL:
            noun = "shard"
        else:
            noun = "page"
        return f"{self.kind.value} on {noun} {self.target} ({state})"


class FaultPlan:
    """Seeded schedule of storage, network and shard faults.

    ``read_rate`` / ``write_rate`` / ``torn_rate`` are per-access
    Bernoulli probabilities for transient read failures, transient write
    failures and torn writes.  ``lost_pages`` are permanently
    unreadable.  ``read_outages`` maps a page id to an exact count of
    forced transient read failures (consumed first, before any random
    draw).  ``crash_at_write`` schedules a whole-process crash at an
    exact physical-write index (``crash_torn_tail`` lands the in-flight
    write torn), freezing the disk's durable image for crash-recovery
    testing.

    The ``net_*`` knobs drive the network side
    (:class:`~repro.faults.net.ChaosProxy`): per-line Bernoulli rates for
    connection drops, read/write stalls of ``net_stall_seconds``, garbled
    reply bytes and partially-written lines.  Network draws come from a
    *separate* rng stream (derived from the same seed), so enabling wire
    chaos does not perturb the disk fault schedule -- a test can hold its
    storage faults fixed while dialing network chaos up and down.  Net
    faults share ``max_burst``: after ``max_burst`` consecutive faults in
    one direction the next line is forced through, so a retry budget
    larger than ``max_burst`` always wins.

    The shard knob drives the supervised shard runtime
    (:mod:`repro.shard`): ``kill_shard_at`` schedules process kills at
    exact global dispatch indices (shard id ``-1`` = whichever shard the
    dispatch targets), each consumed exactly once.  It draws nothing at
    random, so it leaves the disk and net streams as they are.

    ``enabled`` gates all injection; flip it off to verify state without
    interference (tests do this after a faulted workload).
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        read_rate: float = 0.0,
        write_rate: float = 0.0,
        torn_rate: float = 0.0,
        lost_pages: frozenset[int] | set[int] = frozenset(),
        read_outages: dict[int, int] | None = None,
        max_burst: int = 3,
        crash_at_write: int | None = None,
        crash_torn_tail: bool = False,
        net_drop_rate: float = 0.0,
        net_stall_rate: float = 0.0,
        net_garble_rate: float = 0.0,
        net_partial_rate: float = 0.0,
        net_stall_seconds: float = 0.05,
        kill_shard_at: dict[int, int] | None = None,
    ) -> None:
        for name, rate in (("read_rate", read_rate), ("write_rate", write_rate),
                           ("torn_rate", torn_rate),
                           ("net_drop_rate", net_drop_rate),
                           ("net_stall_rate", net_stall_rate),
                           ("net_garble_rate", net_garble_rate),
                           ("net_partial_rate", net_partial_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if net_stall_seconds < 0:
            raise ValueError(
                f"net_stall_seconds must be >= 0, got {net_stall_seconds}"
            )
        if max_burst < 1:
            raise ValueError(f"max_burst must be positive, got {max_burst}")
        if crash_at_write is not None and crash_at_write < 0:
            raise ValueError(f"crash_at_write must be >= 0, got {crash_at_write}")
        self.seed = seed
        self.read_rate = read_rate
        self.write_rate = write_rate
        self.torn_rate = torn_rate
        self.lost_pages = set(lost_pages)
        self.read_outages = dict(read_outages or {})
        self.max_burst = max_burst
        #: Physical-write index (successful writes so far) at which the
        #: disk crashes: the scheduled write does not complete and the
        #: durable image freezes.  ``None`` disables crash scheduling.
        self.crash_at_write = crash_at_write
        #: With ``crash_torn_tail=True`` the in-flight write lands *torn*
        #: in the frozen image (its last frame is garbage) instead of not
        #: landing at all -- the classic torn log tail.
        self.crash_torn_tail = crash_torn_tail
        self.net_drop_rate = net_drop_rate
        self.net_stall_rate = net_stall_rate
        self.net_garble_rate = net_garble_rate
        self.net_partial_rate = net_partial_rate
        self.net_stall_seconds = net_stall_seconds
        #: Shard-kill schedule: global dispatch index -> shard id to kill
        #: *before* that dispatch goes out.  Shard id ``-1`` means "the
        #: shard currently being dispatched to" -- the exhaustive oracle
        #: uses it to kill at every boundary without knowing routing.
        self.kill_shard_at = dict(kill_shard_at or {})
        for idx in self.kill_shard_at:
            if idx < 0:
                raise ValueError(
                    f"kill_shard_at indices must be >= 0, got {idx}"
                )
        self.enabled = True
        self.events: list[FaultEvent] = []
        self._rng = random.Random(seed)
        # Independent stream for wire faults so the disk schedule is
        # identical with or without network chaos under the same seed.
        self._net_rng = random.Random(f"net:{seed}")
        self._shard_kills_taken: set[int] = set()
        self._op_index = 0
        # Consecutive-failure counters per (op, page), reset on success.
        self._bursts: dict[tuple[str, int], int] = {}
        # Injected-but-not-yet-consumed events per (op, page).
        self._pending: dict[tuple[str, int], list[FaultEvent]] = {}

    # ------------------------------------------------------------------
    # Decision points (called by FaultyDisk / the shard runtime)
    # ------------------------------------------------------------------

    def is_lost(self, page_id: int) -> bool:
        """True when the page is permanently unreadable; logs one event
        per distinct lost page actually hit."""
        if not self.enabled or page_id not in self.lost_pages:
            return False
        if not any(
            e.kind is FaultKind.PERMANENT_READ and e.target == page_id
            for e in self.events
        ):
            self._log(FaultKind.PERMANENT_READ, page_id, pending=False)
        return True

    def draw_read_fault(self, page_id: int) -> FaultEvent | None:
        """Decide whether *this* read attempt of ``page_id`` fails."""
        if not self.enabled:
            return None
        outage = self.read_outages.get(page_id, 0)
        if outage > 0:
            self.read_outages[page_id] = outage - 1
            return self._log(FaultKind.TRANSIENT_READ, page_id)
        return self._draw("read", page_id, self.read_rate, FaultKind.TRANSIENT_READ)

    def draw_write_fault(self, page_id: int) -> FaultEvent | None:
        """Decide whether this write attempt fails (or lands torn).

        Transient write failures take priority; a write that does go
        through may independently land torn.
        """
        if not self.enabled:
            return None
        ev = self._draw("write", page_id, self.write_rate, FaultKind.TRANSIENT_WRITE)
        if ev is not None:
            return ev
        return self._draw("torn", page_id, self.torn_rate, FaultKind.TORN_WRITE)

    def should_crash_at(self, write_index: int) -> bool:
        """Pure decision: does the disk crash *instead of* completing the
        physical write with this index (successful writes so far)?"""
        return (
            self.enabled
            and self.crash_at_write is not None
            and write_index == self.crash_at_write
        )

    def draw_net_fault(self, conn_id: int, direction: str) -> FaultEvent | None:
        """Decide whether the next wire line on ``conn_id`` is faulted.

        ``direction`` is ``"c2s"`` (client requests) or ``"s2c"`` (server
        replies).  Drops and stalls may hit either direction; garbled and
        partially-written lines are injected only server-to-client --
        corrupting a *request* could mutate it into a different but valid
        request, which no client-side recovery can detect.  Consecutive
        faults per direction are capped at ``max_burst`` (shared across
        reconnections), so a bounded retry loop always terminates.
        """
        if not self.enabled:
            return None
        if direction not in ("c2s", "s2c"):
            raise ValueError(
                f"direction must be 'c2s' or 's2c', got {direction!r}"
            )
        op = f"net-{direction}"
        kinds = [
            (self.net_drop_rate, FaultKind.NET_DROP),
            (self.net_stall_rate, FaultKind.NET_STALL),
        ]
        if direction == "s2c":
            kinds += [
                (self.net_partial_rate, FaultKind.NET_PARTIAL),
                (self.net_garble_rate, FaultKind.NET_GARBLE),
            ]
        if all(rate <= 0.0 for rate, _ in kinds):
            return None
        # The burst key is the *direction*, not the connection: a drop
        # kills the connection, so per-connection counters would never
        # cap a drop storm across reconnect attempts.
        if self._bursts.get((op, 0), 0) >= self.max_burst:
            return None
        for rate, kind in kinds:
            if rate > 0.0 and self._net_rng.random() < rate:
                self._bursts[(op, 0)] = self._bursts.get((op, 0), 0) + 1
                return self._log(kind, conn_id, op=op)
        return None

    def note_net_success(self, direction: str) -> None:
        """A line was forwarded cleanly: the direction's pending net
        faults were survived (reconnected / retried past); consume them
        and reset the burst counter."""
        op = f"net-{direction}"
        self._bursts.pop((op, 0), None)
        for key in [k for k in self._pending if k[0] == op]:
            for ev in self._pending.pop(key):
                ev.consumed = True

    def take_shard_kill(
        self, dispatch_index: int, current_shard: int
    ) -> int | None:
        """Shard id to kill before dispatch ``dispatch_index``, or None.

        Each scheduled kill fires exactly once (the dispatch counter is
        global and monotonic, so re-dispatches after failover get fresh
        indices and do not re-trigger a consumed kill).  A scheduled
        shard id of ``-1`` resolves to ``current_shard``.  The event is
        logged pending; the supervisor consumes it via
        :meth:`note_shard_restart` once recovery brought the shard back.
        """
        if not self.enabled or dispatch_index in self._shard_kills_taken:
            return None
        target = self.kill_shard_at.get(dispatch_index)
        if target is None:
            return None
        self._shard_kills_taken.add(dispatch_index)
        shard_id = current_shard if target == -1 else target
        self._log(FaultKind.SHARD_KILL, shard_id, op="shard")
        return shard_id

    def note_shard_restart(self, shard_id: int) -> None:
        """The supervisor restarted ``shard_id``: consume its pending
        kill events."""
        self.note_success("shard", shard_id)

    # ------------------------------------------------------------------
    # Outcome notifications
    # ------------------------------------------------------------------

    def note_success(self, op: str, page_id: int) -> None:
        """A retried access went through: consume its pending faults."""
        self._bursts.pop((op, page_id), None)
        if op == "write":
            # A clean write also ends any torn-write burst on the page.
            self._bursts.pop(("torn", page_id), None)
        for ev in self._pending.pop((op, page_id), []):
            ev.consumed = True

    def note_crash(self, write_index: int) -> FaultEvent:
        """Log the disk crash itself (once, by the disk that froze).

        The event starts outstanding; :meth:`mark_crash_recovered` flips
        it to consumed once :func:`repro.wal.recover` replays the image.
        """
        return self._log(FaultKind.CRASH, write_index, pending=False)

    def mark_crash_recovered(self) -> None:
        """Recovery replayed the frozen image: consume the crash event."""
        for ev in self.events:
            if ev.kind is FaultKind.CRASH:
                ev.consumed = True

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    @property
    def injected(self) -> int:
        return len(self.events)

    @property
    def consumed(self) -> int:
        return sum(1 for e in self.events if e.consumed)

    @property
    def outstanding(self) -> int:
        return self.injected - self.consumed

    def summary(self) -> dict[str, int]:
        """Counter triple for reports: injected / consumed / outstanding."""
        return {
            "injected": self.injected,
            "consumed": self.consumed,
            "outstanding": self.outstanding,
        }

    def describe_events(self) -> list[str]:
        return [e.describe() for e in self.events]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _draw(
        self, op: str, page_id: int, rate: float, kind: FaultKind
    ) -> FaultEvent | None:
        if rate <= 0.0:
            return None
        key = (op, page_id)
        if self._bursts.get(key, 0) >= self.max_burst:
            # Burst cap reached: force success so bounded retries always
            # terminate.  The counter resets via note_success.
            return None
        if self._rng.random() >= rate:
            return None
        self._bursts[key] = self._bursts.get(key, 0) + 1
        return self._log(kind, page_id)

    def _log(
        self, kind: FaultKind, target: int, *, pending: bool = True,
        op: str | None = None,
    ) -> FaultEvent:
        ev = FaultEvent(kind=kind, target=target, op_index=self._op_index)
        self._op_index += 1
        self.events.append(ev)
        if pending:
            if op is None:
                op = {
                    FaultKind.TRANSIENT_READ: "read",
                    FaultKind.TRANSIENT_WRITE: "write",
                    # A torn write is detected (and survived) on a *read*.
                    FaultKind.TORN_WRITE: "read",
                }[kind]
            self._pending.setdefault((op, target), []).append(ev)
        return ev
