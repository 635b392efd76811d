"""The service flight recorder: a bounded ring of structured events.

Metrics aggregate *how much* (counters, histograms); traces explain *one
request*.  Neither answers "what just happened to the fleet?" when a
query surfaces :class:`~repro.errors.ShardUnavailable` at 3am: was there
a restart?  A generation bump?  A burst of sheds?  The flight recorder
keeps the last ``capacity`` structured events -- restarts, WAL
recoveries, failovers, sheds, deadline hits, snapshot conflicts, drains
-- in a thread-safe ring buffer with **monotonically increasing event
ids**, so a dump is always a consistent, ordered, bounded tail of
recent history.

Recording is cheap (one lock, one deque append) and never fails: the
recorder exists so error paths can afford to call it.  Consumers:

* the ``stats`` protocol op and :meth:`QueryService.stats` dump the
  recent tail;
* :class:`~repro.errors.ShardUnavailable` / ``ServerBusy`` error
  payloads carry the last few events (``flight_events``), so the error
  a client sees already names the restarts/sheds that caused it;
* ``python -m repro obs`` renders the tail in its dashboard.

Event ids survive ring eviction -- ``dropped`` counts evicted events, so
a reader can tell "quiet system" from "so noisy the ring wrapped".
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ObservabilityError

#: Default ring capacity: enough for a soak's worth of incidents while
#: staying trivially serializable into an error payload or stats reply.
DEFAULT_CAPACITY = 256


@dataclass(slots=True, frozen=True)
class FlightEvent:
    """One recorded incident: id, kind, wall-clock stamp, free-form fields."""

    event_id: int
    kind: str
    wall_time: float
    fields: dict[str, Any] = field(default_factory=dict)

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe view (fields are copied, never aliased)."""
        return {
            "id": self.event_id,
            "kind": self.kind,
            "at": self.wall_time,
            "fields": dict(self.fields),
        }


class FlightRecorder:
    """Thread-safe bounded ring of :class:`FlightEvent` records."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ObservabilityError(
                f"flight recorder capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._events: deque[FlightEvent] = deque(maxlen=capacity)
        self._next_id = 1
        self._recorded = 0
        self._lock = threading.Lock()

    def record(self, kind: str, **fields: Any) -> FlightEvent:
        """Append one event; returns it (ids are strictly increasing)."""
        if not kind:
            raise ObservabilityError("flight event kind must be non-empty")
        with self._lock:
            event = FlightEvent(
                event_id=self._next_id,
                kind=kind,
                wall_time=time.time(),
                fields=fields,
            )
            self._next_id += 1
            self._recorded += 1
            self._events.append(event)
        return event

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def recorded(self) -> int:
        """Total events ever recorded (including evicted ones)."""
        with self._lock:
            return self._recorded

    @property
    def dropped(self) -> int:
        """Events evicted by the ring bound."""
        with self._lock:
            return self._recorded - len(self._events)

    def events(self, *, limit: int | None = None) -> list[FlightEvent]:
        """The retained tail, oldest first; ``limit`` keeps the *newest*
        N of it."""
        with self._lock:
            out = list(self._events)
        if limit is not None and limit >= 0:
            out = out[-limit:] if limit else []
        return out

    def snapshot(self, *, limit: int | None = None) -> list[dict[str, Any]]:
        """JSON-safe view of :meth:`events`."""
        return [e.snapshot() for e in self.events(limit=limit)]

    def tail(self, n: int = 6) -> list[dict[str, Any]]:
        """The newest ``n`` events, JSON-safe -- what error payloads carry."""
        return self.snapshot(limit=n)
