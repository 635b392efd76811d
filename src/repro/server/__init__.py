"""Concurrent multi-session query service with epoch-pinned snapshot reads.

Layering, bottom up:

* :mod:`repro.server.state` -- the :class:`StateManager` owning the
  shared relations; per-relation write locks and the epoch-pin seqlock
  that gives readers snapshot semantics without blocking;
* :mod:`repro.server.service` -- :class:`QueryService` (shared executor,
  cache, metrics, admission control) and :class:`Session` (per-client
  front-end, traced only when handed a tracer);
* :mod:`repro.server.protocol` -- the JSON line protocol shared by every
  transport;
* :mod:`repro.server.net` -- TCP server (thread per session) with
  graceful drain, and a client with retry/backoff
  (:class:`~repro.server.net.RetryPolicy`).

See ``docs/server.md`` for the protocol and the concurrency rules, and
``docs/robustness.md`` for the resilience layer (deadlines, cooperative
cancellation, drain, retries, network chaos).
"""

from repro.core.cancel import CancellationToken
from repro.relational.relation import EpochPin
from repro.server.net import (
    IDEMPOTENT_OPS,
    QueryClient,
    QueryServer,
    RetryPolicy,
)
from repro.server.protocol import handle_request, parse_request
from repro.server.service import QueryService, ServiceConfig, Session
from repro.server.state import DEFAULT_READ_RETRIES, StateManager

__all__ = [
    "DEFAULT_READ_RETRIES",
    "IDEMPOTENT_OPS",
    "CancellationToken",
    "EpochPin",
    "QueryClient",
    "QueryServer",
    "QueryService",
    "RetryPolicy",
    "ServiceConfig",
    "Session",
    "StateManager",
    "handle_request",
    "parse_request",
]
