"""Cooperative cancellation: one token per query, checked at boundaries.

A :class:`CancellationToken` is created per request (optionally carrying
a deadline) and threaded through
:class:`~repro.core.executor.SpatialQueryExecutor` into the long-running
kernels.  Cancellation is *cooperative*: nothing is interrupted
asynchronously; instead the executor calls :meth:`CancellationToken.check`
at well-defined boundaries --

* before every strategy attempt of the fallback chain,
* before every group of tiles of a partition join's sweep,
* at every tree level of Algorithm SELECT / Algorithm JOIN (and per
  node pop on the DFS path),
* once more after a strategy returns, before its result may be admitted
  to the query cache (a result that finished past its deadline belongs
  to nobody and must not poison the cache).

``check`` raises :class:`~repro.errors.DeadlineExceeded` when the
token's own deadline has passed and :class:`~repro.errors.QueryCancelled`
when :meth:`cancel` was called (drain, client abort, watchdog).  Both
are ``retryable=False`` and deliberately *not* storage errors, so
they unwind straight through the executor's fallback chain instead of
triggering another (equally doomed) strategy.

Tokens transition exactly once.  ``on_cancel`` observes that single
transition regardless of who noticed first -- the service watchdog or
the query's own boundary check -- which is what lets the service meter
``server.deadline_exceeded`` without double counting.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.errors import DeadlineExceeded, QueryCancelled

Clock = Callable[[], float]


class CancellationToken:
    """One query's cancellation flag, with an optional deadline.

    ``deadline`` is an absolute timestamp on ``clock`` (defaults to
    :func:`time.monotonic`); prefer :meth:`with_timeout` to build one
    from a relative budget.  The fast path of :meth:`check` is a flag
    read plus (only when a deadline exists) one clock call -- cheap
    enough for per-tree-level use.
    """

    __slots__ = ("deadline", "_clock", "_error", "_lock", "_on_cancel")

    def __init__(
        self,
        *,
        deadline: float | None = None,
        clock: Clock = time.monotonic,
        on_cancel: Callable[[QueryCancelled], None] | None = None,
    ) -> None:
        self.deadline = deadline
        self._clock = clock
        self._error: QueryCancelled | None = None
        self._lock = threading.Lock()
        self._on_cancel = on_cancel

    @classmethod
    def with_timeout(
        cls,
        seconds: float,
        *,
        clock: Clock = time.monotonic,
        on_cancel: Callable[[QueryCancelled], None] | None = None,
    ) -> "CancellationToken":
        """A token whose deadline is ``seconds`` from now."""
        return cls(deadline=clock() + seconds, clock=clock, on_cancel=on_cancel)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def cancelled(self) -> bool:
        """True once the token fired (explicitly or via its deadline)."""
        return self._error is not None

    @property
    def error(self) -> QueryCancelled | None:
        """The exception :meth:`check` raises, once cancelled."""
        return self._error

    def expired(self) -> bool:
        """Has the deadline passed?  (Does not transition the token.)"""
        return self.deadline is not None and self._clock() >= self.deadline

    def remaining(self) -> float | None:
        """Seconds until the deadline, or None when unbounded."""
        if self.deadline is None:
            return None
        return self.deadline - self._clock()

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------

    def cancel(self, error: QueryCancelled | str | None = None) -> bool:
        """Fire the token; returns True if this call made the transition.

        ``error`` customizes what :meth:`check` raises (an exception
        instance, or a message for a plain :class:`QueryCancelled`).
        Later calls are no-ops: the first cause wins.
        """
        if isinstance(error, str):
            error = QueryCancelled(error)
        elif error is None:
            error = QueryCancelled("query cancelled")
        return self._fire(error)

    def _fire(self, error: QueryCancelled) -> bool:
        with self._lock:
            if self._error is not None:
                return False
            self._error = error
        if self._on_cancel is not None:
            self._on_cancel(error)
        return True

    # ------------------------------------------------------------------
    # The boundary check
    # ------------------------------------------------------------------

    def check(self) -> None:
        """Raise if cancelled, or transition-and-raise if past deadline."""
        error = self._error
        if error is None:
            if self.deadline is None or self._clock() < self.deadline:
                return
            self._fire(DeadlineExceeded(
                f"query exceeded its deadline "
                f"({(self._clock() - self.deadline) * 1000.0:.1f} ms over)"
            ))
            error = self._error
        raise error


def check_cancel(token: "CancellationToken | None") -> None:
    """``token.check()`` tolerant of the common ``None`` (no token) case."""
    if token is not None:
        token.check()
