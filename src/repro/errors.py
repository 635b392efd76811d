"""Exception hierarchy for the spatial-joins reproduction library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package.

    ``retryable`` is the client-facing contract of every error: True
    means the failed request was *not executed* (or is otherwise safe to
    re-issue verbatim) and a retry may succeed.  Subclasses override the
    class attribute or set an instance attribute where retryability is
    per-instance (e.g. :class:`ServerBusy`).
    """

    retryable = False


class GeometryError(ReproError):
    """Invalid geometric input (degenerate polygon, negative radius, ...)."""


class PredicateError(ReproError):
    """A theta/Theta operator was applied to unsupported operand types."""


class StorageError(ReproError):
    """Simulated-disk layer failure (bad page id, record overflow, ...)."""


class TransientStorageError(StorageError):
    """A page access that failed *this time* but may succeed on retry.

    The fault-injection layer raises this for flaky reads/writes; the
    buffer pool absorbs it with bounded retries.  Anything that escapes
    the pool did so only after the retry budget was exhausted.
    """


class PermanentStorageError(StorageError):
    """A page that is gone for good -- retrying cannot bring it back.

    Raised for injected permanent page losses.  The buffer pool does not
    retry these; recovery, if any, happens at the execution layer
    (strategy fallback or chunk re-execution).
    """


class TornPageError(TransientStorageError):
    """A read found a page whose checksum does not match its content.

    Models a torn (partially persisted) write detected on the next read.
    It is transient: the simulated recovery path restores the page from
    its in-memory twin, so a retry succeeds.
    """


class CrashError(StorageError):
    """The simulated device crashed: its durable image is frozen.

    Raised by a :class:`~repro.faults.disk.FaultyDisk` once a scheduled
    crash point is reached, and for every access afterwards.  It is *not*
    transient -- no retry can talk to a crashed disk.  The only way
    forward is :func:`repro.wal.recover` over the frozen image.
    """


class WALError(StorageError):
    """Write-ahead-log protocol violation.

    Most importantly: an attempt to flush a dirty data page whose log
    record has not yet reached the disk (the WAL rule), or malformed log
    state encountered outside recovery (recovery itself degrades
    gracefully -- a torn tail is truncated, not raised).
    """


class BufferPoolError(StorageError):
    """Buffer-pool misuse: over-pinning, eviction of a pinned page, ..."""


class RecordError(StorageError):
    """Record (de)serialization failure or out-of-range record id."""


class SchemaError(ReproError):
    """Relation schema violation (unknown column, wrong value type, ...)."""


class RelationError(ReproError):
    """Relation-level failure (duplicate tuple id, missing index, ...)."""


class BTreeError(ReproError):
    """B+-tree structural error or invalid key operation."""


class TreeError(ReproError):
    """Generalization-tree structural error (containment violation, ...)."""


class JoinError(ReproError):
    """Spatial join execution failure (missing index, bad strategy, ...)."""


class ExecutionError(JoinError):
    """Every strategy in the executor's fallback chain failed.

    Carries the per-attempt report so callers can see what was tried and
    why each attempt died.
    """

    def __init__(self, message: str, report: object | None = None) -> None:
        super().__init__(message)
        self.report = report


class QueryCancelled(ReproError):
    """The query's :class:`~repro.core.cancel.CancellationToken` fired.

    Raised by cooperative checks at strategy-attempt, partition-chunk
    and tree-level boundaries once the token was cancelled (by a drain,
    an explicit client abort, or the service watchdog).  Never
    retryable: the caller asked for the work to stop, so re-issuing the
    identical request would be self-defeating.  Cancellation unwinds
    through the executor's fallback chain without triggering fallbacks
    and vetoes cache admission of any partial or post-deadline result.
    """

    retryable = False


class DeadlineExceeded(QueryCancelled):
    """The query outlived its deadline and was cancelled.

    A :class:`QueryCancelled` whose cause is the request's own
    ``deadline_ms`` budget.  Also not retryable -- the same request
    would burn the same budget; callers should raise the deadline or
    reduce the work instead.
    """


class ServerError(ReproError):
    """Base class for multi-session query-service failures."""


class ServerBusy(ServerError):
    """Admission control shed this query: the service is at capacity.

    Raised when the in-flight query limit is reached or a session
    exhausted its query budget.  The request was *not* executed; the
    client may retry later.  ``retryable`` distinguishes overload (try
    again) from an exhausted per-session budget (open a new session).
    """

    def __init__(self, message: str, *, retryable: bool = True) -> None:
        super().__init__(message)
        self.retryable = retryable


class SessionError(ServerError):
    """Session lifecycle misuse (closed session, unknown session id)."""


class ShuttingDown(ServerError):
    """The service is draining: new queries are refused, retryably.

    Sent to in-flight sessions for requests that arrive after
    :meth:`~repro.server.service.QueryService.begin_drain` -- the
    request was *not* executed and another server (or this one, after a
    restart) can serve it, so the error is always retryable.
    """

    retryable = True


class SnapshotConflict(ServerError):
    """A reader's pinned epoch moved and its retry budget ran out.

    Epoch-pinned reads are optimistic: a concurrent writer bumping an
    operand relation's modification epoch invalidates the attempt and
    the reader re-executes at a fresh pin.  This error surfaces only
    after the bounded retries were all invalidated in turn.  Retryable:
    the conflicting writers have (by then) committed, so a fresh attempt
    pins a fresh epoch and usually validates.
    """

    retryable = True

    def __init__(self, message: str, *, attempts: int = 0) -> None:
        super().__init__(message)
        self.attempts = attempts


class ProtocolError(ServerError):
    """Malformed request/reply line, or a server-side error on the wire.

    On the client, every ``ERR`` reply surfaces as a ProtocolError
    carrying the server's exception type name (``server_type``) and its
    retryable flag as transmitted.  A ProtocolError with
    ``server_type=None`` is *transport-level*: a malformed or truncated
    reply line, a broken connection -- the request's outcome is unknown
    and only idempotent requests may be safely retried.
    """

    def __init__(self, message: str, *, retryable: bool = False,
                 server_type: str | None = None) -> None:
        super().__init__(message)
        self.retryable = retryable
        self.server_type = server_type


class ShardError(ReproError):
    """Base class for shard-runtime failures."""


class ShardCrashed(ShardError):
    """One shard *incarnation* died mid-request (exit, hang, poisoned IPC).

    Transport-level: the supervisor restarts the shard from its WAL and
    the router re-dispatches, so this error is normally absorbed by
    failover and never reaches callers.  Retryable by definition -- the
    request was not answered and the restarted incarnation can serve it.
    """

    retryable = True


class ShardUnavailable(ShardError):
    """A shard stayed down past the router's failover budget.

    The degraded-result contract of the shard runtime: a distributed
    query either transparently survives shard crashes (restart +
    re-dispatch) or raises this typed error -- it never returns a silent
    partial answer.  Retryable: the supervisor keeps restarting the
    shard, so a later attempt may find it healthy again.
    """

    retryable = True

    def __init__(self, message: str, *, shard_id: int = -1,
                 attempts: int = 0) -> None:
        super().__init__(message)
        self.shard_id = shard_id
        self.attempts = attempts


class CostModelError(ReproError):
    """Invalid cost-model parameterization (p out of range, n < 1, ...)."""


class ObservabilityError(ReproError):
    """Tracer/metrics misuse (unbalanced spans, metric type collision)."""


class WorkloadError(ReproError):
    """Synthetic workload generation failure (inconsistent parameters)."""


class IntermediateError(ReproError):
    """Raster-interval approximation misuse (mismatched universes,
    malformed interval sets, corrupt serialized approximations)."""
