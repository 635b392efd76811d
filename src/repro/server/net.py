"""TCP transport for the query service: thread-per-session server, client.

The server accepts connections on a listening socket and dedicates one
thread (and one :class:`~repro.server.service.Session`) to each -- the
session-per-thread model is what the executor's reentrancy and the
service's admission control were built for.  Requests and replies are
newline-delimited UTF-8 (see :mod:`repro.server.protocol`); a failed
request never kills the connection, only surfaces as an ``ERR`` line;
after protocol-level garbage the server keeps reading, but a request
line longer than :data:`MAX_LINE` is refused and its connection closed.
The client reads at most :data:`MAX_REPLY` bytes of a reply line.

Shutdown is *graceful by default*: :meth:`QueryServer.stop` stops
accepting, flips the service into drain mode (new requests on live
connections get a retryable ``ERR ShuttingDown!`` reply; ``ping`` and
``health`` keep answering), waits up to ``drain_timeout`` seconds for
in-flight queries, cancels stragglers through their cancellation
tokens, and only then closes the connection sockets -- which is what
actually unblocks connection threads parked in ``readline`` so they
exit and can be joined.

:class:`QueryClient` is the matching blocking client; it raises
:class:`~repro.errors.ProtocolError` for any ``ERR`` reply.  With a
:class:`RetryPolicy` it retries retryable failures (``ServerBusy``,
``SnapshotConflict``, ``ShuttingDown``) under bounded exponential
backoff with deterministic seeded jitter, and reconnects after broken
connections -- re-sending only *idempotent* requests there, because a
mid-reply EOF leaves a write's outcome unknown.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any

from repro.errors import ProtocolError, ReproError
from repro.server.protocol import (
    decode_response,
    encode_error,
    encode_ok,
    handle_request,
    parse_request,
)
from repro.server.service import QueryService

#: Requests that may be safely re-sent when a connection broke mid-call
#: and the original's outcome is unknown.  Writes are excluded: an
#: ``insert`` whose reply was lost may well have committed, and blindly
#: re-sending it would double-apply.
IDEMPOTENT_OPS = frozenset(
    {"ping", "health", "relations", "metrics", "select", "join"}
)

#: Longest request line the server reads, in bytes, newline excluded.  A
#: longer line gets a ``ProtocolError`` reply and the connection closes:
#: the rest of it cannot be told apart from the next request.
MAX_LINE = 1 << 20

#: Longest reply line the client reads, in bytes, newline excluded.  A
#: longer reply raises ``ProtocolError`` and marks the client broken.
#: The tests and ``perf/`` reply with at most ~1.2 kB; the bound still
#: holds a select answer of about two million oids.
MAX_REPLY = 1 << 24


class QueryServer:
    """Serve a :class:`QueryService` over TCP, one thread per connection.

    ``drain_timeout`` is the default grace :meth:`stop` gives in-flight
    queries before cancelling them through their tokens.
    """

    def __init__(self, service: QueryService, host: str = "127.0.0.1",
                 port: int = 0, *, drain_timeout: float = 5.0) -> None:
        self.service = service
        self.drain_timeout = drain_timeout
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        self.host, self.port = self._listener.getsockname()[:2]
        self._stop = threading.Event()
        self._stopped = False
        self._accept_thread: threading.Thread | None = None
        self._conn_threads: list[threading.Thread] = []
        #: Live connection sockets, so stop() can close them out from
        #: under a blocked ``readline`` and actually reclaim the threads.
        self._conns: dict[int, socket.socket] = {}
        self._conn_ids = 0
        self._conn_lock = threading.Lock()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def start(self) -> "QueryServer":
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="query-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self, drain_timeout: float | None = None) -> None:
        """Drain and shut down; safe to call more than once.

        1. stop accepting and close the listener;
        2. ``begin_drain``: new requests get ``ERR ShuttingDown!``
           (retryable), ``ping``/``health`` still answer;
        3. wait up to ``drain_timeout`` for in-flight queries;
        4. cancel stragglers via their cancellation tokens and give
           them a short grace to unwind;
        5. close every connection socket (unblocking reader threads)
           and join the connection threads;
        6. stop the service watchdog.
        """
        if self._stopped:
            return
        self._stopped = True
        if drain_timeout is None:
            drain_timeout = self.drain_timeout
        self._stop.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        self._listener.close()

        self.service.begin_drain()
        if not self.service.wait_idle(drain_timeout):
            self.service.cancel_inflight(
                "server shutting down: drain timeout expired"
            )
            self.service.wait_idle(min(2.0, max(drain_timeout, 0.1)))

        with self._conn_lock:
            conns = list(self._conns.values())
        for conn in conns:
            _force_close(conn)
        for t in self._reap_conn_threads():
            t.join(timeout=5.0)
        self._reap_conn_threads()
        self.service.close()

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------

    def _reap_conn_threads(self) -> list[threading.Thread]:
        """Drop finished connection threads; returns the live ones.

        Called on every accept and from stop() -- without it the thread
        list of a long-lived server grows one entry per connection ever
        served.
        """
        with self._conn_lock:
            self._conn_threads = [
                t for t in self._conn_threads if t.is_alive()
            ]
            return list(self._conn_threads)

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            self._reap_conn_threads()
            try:
                conn, peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                if self._stop.is_set():
                    break  # listener closed by stop(): the normal exit
                # Unexpected accept failure on a live listener: meter it
                # and keep serving -- silently breaking the loop would
                # leave a zombie server that looks up but accepts nobody.
                self.service.metrics.counter("server.accept_errors").inc()
                self._stop.wait(0.05)
                continue
            thread = threading.Thread(
                target=self._serve_connection, args=(conn, peer),
                name=f"query-server-{peer}", daemon=True,
            )
            with self._conn_lock:
                self._conn_threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket, peer: Any) -> None:
        with self._conn_lock:
            self._conn_ids += 1
            conn_id = self._conn_ids
            self._conns[conn_id] = conn
        session = self.service.open_session(client=f"{peer[0]}:{peer[1]}")
        try:
            with conn, conn.makefile("rwb") as stream:
                while raw := stream.readline(MAX_LINE + 1):
                    if len(raw) > MAX_LINE and not raw.endswith(b"\n"):
                        stream.write(encode_error(ProtocolError(
                            f"request line longer than {MAX_LINE} bytes"
                        )).encode("utf-8") + b"\n")
                        stream.flush()
                        break
                    # Note: no early-exit on the stop event here.  While
                    # draining, requests must still be *answered* (with
                    # ShuttingDown from admission control) so retrying
                    # clients redirect instead of seeing a dead socket;
                    # stop() ends the loop by closing the connection.
                    try:
                        request = parse_request(raw.decode("utf-8"))
                        payload = handle_request(session, request)
                        reply = encode_ok(payload)
                    except (ReproError, UnicodeDecodeError) as exc:
                        reply = encode_error(exc)
                    stream.write(reply.encode("utf-8") + b"\n")
                    stream.flush()
                    if session.closed:
                        break
        except OSError:
            pass  # client went away mid-write; the session still closes
        finally:
            session.close()
            with self._conn_lock:
                self._conns.pop(conn_id, None)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic seeded jitter.

    Attempt ``n`` (1-based) sleeps ``base_delay * multiplier**(n-1)``
    capped at ``max_delay``, plus a uniform jitter of up to ``jitter``
    of that value drawn from a :class:`random.Random` seeded with
    ``seed`` -- two clients built with the same seed back off on the
    identical schedule, which is what makes retry tests (and the chaos
    soak) reproducible.
    """

    max_attempts: int = 5
    base_delay: float = 0.02
    max_delay: float = 1.0
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ProtocolError(
                f"max_attempts must be positive, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ProtocolError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ProtocolError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (1 = first retry)."""
        base = min(
            self.base_delay * self.multiplier ** max(attempt - 1, 0),
            self.max_delay,
        )
        return base + rng.uniform(0.0, self.jitter * base)


class QueryClient:
    """Blocking line-protocol client for :class:`QueryServer`.

    Without a ``retry`` policy each request is sent exactly once, and a
    connection broken mid-call (EOF, timeout, garbled reply) marks the
    client *broken*: subsequent requests fail fast with a clear
    :class:`ProtocolError` instead of desynchronized reads on a stream
    whose framing is unknown.

    With a :class:`RetryPolicy` the client retries (reconnecting first
    when broken):

    * server errors whose wire retryable flag is set -- ``ServerBusy``
      (overload), ``SnapshotConflict``, ``ShuttingDown`` -- for *any*
      request: retryable means the server did not execute it;
    * transport failures (EOF, timeout, connect failure, garbled
      reply) for **idempotent** requests only (:data:`IDEMPOTENT_OPS`)
      -- a write whose reply was lost may have committed.

    ``last_attempts`` exposes how many attempts the most recent request
    took and ``retries_total`` the lifetime retry count -- the hooks the
    resilience tests assert on.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0,
                 *, retry: RetryPolicy | None = None) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        self._rng = random.Random(retry.seed if retry is not None else 0)
        self._sock: socket.socket | None = None
        self._stream = None
        self._broken = True
        self.last_attempts = 0
        self.retries_total = 0
        self._connect()

    # -- connection management -----------------------------------------

    def _connect(self) -> None:
        self._teardown()
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._stream = self._sock.makefile("rwb")
        self._broken = False

    def _teardown(self) -> None:
        if self._stream is not None:
            try:
                self._stream.close()
            except OSError:
                pass
            self._stream = None
        if self._sock is not None:
            _force_close(self._sock)
            self._sock = None
        self._broken = True

    @property
    def broken(self) -> bool:
        """True when the connection's framing state is unknown."""
        return self._broken

    # -- requests -------------------------------------------------------

    def request(self, **request: Any) -> dict[str, Any]:
        """Send one request dict; returns the ``OK`` payload or raises."""
        policy = self.retry
        if policy is None:
            self.last_attempts = 1
            return self._request_once(request)

        idempotent = request.get("op") in IDEMPOTENT_OPS
        attempts = 0
        while True:
            attempts += 1
            self.last_attempts = attempts
            try:
                if self._broken:
                    self._connect()
                return self._request_once(request)
            except ProtocolError as exc:
                transport = exc.server_type is None
                if transport and not idempotent:
                    raise  # outcome unknown; re-sending could double-apply
                if not (exc.retryable or transport):
                    raise
                if attempts >= policy.max_attempts:
                    raise
            except OSError:
                # Connect or send/recv failure.  A failed *connect* never
                # reached the server, but distinguishing it from a send
                # that broke mid-flight is not worth the fragility; the
                # idempotence rule covers both safely.
                if not idempotent or attempts >= policy.max_attempts:
                    raise
            self.retries_total += 1
            time.sleep(policy.delay(attempts, self._rng))

    def _request_once(self, request: dict[str, Any]) -> dict[str, Any]:
        if self._broken or self._stream is None:
            raise ProtocolError(
                "client connection is broken (a previous request died "
                "mid-reply); open a new client or use a RetryPolicy"
            )
        try:
            self._stream.write(
                json.dumps(request, separators=(",", ":")).encode("utf-8")
                + b"\n"
            )
            self._stream.flush()
            raw = self._stream.readline(MAX_REPLY + 1)
        except OSError:
            self._broken = True
            raise
        if len(raw) > MAX_REPLY and not raw.endswith(b"\n"):
            self._broken = True
            raise ProtocolError(f"reply line longer than {MAX_REPLY} bytes")
        if not raw.endswith(b"\n"):
            # Empty = clean EOF; non-terminated = half-written reply.
            # Either way the stream's framing is gone.
            self._broken = True
            raise ProtocolError(
                "server closed the connection mid-reply"
                if raw else "server closed the connection"
            )
        try:
            return decode_response(raw.decode("utf-8", errors="replace"))
        except ProtocolError as exc:
            if exc.server_type is None:
                # Garbled reply line: we cannot know where the next
                # reply starts, so the connection is unusable.
                self._broken = True
            raise

    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "QueryClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _force_close(sock: socket.socket) -> None:
    """Shut down and close a socket, tolerating already-dead ones."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass
