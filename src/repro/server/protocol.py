"""Line protocol of the query service: JSON requests, ``OK``/``ERR`` replies.

Each request is one line of JSON with an ``op`` field; each reply is one
line -- ``OK <json payload>`` on success, ``ERR <ExceptionType> <message>``
on failure.  The same :func:`handle_request` dispatcher backs the TCP
server (:mod:`repro.server.net`), the CLI client and the in-process
tests, so the protocol is exercised identically everywhere.

Supported operations (fields beyond ``op``):

=============  =======================================================
``ping``       liveness probe
``health``     readiness probe: status, inflight/shed/conflict counters
``relations``  list registered relation names
``select``     ``relation, column, rect, theta[, strategy, order,
               deadline_ms]``
``join``       ``relation_r, column_r, relation_s, column_s, theta
               [, strategy, deadline_ms]``
``insert``     ``relation, oid, rect`` (the demo OBJECT schema)
``delete``     ``relation, oid``
``metrics``    snapshot of the shared metrics registry, and of the
               shared cache's own counters, entry count and bytes
``shards``     status of the attached shard fleet (per-shard
               generation, restarts, dispatches, cost, liveness)
``stats``      health + per-op SLO latency percentiles + the flight
               recorder's recent events
``close``      end the session
=============  =======================================================

``select`` and ``join`` additionally accept ``"sharded": true``, which
routes them to the attached shard runtime (tables loaded there, not the
shared relations); a crashed shard is either absorbed by failover or
surfaces as ``ERR ShardUnavailable!`` -- retryable, because the
supervisor keeps restarting the shard.

``rect`` is ``[xmin, ymin, xmax, ymax]``; ``theta`` is an operator name
(``overlaps``, ``includes``, ``contained_in``, ``northwest_of``,
``adjacent``) or ``within_distance`` with a ``distance`` field.
``deadline_ms`` bounds the query in wall-clock milliseconds; past it
the server replies ``ERR DeadlineExceeded ...``.

Error replies carry the server exception's *retryable* flag on the
wire: a retryable error's type name is suffixed with ``!``
(``ERR ServerBusy! service at capacity ...``), which
:func:`decode_response` turns back into ``ProtocolError.retryable`` --
the bit the client's :class:`~repro.server.net.RetryPolicy` keys on.
Exceptions decorated with a flight-recorder tail (``flight_events`` on
``ServerBusy``/``ShuttingDown``/``ShardUnavailable``) additionally
append a compact ``[flight: shed#4 failover#5 ...]`` suffix, so the
incident context survives the one-line wire format.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import ProtocolError, ReproError
from repro.geometry.rect import Rect
from repro.predicates.theta import (
    Adjacent,
    ContainedIn,
    Includes,
    NorthwestOf,
    Overlaps,
    ThetaOperator,
    WithinDistance,
)

_THETAS = {
    "overlaps": Overlaps,
    "includes": Includes,
    "contained_in": ContainedIn,
    "northwest_of": NorthwestOf,
    "adjacent": Adjacent,
}


def _is_number(value: Any) -> bool:
    """An int or a float -- and not a bool: JSON ``true`` is an ``int``
    to isinstance and equals 1, but it is no coordinate, oid or bound."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def theta_from_request(request: dict[str, Any]) -> ThetaOperator:
    """Resolve the request's ``theta`` (and parameters) to an operator."""
    name = request.get("theta", "overlaps")
    if name == "within_distance":
        distance = request.get("distance")
        if not _is_number(distance):
            raise ProtocolError(
                "theta 'within_distance' needs a numeric 'distance' field"
            )
        return WithinDistance(float(distance))
    cls = _THETAS.get(name)
    if cls is None:
        raise ProtocolError(
            f"unknown theta {name!r}; supported: "
            f"{sorted(_THETAS)} and 'within_distance'"
        )
    return cls()


def rect_from_request(request: dict[str, Any], field: str = "rect") -> Rect:
    raw = request.get(field)
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) != 4
        or not all(_is_number(v) for v in raw)
    ):
        raise ProtocolError(
            f"field {field!r} must be [xmin, ymin, xmax, ymax], got {raw!r}"
        )
    return Rect(*(float(v) for v in raw))


def parse_request(line: str) -> dict[str, Any]:
    """One wire line -> request dict, validating shape only."""
    line = line.strip()
    if not line:
        raise ProtocolError("empty request line")
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from None
    except RecursionError:
        raise ProtocolError("request JSON is nested too deeply") from None
    if not isinstance(request, dict) or not isinstance(request.get("op"), str):
        raise ProtocolError("request must be a JSON object with an 'op' string")
    return request


def encode_ok(payload: dict[str, Any]) -> str:
    return "OK " + json.dumps(payload, separators=(",", ":"), default=str)


def encode_error(exc: BaseException) -> str:
    message = " ".join(str(exc).split()) or exc.__class__.__name__
    name = type(exc).__name__
    if getattr(exc, "retryable", False):
        name += "!"
    events = getattr(exc, "flight_events", None)
    if events:
        tail = " ".join(
            f"{e.get('kind', '?')}#{e.get('id', '?')}" for e in events
        )
        message += f" [flight: {tail}]"
    return f"ERR {name} {message}"


def decode_response(line: str) -> dict[str, Any]:
    """Client side: one reply line -> payload dict (raises on ``ERR``).

    Errors are re-raised as :class:`ProtocolError` carrying the server's
    exception type (``server_type``), message and retryable flag -- the
    client cannot (and should not) reconstruct arbitrary server-side
    classes.  A line that is neither ``OK`` nor ``ERR`` raises a
    ProtocolError with ``server_type=None``: transport-level corruption
    whose request outcome is unknown.
    """
    line = line.strip()
    if line.startswith("OK "):
        try:
            return json.loads(line[3:])
        except (json.JSONDecodeError, RecursionError):
            raise ProtocolError(
                f"garbled OK payload: {line[3:100]!r}"
            ) from None
    if line.startswith("ERR "):
        name, _, message = line[4:].partition(" ")
        retryable = name.endswith("!")
        name = name.rstrip("!")
        raise ProtocolError(
            f"{name} {message}".strip(),
            retryable=retryable, server_type=name or None,
        )
    raise ProtocolError(f"malformed reply line: {line[:100]!r}")


def _deadline_from_request(request: dict[str, Any]) -> float | None:
    value = request.get("deadline_ms")
    if value is None:
        return None
    if not _is_number(value) or value < 0:
        raise ProtocolError(
            f"field 'deadline_ms' must be a non-negative number, got {value!r}"
        )
    return float(value)


def _require_str(
    request: dict[str, Any], field: str, default: str | None = None
) -> str:
    """A name field (``default`` when absent); anything but a non-empty
    string is refused here -- a list reaching the executor would key a
    cache probe and fail there, untyped."""
    value = request.get(field, default)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"field {field!r} must be a non-empty string")
    return value


def _require_oid(request: dict[str, Any]) -> int:
    """The ``oid`` field.  Unrefused, a ``delete`` of ``true`` removes
    row 1, and an ``insert`` of it fails the schema only inside the
    write, after the epoch pre-bump has invalidated every cached answer
    over the relation."""
    oid = request.get("oid")
    if not isinstance(oid, int) or not _is_number(oid):
        raise ProtocolError("field 'oid' must be an integer")
    return oid


def handle_request(session: Any, request: dict[str, Any]) -> dict[str, Any]:
    """Execute one parsed request against a session; returns the payload.

    Raises :class:`ProtocolError` for malformed requests and lets the
    service's own typed errors (``ServerBusy``, ``SnapshotConflict``,
    ``SessionError``, ...) propagate -- the transport encodes them with
    :func:`encode_error` so clients see the type name on the wire.
    """
    op = request["op"]
    if op == "ping":
        return {"pong": True, "session": session.session_id}
    if op == "health":
        return session.service.health()
    if op == "relations":
        return {"relations": session.service.state.names()}
    if op == "metrics":
        cache = session.service.cache
        return {
            "metrics": session.service.metrics.snapshot(),
            "cache": None if cache is None else cache.snapshot(),
        }
    if op == "shards":
        return session.service.require_shards().status()
    if op == "stats":
        return session.service.stats()
    if op == "close":
        session.close()
        return {"closed": True}
    if op == "select":
        if request.get("sharded"):
            table = _require_str(request, "relation")
            theta = theta_from_request(request)
            window = rect_from_request(request)
            result = session.shard_select(
                table, window, theta,
                deadline_ms=_deadline_from_request(request),
            )
            epochs: dict[str, int] = {}
        else:
            relation = _require_str(request, "relation")
            column = _require_str(request, "column")
            theta = theta_from_request(request)
            window = rect_from_request(request)
            result, epoch = session.select(
                relation, column, window, theta,
                strategy=_require_str(request, "strategy", "auto"),
                order=_require_str(request, "order", "bfs"),
                deadline_ms=_deadline_from_request(request),
            )
            epochs = {"epoch": epoch}
        payload: dict[str, Any] = {
            "count": len(result.matches), **epochs,
            "strategy": result.strategy,
        }
        oids = _oids_of(result.matches)
        if oids is not None:
            payload["oids"] = oids
        return payload
    if op == "join":
        if request.get("sharded"):
            result = session.shard_join(
                _require_str(request, "relation_r"),
                _require_str(request, "relation_s"),
                theta_from_request(request),
                deadline_ms=_deadline_from_request(request),
            )
            epochs = {}
        else:
            rel_r = _require_str(request, "relation_r")
            rel_s = _require_str(request, "relation_s")
            column_r = _require_str(request, "column_r")
            column_s = _require_str(request, "column_s")
            theta = theta_from_request(request)
            result, (epoch_r, epoch_s) = session.join(
                rel_r, column_r, rel_s, column_s, theta,
                strategy=_require_str(request, "strategy", "auto"),
                deadline_ms=_deadline_from_request(request),
            )
            epochs = {"epoch_r": epoch_r, "epoch_s": epoch_s}
        return {
            "count": len(result.pairs), **epochs,
            "strategy": result.strategy,
        }
    if op == "insert":
        relation = _require_str(request, "relation")
        oid = _require_oid(request)
        rect = rect_from_request(request)
        epoch = session.insert(relation, [oid, rect])
        return {"inserted": oid, "epoch": epoch}
    if op == "delete":
        relation = _require_str(request, "relation")
        oid = _require_oid(request)
        deleted, epoch = session.delete_where(
            relation, lambda t: t["oid"] == oid
        )
        return {"deleted": deleted, "epoch": epoch}
    raise ProtocolError(f"unknown op {op!r}")


def _oids_of(matches: list) -> list[Any] | None:
    """Extract ``oid`` values when every match payload carries one."""
    oids = []
    for _tid, payload in matches:
        try:
            oids.append(payload["oid"])
        except (ReproError, KeyError, TypeError):
            return None
    try:
        return sorted(oids)
    except TypeError:
        return sorted(oids, key=repr)
