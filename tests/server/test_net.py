"""TCP transport tests: round-trips, protocol errors, concurrent clients."""

import socket
import threading

import pytest

from repro.cache import QueryCache
from repro.errors import ProtocolError, ServerBusy
from repro.server import QueryClient, QueryServer
from repro.server.net import MAX_LINE, MAX_REPLY
from repro.server.protocol import (
    decode_response,
    encode_error,
    encode_ok,
    parse_request,
)

from tests.server.conftest import build_service


@pytest.fixture
def server():
    service, _ = build_service(count=30)
    with QueryServer(service) as srv:
        yield srv


#: Nested far past the JSON decoder's recursion limit, yet well under
#: MAX_LINE: a typed refusal, never a RecursionError.
NESTED = "[" * 100_000 + "]" * 100_000


class TestProtocolCodec:
    def test_parse_rejects_non_json(self):
        with pytest.raises(ProtocolError):
            parse_request("this is not json")
        with pytest.raises(ProtocolError, match="nested too deeply"):
            parse_request(NESTED)

    def test_parse_rejects_missing_op(self):
        with pytest.raises(ProtocolError):
            parse_request('{"relation": "r"}')

    def test_ok_round_trip(self):
        line = encode_ok({"count": 3, "epoch": 7})
        assert decode_response(line) == {"count": 3, "epoch": 7}

    def test_error_line_carries_type_and_message(self):
        line = encode_error(ProtocolError("bad\nthing"))
        assert line == "ERR ProtocolError bad thing"
        with pytest.raises(ProtocolError):
            decode_response(line)

    def test_retryable_errors_carry_the_wire_flag(self):
        line = encode_error(ServerBusy("at capacity"))
        assert line == "ERR ServerBusy! at capacity"
        with pytest.raises(ProtocolError) as exc_info:
            decode_response(line)
        assert exc_info.value.retryable is True
        assert exc_info.value.server_type == "ServerBusy"

    def test_non_retryable_errors_have_no_flag(self):
        with pytest.raises(ProtocolError) as exc_info:
            decode_response(encode_error(ServerBusy("budget",
                                                    retryable=False)))
        assert exc_info.value.retryable is False

    def test_garbled_ok_payload_is_transport_level(self):
        with pytest.raises(ProtocolError) as exc_info:
            decode_response("OK {not json")
        assert exc_info.value.server_type is None

    def test_malformed_reply_line_is_transport_level(self):
        for line in ("\x85\xdb\xc0 garbage", "OK " + NESTED):
            with pytest.raises(ProtocolError) as exc_info:
                decode_response(line)
            assert exc_info.value.server_type is None


class TestRoundTrips:
    def test_ping_and_relations(self, server):
        with QueryClient(*server.address) as client:
            assert client.request(op="ping")["pong"] is True
            assert client.request(op="relations")["relations"] == ["r", "s"]

    def test_select_insert_delete_cycle(self, server):
        with QueryClient(*server.address) as client:
            before = client.request(
                op="select", relation="r", column="shape",
                rect=[0, 0, 100, 100], theta="overlaps",
            )
            inserted = client.request(
                op="insert", relation="r", oid=4242, rect=[1, 1, 2, 2],
            )
            assert inserted["epoch"] > before["epoch"]
            after = client.request(
                op="select", relation="r", column="shape",
                rect=[0, 0, 100, 100], theta="overlaps",
            )
            assert after["count"] == before["count"] + 1
            assert 4242 in after["oids"]
            deleted = client.request(op="delete", relation="r", oid=4242)
            assert deleted["deleted"] == 1

    def test_join_over_the_wire(self, server):
        with QueryClient(*server.address) as client:
            payload = client.request(
                op="join", relation_r="r", column_r="shape",
                relation_s="s", column_s="shape", theta="overlaps",
            )
            assert payload["count"] >= 0
            assert payload["epoch_r"] >= 0 and payload["epoch_s"] >= 0

    def test_errors_do_not_kill_the_connection(self, server):
        with QueryClient(*server.address) as client:
            with pytest.raises(ProtocolError):
                client.request(op="select", relation="nope", column="shape",
                               rect=[0, 0, 1, 1])
            with pytest.raises(ProtocolError):
                client.request(op="no-such-op")
            # Still alive:
            assert client.request(op="ping")["pong"] is True

    def test_metrics_snapshot_over_the_wire(self, server):
        with QueryClient(*server.address) as client:
            client.request(
                op="select", relation="r", column="shape",
                rect=[0, 0, 10, 10], theta="overlaps",
            )
            payload = client.request(op="metrics")
            assert "server.queries" in payload["metrics"]
            assert payload["cache"] is None  # this service runs uncached

    def test_close_ends_the_session(self, server):
        client = QueryClient(*server.address)
        assert client.request(op="close")["closed"] is True
        client.close()

    def test_sessions_tracked_per_connection(self, server):
        service = server.service
        with QueryClient(*server.address) as a:
            a.request(op="ping")
            with QueryClient(*server.address) as b:
                b.request(op="ping")
                assert service.sessions_active == 2
        deadline = threading.Event()
        deadline.wait(0.2)  # let the server notice the disconnects
        assert service.sessions_active == 0

    def test_concurrent_clients_get_consistent_answers(self, server):
        results = []
        errors = []

        def query():
            try:
                with QueryClient(*server.address) as client:
                    payload = client.request(
                        op="select", relation="s", column="shape",
                        rect=[0, 0, 100, 100], theta="overlaps",
                    )
                    results.append(payload["count"])
            except Exception as exc:  # pragma: no cover - diagnostic only
                errors.append(exc)

        threads = [threading.Thread(target=query) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors
        assert len(set(results)) == 1  # nobody mutated; all agree


class TestMalformedNames:
    """A non-string ``strategy`` / ``order`` is refused at the boundary.

    Unvalidated, a list reached ``QueryCache.probe_*`` as part of a dict
    key and raised an untyped ``TypeError`` the transport does not turn
    into an ``ERR`` line: the client read ``b''`` and the connection was
    dead.
    """

    SELECT = dict(op="select", relation="r", column="shape",
                  rect=[0, 0, 50, 50], theta="overlaps")
    JOIN = dict(op="join", relation_r="r", column_r="shape",
                relation_s="s", column_s="shape", theta="overlaps")

    @pytest.mark.parametrize("request_fields", [
        dict(SELECT, strategy=["x"]),
        dict(SELECT, order=["x"]),
        dict(SELECT, strategy=None),
        dict(JOIN, strategy=["x"]),
        dict(JOIN, strategy={"name": "tree"}),
    ], ids=["select-strategy-list", "select-order-list", "select-strategy-null",
            "join-strategy-list", "join-strategy-object"])
    def test_typed_refusal_connection_survives_and_nothing_is_probed(
        self, request_fields
    ):
        cache = QueryCache()
        service, _ = build_service(count=30, cache=cache)
        with QueryServer(service) as server, \
                QueryClient(*server.address) as client:
            with pytest.raises(ProtocolError) as exc_info:
                client.request(**request_fields)
            assert exc_info.value.server_type == "ProtocolError"
            assert client.request(op="ping")["pong"] is True
        assert cache.stats.probes == 0

    def test_unknown_strategy_name_is_refused_before_the_cache(self):
        cache = QueryCache()
        service, _ = build_service(count=30, cache=cache)
        with QueryServer(service) as server, \
                QueryClient(*server.address) as client:
            for request_fields in (self.SELECT, self.JOIN):
                with pytest.raises(ProtocolError) as exc_info:
                    client.request(**dict(request_fields, strategy="nope"))
                assert exc_info.value.server_type == "JoinError"
            assert client.request(op="ping")["pong"] is True
        assert cache.stats.probes == 0


class TestBooleansAreNotNumbers:
    """JSON ``true`` is an ``int`` to ``isinstance`` and equals 1.

    Unrefused, ``{"op":"delete","oid":true}`` deleted row 1, a ``true``
    inside ``rect`` became the coordinate 1.0, and an insert with a
    boolean ``oid`` was refused only by the schema *inside* the write,
    after the epoch pre-bump -- a malformed request invalidated every
    cached answer over the relation.
    """

    @pytest.mark.parametrize("request_fields", [
        dict(op="delete", relation="r", oid=True),
        dict(op="insert", relation="r", oid=True, rect=[0, 0, 1, 1]),
        dict(op="insert", relation="r", oid=900, rect=[True, 0, 1, 1]),
        dict(op="select", relation="r", column="shape", rect=[0, 0, 9, 9],
             theta="within_distance", distance=True),
    ], ids=["delete-oid", "insert-oid", "insert-rect", "select-distance"])
    def test_typed_refusal_changes_nothing(self, request_fields):
        cache = QueryCache(admission_threshold=0.0)
        service, _ = build_service(count=30, cache=cache)
        rel = service.state.get("r")
        with QueryServer(service) as server, \
                QueryClient(*server.address) as client:
            warm = client.request(op="select", relation="r", column="shape",
                                  rect=[0, 0, 100, 100], theta="overlaps")
            assert 1 in warm["oids"] and len(cache) == 1
            epoch, cached, rows = rel.modification_count, len(cache), len(rel)
            with pytest.raises(ProtocolError) as exc_info:
                client.request(**request_fields)
            assert exc_info.value.server_type == "ProtocolError"
            assert client.request(op="ping")["pong"] is True
        assert len(rel) == rows  # nothing deleted, nothing inserted
        assert rel.modification_count == epoch  # no epoch was burnt
        assert len(cache) == cached and cache.purge_stale() == 0


def _wait_for(predicate, timeout=5.0):
    deadline = threading.Event()
    waited = 0.0
    while not predicate() and waited < timeout:
        deadline.wait(0.02)
        waited += 0.02
    return predicate()


class TestConnectionEdges:
    """Half-written lines, mid-request disconnects, accept failures.

    The invariant under every rude-client scenario: the session closes,
    ``health()["sessions_active"]`` returns to zero (no session leak),
    and the server keeps serving well-behaved clients.
    """

    def test_mid_request_disconnect_releases_the_session(self, server):
        service = server.service
        raw = socket.create_connection(server.address, timeout=5.0)
        # Half a request, no newline -- then vanish.
        raw.sendall(b'{"op": "sel')
        assert _wait_for(lambda: service.sessions_active == 1)
        raw.close()
        assert _wait_for(lambda: service.sessions_active == 0), \
            "session leaked after mid-request disconnect"
        assert service.health()["sessions_active"] == 0
        with QueryClient(*server.address) as client:
            assert client.request(op="ping")["pong"] is True

    def test_half_written_line_then_eof_gets_an_error_not_a_hang(self, server):
        service = server.service
        raw = socket.create_connection(server.address, timeout=5.0)
        # A complete garbage line: the server must answer ERR and keep
        # the connection; then EOF must close the session.
        raw.sendall(b"this is not json\n")
        reply = raw.makefile("rb").readline()
        assert reply.startswith(b"ERR ProtocolError")
        raw.shutdown(socket.SHUT_WR)  # half-close: writes done
        assert _wait_for(lambda: service.sessions_active == 0)
        raw.close()

    def test_binary_garbage_request_is_survivable(self, server):
        raw = socket.create_connection(server.address, timeout=5.0)
        stream = raw.makefile("rwb")
        for garbage, refusal in (
            (bytes(range(128, 256)), b"ERR "),
            (NESTED.encode("ascii"), b"ERR ProtocolError "),
        ):
            stream.write(garbage + b"\n")
            stream.flush()
            assert stream.readline().startswith(refusal)
        # The connection survived both: it still answers.
        stream.write(b'{"op": "ping"}\n')
        stream.flush()
        assert stream.readline().startswith(b"OK ")
        stream.close()
        raw.close()
        with QueryClient(*server.address) as client:
            assert client.request(op="ping")["pong"] is True

    def test_overlong_line_is_refused_and_its_connection_closed(self, server):
        service = server.service
        with QueryClient(*server.address) as bystander:
            raw = socket.create_connection(server.address, timeout=5.0)
            # One byte past the bound and no newline: the server must stop
            # reading there rather than buffer the line until it ends.
            raw.sendall(b"x" * (MAX_LINE + 1))
            stream = raw.makefile("rb")
            assert stream.readline().startswith(b"ERR ProtocolError request line longer")
            assert stream.readline() == b""  # framing is lost: closed
            raw.close()
            assert bystander.request(op="ping")["pong"] is True
        assert _wait_for(lambda: service.sessions_active == 0)
        with QueryClient(*server.address) as client:
            assert client.request(op="ping")["pong"] is True

    def test_overlong_reply_breaks_the_client(self):
        listener = socket.create_server(("127.0.0.1", 0))

        def stub():
            conn, _ = listener.accept()
            with conn:
                conn.makefile("rb").readline()
                # One byte past the bound and no newline, then hold the
                # connection open: only the bound can end the read.
                conn.sendall(b"x" * (MAX_REPLY + 1))
                conn.recv(1)

        thread = threading.Thread(target=stub, daemon=True)
        thread.start()
        try:
            with QueryClient(*listener.getsockname()[:2]) as client:
                with pytest.raises(ProtocolError, match="reply line longer") as exc_info:
                    client.request(op="ping")
                assert exc_info.value.server_type is None
                assert client.broken
        finally:
            thread.join(timeout=5.0)
            listener.close()

    def test_connection_threads_are_reaped(self, server):
        for _ in range(5):
            with QueryClient(*server.address) as client:
                client.request(op="ping")
        assert _wait_for(lambda: server.service.sessions_active == 0)
        # Dead connection threads must not accumulate: the next accept
        # (or an explicit reap) drops them from the tracking list.
        assert _wait_for(lambda: len(server._reap_conn_threads()) == 0), \
            "finished connection threads were never reaped"

    def test_accept_errors_are_metered_not_fatal(self, server):
        service = server.service
        listener = server._listener
        failures = {"left": 2}
        real_accept = listener.accept

        class FlakyListener:
            def __getattr__(self, name):
                return getattr(listener, name)

            def accept(self):
                if failures["left"] > 0:
                    failures["left"] -= 1
                    raise OSError("injected accept failure")
                return real_accept()

        server._listener = FlakyListener()
        try:
            assert _wait_for(lambda: failures["left"] == 0), \
                "accept loop stopped polling after an accept error"
            # The loop survived: a new client still gets served.
            with QueryClient(*server.address) as client:
                assert client.request(op="ping")["pong"] is True
            errors = sum(
                s.value for s in service.metrics.series("server.accept_errors")
            )
            assert errors == 2
        finally:
            server._listener = listener
