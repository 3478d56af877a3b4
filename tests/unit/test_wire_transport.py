"""Unit tests for the wire transport: socket server, strict client, parity.

The load-bearing property is byte parity: for every logical outcome the
:class:`WireTransport` must hand back exactly the bytes the in-memory
transport would — same 404/500 bodies, same ``elapsed_ms`` — so the two
stacks canonicalize to identical matrices.  Most tests here therefore
run parametrized over both transports.
"""

import socket
import threading
import time

import pytest

from repro.runtime import (
    ConnectionRefused,
    InMemoryHttpTransport,
    WireClient,
    WireServer,
    WireTransport,
    close_transport,
    transport_factory_for,
)
from repro.runtime.transport import DeadlineExceeded, PrematureEOF


def _wire_threads():
    return [
        thread.name for thread in threading.enumerate()
        if thread.name.startswith("wire-")
    ]


@pytest.fixture(params=["memory", "wire"])
def transport(request):
    instance = transport_factory_for(request.param)()
    yield instance
    close_transport(instance)
    assert not _wire_threads(), "transport close leaked a wire thread"


class TestParity:
    """Identical bytes for identical logical outcomes, both transports."""

    def test_unregistered_url_404_body(self, transport):
        response = transport.post("http://nowhere/x", "body")
        assert response.status == 404
        assert response.body == "no endpoint at http://nowhere/x"

    def test_string_outcome_promoted_to_200(self, transport):
        transport.register("http://x", lambda body, headers: "pong")
        response = transport.post("http://x", "ping")
        assert response.status == 200
        assert response.body == "pong"

    def test_handler_exception_500_body(self, transport):
        def boom(body, headers):
            raise RuntimeError("kaput")

        transport.register("http://x", boom)
        response = transport.post("http://x", "ping")
        assert response.status == 500
        assert response.body == "internal server error: kaput"

    def test_elapsed_ms_always_zero(self, transport):
        transport.register("http://x", lambda body, headers: "pong")
        assert transport.post("http://x", "ping").elapsed_ms == 0.0

    def test_request_counter_and_unregister(self, transport):
        transport.register("http://x", lambda body, headers: "pong")
        transport.post("http://x", "1")
        transport.unregister("http://x")
        assert transport.post("http://x", "2").status == 404
        assert transport.requests_sent == 2

    def test_post_after_close_refused(self, transport):
        transport.register("http://x", lambda body, headers: "pong")
        close_transport(transport)
        with pytest.raises(ConnectionRefused):
            transport.post("http://x", "ping")

    def test_handler_sees_body_and_headers(self, transport):
        seen = {}

        def handler(body, headers):
            seen["body"] = body
            seen["header"] = dict(headers).get("X-Probe")
            return "ok"

        transport.register("http://x", handler)
        transport.post("http://x", "payload", headers={"X-Probe": "7"})
        assert seen == {"body": "payload", "header": "7"}


class TestWireServer:
    def test_occupied_requested_port_retries_ephemeral(self):
        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        occupied = blocker.getsockname()[1]
        server = WireServer(port=occupied)
        try:
            # SO_REUSEADDR lets a listen-state port rebind on some
            # platforms; either way start() must return a working
            # listener without hanging.
            server.start()
            assert server.running
            assert server.port is not None
        finally:
            server.stop()
            blocker.close()
        assert not _wire_threads()

    def test_stop_joins_accept_thread_and_is_idempotent(self):
        server = WireServer().start()
        name = f"wire-accept-{server.port}"
        assert name in _wire_threads()
        server.stop()
        server.stop()
        assert name not in _wire_threads()

    def test_repeated_create_close_leaves_no_threads(self):
        for _ in range(5):
            transport = WireTransport()
            transport.register("http://x", lambda body, headers: "ok")
            assert transport.post("http://x", "ping").body == "ok"
            transport.close()
        assert not _wire_threads()


class TestWireClient:
    def test_connect_refused_classified(self):
        # Bind-then-close guarantees a port with nothing listening.
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ConnectionRefused):
            WireClient(timeout=2.0).post("127.0.0.1", port, "/x", "body")

    def test_server_closing_without_answer_is_premature_eof(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def run():
            conn, _ = listener.accept()
            # Drain the request first: closing with unread bytes queued
            # fires an RST (ConnectionReset), not the clean FIN under test.
            while True:
                data = conn.recv(65536)
                if not data or data.endswith(b"body"):
                    break
            conn.close()
            listener.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        with pytest.raises(PrematureEOF):
            WireClient(timeout=2.0).post("127.0.0.1", port, "/x", "body")
        thread.join(timeout=5.0)

    def test_close_delimited_body_is_read_whole(self):
        """A response with no framing header ends where the peer closes:
        every byte up to the close is the body, and the connection is
        not kept."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        sent = threading.Event()

        def run():
            conn, _ = listener.accept()
            with conn:
                _read_raw_response(conn)
                conn.sendall(b"HTTP/1.0 200 OK\r\n\r\nfirst part, ")
                sent.wait(5.0)
                conn.sendall(b"second part")
            listener.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        threading.Timer(0.2, sent.set).start()
        client = WireClient(timeout=5.0)
        response = client.post("127.0.0.1", port, "/x", "body")
        thread.join(timeout=5.0)
        assert response.body == "first part, second part"
        assert client._kept is None

    def test_spent_deadline_never_dials(self):
        with pytest.raises(DeadlineExceeded):
            WireClient(timeout=-1.0).post("127.0.0.1", 1, "/x", "body")


class TestFactory:
    def test_names_resolve(self):
        assert transport_factory_for("wire") is WireTransport
        assert transport_factory_for("memory") is InMemoryHttpTransport
        assert transport_factory_for(None) is InMemoryHttpTransport
        assert transport_factory_for("") is InMemoryHttpTransport

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            transport_factory_for("carrier-pigeon")

    def test_close_transport_walks_wrapper_chain(self):
        class Wrapper:
            def __init__(self, inner):
                self.inner = inner

        transport = WireTransport()
        transport.register("http://x", lambda body, headers: "ok")
        close_transport(Wrapper(Wrapper(transport)))
        assert transport.closed
        assert not _wire_threads()


def _read_raw_response(sock):
    """One framed response off ``sock``: ``(head, body)`` bytes."""
    buffer = b""
    while b"\r\n\r\n" not in buffer:
        chunk = sock.recv(65536)
        if not chunk:
            return buffer, b""
        buffer += chunk
    head, _, body = buffer.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    while len(body) < length:
        body += sock.recv(65536)
    return head, body


def _request(body, extra=b""):
    return (
        b"POST http://x HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        + extra + b"Content-Length: " + str(len(body)).encode()
        + b"\r\n\r\n" + body
    )


class TestServerFraming:
    """A request the server cannot frame is refused, never dispatched."""

    @pytest.fixture
    def served(self):
        calls = []
        server = WireServer().start()
        server.register(
            "http://x", lambda body, headers: calls.append(body) or "pong"
        )
        yield server, calls
        server.stop()
        assert not _wire_threads()

    def _send_raw(self, server, data):
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=5.0
        ) as sock:
            sock.sendall(data)
            head, body = _read_raw_response(sock)
            # The server closes the connection after refusing.
            assert sock.recv(65536) == b""
        return head, body

    def test_negative_content_length_is_refused(self, served):
        server, calls = served
        head, body = self._send_raw(
            server,
            b"POST http://x HTTP/1.1\r\nContent-Length: -5\r\n\r\nabcdefgh",
        )
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert body == b"bad content-length"
        assert calls == []

    def test_request_transfer_encoding_is_refused(self, served):
        server, calls = served
        head, body = self._send_raw(
            server,
            b"POST http://x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"4\r\nping\r\n0\r\n\r\n",
        )
        assert head.startswith(b"HTTP/1.1 400 ")
        assert body == b"unsupported transfer-encoding"
        assert calls == []

    def test_conflicting_content_lengths_are_refused(self, served):
        server, calls = served
        head, _ = self._send_raw(
            server,
            b"POST http://x HTTP/1.1\r\nContent-Length: 4\r\n"
            b"Content-Length: 2\r\n\r\nping",
        )
        assert head.startswith(b"HTTP/1.1 400 ")
        assert calls == []

    def test_second_request_on_one_connection(self, served):
        server, calls = served
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=5.0
        ) as sock:
            sock.sendall(_request(b"one"))
            head, body = _read_raw_response(sock)
            assert head.startswith(b"HTTP/1.1 200 ")
            assert b"Connection: keep-alive" in head
            assert body == b"pong"
            sock.sendall(_request(b"two", b"Connection: close\r\n"))
            head, body = _read_raw_response(sock)
            assert head.startswith(b"HTTP/1.1 200 ")
            assert b"Connection: close" in head
            assert body == b"pong"
            assert sock.recv(65536) == b""  # the peer's close is honoured
        assert calls == ["one", "two"]

    def test_pipelined_requests_are_answered_in_order(self, served):
        server, calls = served
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=5.0
        ) as sock:
            sock.sendall(
                _request(b"a") + _request(b"b", b"Connection: close\r\n")
            )
            answers = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                answers += chunk
        assert answers.count(b"HTTP/1.1 200 OK\r\n") == 2
        assert answers.endswith(b"pong")
        assert calls == ["a", "b"]


@pytest.fixture
def connects(monkeypatch):
    """Every socket a :class:`WireClient` opens, in order."""
    opened = []
    original = WireClient._connect

    def counting(self, host, port, deadline):
        sock = original(self, host, port, deadline)
        opened.append(sock)
        return sock

    monkeypatch.setattr(WireClient, "_connect", counting)
    return opened


class TestKeptConnections:
    def test_fifty_posts_connect_once_with_fresh_transport_bytes(
        self, connects
    ):
        def echo(body, headers):
            return f"<echo>{body}</echo>"

        fresh = []
        for index in range(50):
            transport = WireTransport()
            transport.register("http://x", echo)
            response = transport.post("http://x", f"payload-{index}")
            fresh.append((response.status, response.body, response.elapsed_ms))
            transport.close()
        assert len(connects) == 50
        del connects[:]

        transport = WireTransport()
        transport.register("http://x", echo)
        try:
            kept = []
            for index in range(50):
                response = transport.post("http://x", f"payload-{index}")
                kept.append(
                    (response.status, response.body, response.elapsed_ms)
                )
        finally:
            transport.close()
        assert kept == fresh
        assert len(connects) == 1
        assert not _wire_threads()

    def test_idle_connection_delays_neither_client_nor_stop(self):
        server = WireServer(connection_timeout=10.0).start()
        server.register("http://x", lambda body, headers: "ok")
        idle, other = WireClient(), WireClient()
        address = ("127.0.0.1", server.port)
        try:
            assert idle.post(*address, "http://x", "1").body == "ok"
            started = time.monotonic()
            assert other.post(*address, "http://x", "2").body == "ok"
            assert time.monotonic() - started < 2.0
        finally:
            started = time.monotonic()
            server.stop()
            stopped = time.monotonic() - started
            idle.close()
            other.close()
        assert stopped < 2.0
        assert not _wire_threads()

    def test_dropped_idle_connection_reconnects_once(self, connects):
        """The server closes a kept connection while it is idle; the next
        post finds it dead before any response byte and dials once more,
        and the request reaches a handler exactly once."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(2)
        port = listener.getsockname()[1]
        handled = []
        first_closed = threading.Event()

        def serve():
            for _ in range(2):
                conn, _ = listener.accept()
                with conn:
                    head, body = _read_raw_response(conn)
                    handled.append(body)
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                        b"Connection: keep-alive\r\n\r\nok"
                    )
                    if len(handled) == 2:
                        conn.recv(1)  # wait for the client to hang up
                first_closed.set()
            listener.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        client = WireClient(timeout=5.0)
        try:
            assert client.post("127.0.0.1", port, "/x", "one").body == "ok"
            assert first_closed.wait(5.0)
            assert client.post("127.0.0.1", port, "/x", "two").body == "ok"
        finally:
            client.close()
        thread.join(timeout=5.0)
        assert handled == [b"one", b"two"]
        assert len(connects) == 2

    def test_answered_failure_is_not_retried(self, connects):
        """A kept connection that answers, however badly, is not
        re-dialled: only a connection that gave no byte is."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def serve():
            conn, _ = listener.accept()
            with conn:
                _read_raw_response(conn)
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                    b"Connection: keep-alive\r\n\r\nok"
                )
                _read_raw_response(conn)
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nok")
            listener.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        client = WireClient(timeout=5.0)
        try:
            client.post("127.0.0.1", port, "/x", "one")
            with pytest.raises(PrematureEOF):
                client.post("127.0.0.1", port, "/x", "two")
        finally:
            client.close()
        thread.join(timeout=5.0)
        assert len(connects) == 1

    def test_abandoned_post_never_hands_its_connection_on(self, connects):
        from repro.runtime.guard import GuardedStep, GuardLimits, TriageBucket

        release = threading.Event()
        finished = threading.Event()

        class Client(WireClient):
            def post(self, host, port, target, body, *args, **kwargs):
                try:
                    return super().post(host, port, target, body, *args,
                                        **kwargs)
                finally:
                    if body == "slow":
                        finished.set()

        def handler(body, headers):
            if body == "slow":
                release.wait(10.0)
            return f"answer to {body}"

        transport = WireTransport(client=Client())
        transport.register("http://x", handler)
        try:
            assert transport.post("http://x", "warm").body == "answer to warm"
            verdict = GuardedStep(
                "invoke", transport.post,
                limits=GuardLimits(deadline_seconds=0.2),
            ).run("http://x", "slow")
            assert verdict.bucket is TriageBucket.TIMEOUT
            # The abandoned post still owns the kept connection; the next
            # post dials its own and reads its own answer.
            threading.Timer(0.3, release.set).start()
            assert transport.post("http://x", "next").body == "answer to next"
            assert len(connects) == 2
            # Once done, the abandoned post closes its connection rather
            # than keeping it: the next post reuses the one "next" kept.
            assert finished.wait(10.0)
            abandoned, kept = connects
            assert transport.post("http://x", "last").body == "answer to last"
            assert len(connects) == 2
            assert abandoned.fileno() == -1
            assert kept.fileno() != -1
        finally:
            release.set()
            transport.close()
        assert not _wire_threads()

    def test_cell_transport_close_removes_only_its_endpoints(self):
        server, client = WireServer(), WireClient()
        try:
            first = WireTransport(server=server, client=client)
            second = WireTransport(server=server, client=client)
            first.register("http://a", lambda body, headers: "a")
            second.register("http://b", lambda body, headers: "b")
            first.close()
            with pytest.raises(ConnectionRefused):
                first.post("http://a", "ping")
            assert second.post("http://a", "ping").status == 404
            assert second.post("http://b", "ping").body == "b"
            assert server.running
        finally:
            client.close()
            server.stop()
        assert not _wire_threads()
