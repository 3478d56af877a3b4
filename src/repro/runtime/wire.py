"""Wire transport: the in-memory stack's semantics over real sockets.

Three pieces, stdlib-only:

* :class:`WireServer` — a socket-level HTTP/1.1 server hosting the
  same ``(body, headers) -> HttpResponse`` handlers the in-memory
  transport routes to, on one selector thread that serves persistent
  connections.  Ephemeral loopback ports (a bind on an occupied
  requested port retries once on a fresh ephemeral port rather than
  hanging or dying), a bounded accept queue (``listen`` backlog) and a
  per-connection deadline so a stalled peer can never wedge the
  listener.
* :class:`WireClient` — a strict byte-level HTTP client that keeps one
  connection alive between exchanges.  It frames the request itself,
  enforces an *overall* per-request deadline (a per-``recv`` timeout
  alone cannot catch a slowloris peer that keeps trickling one byte
  inside the window) and classifies every way a response can be
  malformed into the shared taxonomy of
  :mod:`repro.runtime.transport`: :class:`BadStatusLine`,
  :class:`HeaderOverflow`, :class:`ChunkedEncodingError`,
  :class:`PrematureEOF`, :class:`ConnectionReset`,
  :class:`ConnectionRefused`, :class:`DeadlineExceeded`.  With tracing
  on it splits each exchange into ``wire_connect_ms``,
  ``wire_write_ms``, ``wire_first_byte_ms`` and ``wire_read_ms``.
* :class:`WireTransport` — the drop-in replacement for
  :class:`InMemoryHttpTransport`: same ``register``/``unregister``/
  ``post``/``close`` interface, the same routing rule
  (:func:`~repro.runtime.transport.dispatch`: 404 ``no endpoint at
  <url>``, handler exception → 500 ``internal server error: <exc>``,
  string outcome promoted to 200), and ``elapsed_ms`` always 0.0 — **real wall time never enters a
  campaign payload**; when tracing is active it is recorded into the
  trace metrics (``wire_ms``) instead.  That is the parity guarantee:
  a sweep over ``WireTransport`` produces a canonical matrix
  byte-identical to the in-memory sweep.  :func:`unit_transports` lets
  one sweep unit's cells share one listener and one connection.

Requests travel with the registered endpoint URL as the request-target
(HTTP/1.1 absolute-form, as to a proxy), so the server dispatches on
exactly the string the in-memory transport keys its handler dict by and
the 404 body matches byte-for-byte.
"""

from __future__ import annotations

import contextlib
import functools
import re
import selectors
import socket
import threading
import time
import weakref

from repro.obs.trace import current_tracer
from repro.runtime.transport import (
    BadStatusLine,
    ChunkedEncodingError,
    ConnectionRefused,
    ConnectionReset,
    DeadlineExceeded,
    HeaderOverflow,
    HttpResponse,
    PrematureEOF,
    ProtocolError,
    TransportError,
    dispatch,
)

_STATUS_LINE = re.compile(rb"^HTTP/1\.[01] (\d{3})(?: .*)?$")
_REQUEST_LINE = re.compile(rb"^[A-Z]+ (\S+) HTTP/1\.([01])$")

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}

#: Hard cap on a header block, client and server side.
MAX_HEADER_BYTES = 65536
_RECV_CHUNK = 65536


def _clip(data, limit=80):
    text = repr(data)
    return text if len(text) <= limit else text[:limit] + "..."


# -- server -------------------------------------------------------------------


class WireServer:
    """HTTP/1.1 listener dispatching to registered handlers.

    One thread (``wire-accept-<port>``) waits, through a selector, on the
    listening socket, a wake-up socket and every open connection at
    once.  It accepts a dial as soon as it arrives and reads and answers
    a request from whichever connection becomes readable, one request at
    a time.  Connections persist (HTTP/1.1 keep-alive): every response
    says ``Connection: keep-alive`` unless the peer asked for ``close``
    (or spoke HTTP/1.0 without asking to keep alive), and the connection
    then waits in the selector for the peer's next request.  An idle
    connection is therefore never read from, so it delays neither
    another client's connect nor :meth:`stop`.

    A request the server cannot frame is answered 400 and its connection
    closed: a malformed request or header line, a ``Content-Length``
    that is not a non-negative decimal or disagrees with an earlier one,
    and any request ``Transfer-Encoding``.  Left open, the unread rest
    of such a request would be taken for the next one.  A per-connection
    ``settimeout`` bounds how long a peer that stalls mid-request can
    hold the listener.
    """

    def __init__(self, host="127.0.0.1", port=0, backlog=8,
                 connection_timeout=10.0):
        self.host = host
        self.requested_port = port
        self.port = None
        self.backlog = backlog
        self.connection_timeout = connection_timeout
        self._handlers = {}
        self._socket = None
        self._wake = None
        self._thread = None
        self._finalizer = None

    @property
    def running(self):
        return self._socket is not None

    def register(self, url, handler):
        self._handlers[url] = handler
        return url

    def unregister(self, url):
        self._handlers.pop(url, None)

    def start(self):
        """Bind, listen and spawn the listener thread; returns ``self``.

        A requested port that turns out to be occupied (or otherwise
        unbindable) is retried once on a fresh ephemeral port — startup
        never hangs and never leaks the failed socket.
        """
        if self._socket is not None:
            return self
        last_error = None
        for candidate in (self.requested_port, 0):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                sock.bind((self.host, candidate))
            except OSError as exc:
                sock.close()
                last_error = exc
                continue
            sock.listen(self.backlog)
            wake_reader, self._wake = socket.socketpair()
            self._socket = sock
            self.port = sock.getsockname()[1]
            self._thread = threading.Thread(
                target=self._serve, args=(sock, wake_reader),
                name=f"wire-accept-{self.port}", daemon=True,
            )
            self._thread.start()
            # GC safety net: the listener sockets must not outlive the
            # server object even when nobody called stop().
            self._finalizer = weakref.finalize(
                self, _close_sockets, sock, wake_reader, self._wake
            )
            return self
        raise ConnectionRefused(
            f"cannot bind a listener on {self.host}: {last_error}"
        )

    def stop(self):
        """Wake and join the listener thread, then close every socket.

        Idempotent.  The thread closes the connections it holds open
        before it exits.
        """
        sock, self._socket = self._socket, None
        if sock is None:
            return
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        wake, self._wake = self._wake, None
        try:
            wake.send(b"\0")
        except OSError:
            pass
        thread, self._thread = self._thread, None
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=self.connection_timeout + 5.0)
        _close_sockets(sock, wake)

    # -- the listener loop -----------------------------------------------------

    def _serve(self, listener, wake):
        selector = selectors.DefaultSelector()
        selector.register(listener, selectors.EVENT_READ)
        selector.register(wake, selectors.EVENT_READ)
        try:
            while True:
                try:
                    ready = selector.select()
                except (OSError, ValueError):
                    return  # a socket was closed under the loop
                for key, _ in ready:
                    sock = key.fileobj
                    if sock is wake:
                        return
                    if sock is listener:
                        try:
                            conn, _ = listener.accept()
                        except OSError:
                            continue  # the dialer gave up first
                        conn.settimeout(self.connection_timeout)
                        selector.register(conn, selectors.EVENT_READ)
                    elif not self._serve_connection(sock):
                        selector.unregister(sock)
                        _close_sockets(sock)
        finally:
            for key in list(selector.get_map().values()):
                if key.fileobj is not listener:
                    _close_sockets(key.fileobj)
            selector.close()

    def _serve_connection(self, conn):
        """Answer the request(s) ready on ``conn``; False to close it.

        Bytes past a request's body are the start of the next request,
        so they are answered before the connection goes back to the
        selector.
        """
        pending = b""
        keep = True
        try:
            while keep:
                keep, pending = self._serve_request(conn, pending)
                if not pending:
                    return keep
        except Exception:
            pass  # one broken connection must never kill the listener
        return False

    def _serve_request(self, conn, pending):
        """Read, dispatch and answer one request.

        Returns ``(keep, pending)``: whether the connection stays open,
        and the bytes already read past this request.
        """
        head, rest = _read_head(conn, pending)
        if head is None:
            return False, b""  # the peer closed, stalled or overflowed
        lines = head.split(b"\r\n")
        match = _REQUEST_LINE.match(lines[0])
        if match is None:
            return _refuse(conn, "bad request line")
        target = match.group(1).decode("utf-8", "replace")
        headers = {}
        lengths = set()
        for line in lines[1:]:
            name, sep, value = line.partition(b":")
            if not sep:
                return _refuse(conn, "bad header line")
            name = name.decode("latin-1").strip()
            value = value.decode("latin-1").strip()
            if name.lower() == "transfer-encoding":
                return _refuse(conn, "unsupported transfer-encoding")
            if name.lower() == "content-length":
                lengths.add(value)
            headers[name] = value
        length_text = lengths.pop() if lengths else "0"
        if lengths or not (length_text.isascii() and length_text.isdigit()):
            return _refuse(conn, "bad content-length")
        length = int(length_text)
        body = rest
        while len(body) < length:
            chunk = conn.recv(_RECV_CHUNK)
            if not chunk:
                return False, b""  # peer died mid-request; nothing to answer
            body += chunk
        keep = _keeps_alive(match.group(2), headers)
        response = dispatch(
            self._handlers, target, body[:length].decode("utf-8", "replace"),
            headers,
        )
        if not _send(conn, _serialize(response, keep)):
            return False, b""
        return keep, body[length:]


def _keeps_alive(minor_version, headers):
    """HTTP/1.1 persists unless the peer says ``close``; HTTP/1.0 only
    when it says ``keep-alive``."""
    tokens = {
        token.strip().lower()
        for name, value in headers.items() if name.lower() == "connection"
        for token in value.split(",")
    }
    if minor_version == b"0":
        return "keep-alive" in tokens
    return "close" not in tokens


def _refuse(conn, reason):
    """Answer 400 and close: the request cannot be framed."""
    _send(conn, _serialize(HttpResponse(400, reason), keep_alive=False))
    return False, b""


def _close_sockets(*socks):
    for sock in socks:
        try:
            sock.close()
        except OSError:
            pass


def _read_head(conn, buffer):
    """Read up to the blank line; ``(None, b"")`` when the peer quits."""
    while b"\r\n\r\n" not in buffer:
        if len(buffer) > MAX_HEADER_BYTES:
            _send(conn, _serialize(
                HttpResponse(431, "request header block too large"),
                keep_alive=False,
            ))
            return None, b""
        try:
            chunk = conn.recv(_RECV_CHUNK)
        except OSError:
            return None, b""
        if not chunk:
            return None, b""
        buffer += chunk
    head, _, rest = buffer.partition(b"\r\n\r\n")
    return head, rest


def _send(conn, data):
    """Send ``data``; False when the peer is gone."""
    try:
        conn.sendall(data)
    except OSError:
        return False
    return True


def _serialize(response, keep_alive):
    payload = response.body.encode("utf-8")
    reason = _REASONS.get(response.status, "Unknown")
    lines = [
        f"HTTP/1.1 {response.status} {reason}",
        "Content-Type: text/xml; charset=utf-8",
        f"Content-Length: {len(payload)}",
        "Connection: keep-alive" if keep_alive else "Connection: close",
    ]
    for name, value in response.headers.items():
        lines.append(f"{_header_safe(name)}: {_header_safe(value)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload


def _header_safe(text):
    return str(text).replace("\r", " ").replace("\n", " ")


# -- client -------------------------------------------------------------------


class _PartClock:
    """Times the parts of one exchange for the tracer's ``wire_*_ms``.

    ``mark(part)`` closes the part that ended now; ``record`` observes
    every closed part, only when tracing is on.  The parts are
    ``connect`` (only on an exchange that opened a connection),
    ``write``, ``first_byte`` (waiting for the first response byte) and
    ``read`` (the rest of the response).
    """

    __slots__ = ("last", "spent")

    def __init__(self):
        self.last = time.monotonic()
        self.spent = []

    def mark(self, part):
        now = time.monotonic()
        self.spent.append((part, (now - self.last) * 1000.0))
        self.last = now

    @property
    def answered(self):
        """True once the first response byte has arrived."""
        return any(part == "first_byte" for part, _ in self.spent)

    def record(self):
        tracer = current_tracer()
        if tracer.enabled:
            for part, ms in self.spent:
                tracer.metrics.observe(f"wire_{part}_ms", ms)


class WireClient:
    """Strict byte-level HTTP/1.1 client with classified framing errors.

    ``timeout`` is the *overall* deadline for the whole exchange
    (connect + send + read-to-completion), not a per-``recv`` window —
    the distinction that makes slowloris trickling a classified
    :class:`DeadlineExceeded` instead of an indefinite stall.

    The client keeps one connection open between exchanges (HTTP/1.1
    keep-alive).  An exchange takes the kept connection for itself, so
    one exchange at a time owns it, and hands it back only after a
    complete response that is framed, says ``Connection: keep-alive``
    and leaves no trailing bytes — and only when no later exchange has
    begun since, so a post its caller abandoned (a guard deadline)
    never hands its connection on.  When a kept connection closes or
    resets before a response byte (the server dropped it while idle),
    the exchange dials once more; every other failure raises.
    :meth:`close` closes the kept connection.
    """

    def __init__(self, timeout=10.0, max_header_bytes=MAX_HEADER_BYTES,
                 max_line_bytes=8192):
        self.timeout = timeout
        self.max_header_bytes = max_header_bytes
        self.max_line_bytes = max_line_bytes
        self._lock = threading.Lock()
        #: ``((host, port), socket)`` of the idle kept connection.
        self._kept = None
        #: Bumped by every exchange and by close(); an exchange keeps
        #: its connection only while the count is still its own.
        self._epoch = 0

    def post(self, host, port, target, body, headers=None, timeout=None):
        """POST ``body`` to ``host:port`` with ``target`` as request-target."""
        deadline = time.monotonic() + (
            self.timeout if timeout is None else timeout
        )
        payload = body.encode("utf-8")
        lines = [
            f"POST {target} HTTP/1.1",
            f"Host: {host}:{port}",
            "Content-Type: text/xml; charset=utf-8",
            f"Content-Length: {len(payload)}",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{_header_safe(name)}: {_header_safe(value)}")
        request = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload

        address = (host, port)
        with self._lock:
            self._epoch += 1
            epoch = self._epoch
            kept, self._kept = self._kept, None
        sock = None
        if kept is not None:
            if kept[0] == address:
                sock = kept[1]
            else:
                _close_sockets(kept[1])
        parts = _PartClock()
        try:
            if sock is not None:
                try:
                    response, reusable = self._exchange(
                        sock, request, address, deadline, parts
                    )
                except (ConnectionReset, PrematureEOF):
                    if parts.answered:
                        raise  # the server answered: no second try
                    # Dropped while idle, before any response byte.
                    _close_sockets(sock)
                    sock = None
                    parts.spent.clear()
            if sock is None:
                sock = self._connect(host, port, deadline)
                parts.mark("connect")
                response, reusable = self._exchange(
                    sock, request, address, deadline, parts
                )
        except BaseException:
            if sock is not None:
                _close_sockets(sock)
            raise
        finally:
            parts.record()
        with self._lock:
            if reusable and epoch == self._epoch:
                self._kept, sock = (address, sock), None
        if sock is not None:
            _close_sockets(sock)
        return response

    def close(self):
        """Close the kept connection; no exchange begun before this
        call keeps its connection afterwards.  Idempotent."""
        with self._lock:
            self._epoch += 1
            kept, self._kept = self._kept, None
        if kept is not None:
            _close_sockets(kept[1])

    # -- internals -------------------------------------------------------------

    def _exchange(self, sock, request, address, deadline, parts):
        """Send ``request`` on ``sock`` and read the response.

        Returns ``(response, reusable)``; ``parts`` gets ``write``,
        ``first_byte`` and ``read`` as each ends.
        """
        host, port = address
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise DeadlineExceeded(
                f"deadline spent before sending to {host}:{port}"
            )
        sock.settimeout(remaining)
        try:
            sock.sendall(request)
        except socket.timeout:
            raise DeadlineExceeded(f"send to {host}:{port} timed out")
        except (ConnectionResetError, BrokenPipeError) as exc:
            raise ConnectionReset(f"reset while sending: {exc}")
        except OSError as exc:
            raise TransportError(f"send failed: {exc}")
        parts.mark("write")
        first = self._recv(sock, deadline, "reading headers")
        if not first:
            raise PrematureEOF("peer closed before the status line")
        parts.mark("first_byte")
        result = self._read_response(sock, deadline, first)
        parts.mark("read")
        return result

    def _connect(self, host, port, deadline):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise DeadlineExceeded(f"deadline spent before connecting")
        try:
            return socket.create_connection((host, port), timeout=remaining)
        except ConnectionRefusedError as exc:
            raise ConnectionRefused(f"connect to {host}:{port} refused: {exc}")
        except socket.timeout:
            raise DeadlineExceeded(f"connect to {host}:{port} timed out")
        except OSError as exc:
            raise TransportError(f"connect to {host}:{port} failed: {exc}")

    def _recv(self, sock, deadline, context):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise DeadlineExceeded(f"deadline exceeded {context}")
        sock.settimeout(remaining)
        try:
            return sock.recv(_RECV_CHUNK)
        except socket.timeout:
            raise DeadlineExceeded(f"deadline exceeded {context}")
        except ConnectionResetError as exc:
            raise ConnectionReset(f"connection reset {context}: {exc}")
        except OSError as exc:
            raise TransportError(f"read failed {context}: {exc}")

    def _read_response(self, sock, deadline, buffer):
        """``(response, reusable)`` from the bytes after ``buffer``."""
        while b"\r\n\r\n" not in buffer:
            if len(buffer) > self.max_header_bytes:
                raise HeaderOverflow(
                    f"header block exceeds {self.max_header_bytes} bytes"
                )
            chunk = self._recv(sock, deadline, "reading headers")
            if not chunk:
                raise PrematureEOF("peer closed inside the header block")
            buffer += chunk
        head, _, rest = buffer.partition(b"\r\n\r\n")
        status, headers = self._parse_head(head)
        body, trailing = self._read_body(sock, deadline, headers, rest)
        tokens = {
            token.strip().lower()
            for name, value in headers.items() if name.lower() == "connection"
            for token in value.split(",")
        }
        response = HttpResponse(
            status=status, body=body.decode("utf-8", "replace"),
            headers=headers,
        )
        return response, trailing == b"" and "keep-alive" in tokens

    def _parse_head(self, head):
        lines = head.split(b"\r\n")
        match = _STATUS_LINE.match(lines[0])
        if match is None:
            raise BadStatusLine(f"not an HTTP status line: {_clip(lines[0])}")
        headers = {}
        for line in lines[1:]:
            if len(line) > self.max_line_bytes:
                raise HeaderOverflow(
                    f"header line exceeds {self.max_line_bytes} bytes"
                )
            name, sep, value = line.partition(b":")
            if not sep or not name.strip():
                raise ProtocolError(f"malformed header line: {_clip(line)}")
            key = name.decode("latin-1").strip()
            text = value.decode("latin-1").strip()
            previous = headers.get(key.lower())
            if key.lower() in ("content-length", "transfer-encoding"):
                if previous is not None and previous != text:
                    raise ProtocolError(
                        f"conflicting {key} headers: "
                        f"{previous!r} vs {text!r}"
                    )
                headers[key.lower()] = text
            else:
                headers[key] = text
        return int(match.group(1)), headers

    def _read_body(self, sock, deadline, headers, initial):
        """``(body, trailing)``: the bytes read past the framed body, or
        ``None`` for a body delimited by the peer closing."""
        lowered = {key.lower(): value for key, value in headers.items()}
        encoding = lowered.get("transfer-encoding", "").lower()
        if encoding:
            if encoding != "chunked":
                raise ProtocolError(f"unknown transfer-encoding: {encoding}")
            return self._read_chunked(sock, deadline, initial)
        length_text = lowered.get("content-length")
        if length_text is not None:
            try:
                length = int(length_text)
            except ValueError:
                raise ProtocolError(
                    f"unparseable Content-Length: {length_text!r}"
                )
            if length < 0:
                raise ProtocolError(f"negative Content-Length: {length}")
            body = initial
            while len(body) < length:
                chunk = self._recv(sock, deadline, "reading body")
                if not chunk:
                    raise PrematureEOF(
                        f"peer closed after {len(body)} of {length} body bytes"
                    )
                body += chunk
            return body[:length], body[length:]
        # No framing header: read until EOF (HTTP/1.0 style close-delimited).
        body = initial
        while True:
            chunk = self._recv(sock, deadline, "reading body")
            if not chunk:
                return body, None
            body += chunk

    def _read_chunked(self, sock, deadline, initial):
        buffer = initial
        body = b""

        def need(count, context):
            nonlocal buffer
            while len(buffer) < count:
                chunk = self._recv(sock, deadline, context)
                if not chunk:
                    raise PrematureEOF(f"peer closed {context}")
                buffer += chunk

        def read_line(context):
            nonlocal buffer
            while b"\r\n" not in buffer:
                if len(buffer) > self.max_line_bytes:
                    raise ChunkedEncodingError(
                        f"chunk size line exceeds {self.max_line_bytes} bytes"
                    )
                chunk = self._recv(sock, deadline, context)
                if not chunk:
                    raise PrematureEOF(f"peer closed {context}")
                buffer += chunk
            line, _, buffer = buffer.partition(b"\r\n")
            return line

        while True:
            line = read_line("reading a chunk size")
            size_text = line.split(b";", 1)[0].strip()
            try:
                size = int(size_text, 16)
            except ValueError:
                raise ChunkedEncodingError(
                    f"bad chunk size line: {_clip(line)}"
                )
            if size < 0:
                raise ChunkedEncodingError(f"negative chunk size: {size}")
            if size == 0:
                break
            need(size + 2, "reading a chunk")
            body += buffer[:size]
            if buffer[size:size + 2] != b"\r\n":
                raise ChunkedEncodingError(
                    "chunk data not terminated by CRLF"
                )
            buffer = buffer[size + 2:]
        # Trailers: zero or more header lines, then a blank line.
        while True:
            line = read_line("reading trailers")
            if not line:
                return body, buffer


# -- transport ----------------------------------------------------------------


class WireTransport:
    """The in-memory transport's interface over a real loopback socket.

    Built on its own, a transport owns a :class:`WireServer`, started on
    first use, and a :class:`WireClient`, whose one kept connection
    carries every POST; ``close`` closes that connection and stops the
    listener.  A sweep unit instead builds each cell's transport over
    the unit's shared server and client (:func:`unit_transports`), and
    such a transport's ``close`` removes only the endpoints it
    registered.  Either way a closed transport refuses further POSTs
    with :class:`ConnectionRefused` — exactly like a closed
    :class:`InMemoryHttpTransport`.  Responses always carry
    ``elapsed_ms == 0.0``; the measured wall time goes to the active
    tracer's metrics (``wire_ms``) so campaign payloads stay
    byte-identical to the in-memory stack.
    """

    def __init__(self, host="127.0.0.1", port=0, client_timeout=10.0,
                 server=None, client=None):
        self._owner = server is None
        self._server = server or WireServer(host=host, port=port)
        self._client = client or WireClient(timeout=client_timeout)
        #: The endpoint URLs this transport registered on the server.
        self._urls = set()
        self.requests_sent = 0
        self.closed = False

    @property
    def server_address(self):
        """``(host, port)`` of the running listener (starts it if needed)."""
        self._server.start()
        return (self._server.host, self._server.port)

    def register(self, url, handler):
        self._server.start()
        self._urls.add(url)
        return self._server.register(url, handler)

    def unregister(self, url):
        if url in self._urls:
            self._urls.discard(url)
            self._server.unregister(url)

    def post(self, url, body, headers=None):
        if self.closed:
            raise ConnectionRefused(f"transport closed: {url}")
        self._server.start()
        self.requests_sent += 1
        started = time.monotonic()
        try:
            response = self._client.post(
                self._server.host, self._server.port, url, body, headers
            )
        finally:
            tracer = current_tracer()
            if tracer.enabled:
                tracer.metrics.observe(
                    "wire_ms", (time.monotonic() - started) * 1000.0
                )
        # Parity: real wall time never enters a campaign payload; the
        # simulated-latency field behaves exactly as in-memory.
        response.elapsed_ms = 0.0
        return response

    def close(self):
        """Refuse further POSTs and remove this transport's endpoints; an
        owning transport also closes its connection and stops its
        listener.  Idempotent."""
        self.closed = True
        for url in list(self._urls):
            self.unregister(url)
        if self._owner:
            self._client.close()
            self._server.stop()


@contextlib.contextmanager
def unit_transports(factory):
    """``factory`` as one sweep unit's cells should call it.

    A unit builds one transport per cell.  When ``factory`` is
    :class:`WireTransport`, the transports built inside the block share
    one :class:`WireServer` and one :class:`WireClient`: one listener
    thread and one kept connection for the whole unit.  Leaving the
    block closes the connection and stops the listener, also when the
    unit raised, so no ``wire-*`` thread outlives its unit.  Any other
    factory (the in-memory transport, the regress drill-down's
    recorders) comes back unchanged.
    """
    if factory is not WireTransport:
        yield factory
        return
    server, client = WireServer(), WireClient()
    try:
        yield functools.partial(WireTransport, server=server, client=client)
    finally:
        client.close()
        server.stop()


def transport_factory_for(name):
    """The ``transport_factory`` callable for a ``--transport`` name."""
    from repro.runtime.transport import InMemoryHttpTransport

    if name == "wire":
        return WireTransport
    if name in (None, "", "memory"):
        return InMemoryHttpTransport
    raise ValueError(f"unknown transport {name!r} (expected memory or wire)")
