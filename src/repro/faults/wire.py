"""Socket-level faults: the pathologies the in-memory stack cannot express.

The response-level kinds of :class:`~repro.faults.plan.FaultKind`
misbehave at the *response object* level.  Its socket kinds misbehave
at the *byte* level: :class:`~repro.faults.transport.FaultingTransport`
hands such a request to :func:`post_to_fault_listener`, which sends it
to a one-shot loopback listener that performs a genuine socket
pathology — reset mid-body, slowloris byte-trickling, half-close,
garbage framing, oversized or duplicated headers, chunked-encoding
violations — so the strict :class:`~repro.runtime.wire.WireClient`
actually experiences the failure and raises its classified framing
error.

Every pathology maps to exactly one exception class in the shared
transport taxonomy, all of them :class:`TransportError` subclasses, so
lifecycle triage and the resilience matrices classify them with zero
unclassified escapes:

==================  =========================================
wire fault kind     classified client error
==================  =========================================
reset               :class:`ConnectionReset`
slowloris           :class:`DeadlineExceeded`
half-close          :class:`PrematureEOF`
truncation          :class:`PrematureEOF`
garbage-framing     :class:`BadStatusLine`
header-overflow     :class:`HeaderOverflow`
duplicate-header    :class:`ProtocolError`
bad-chunk           :class:`ChunkedEncodingError`
==================  =========================================

The one :class:`~repro.faults.plan.FaultPlan` schedules socket kinds
like any other, so a resumed or sharded sweep sees the same schedule as
an uninterrupted serial one.  Only the *schedule* is deterministic
byte-for-byte; the classified outcome per kind is deterministic by
construction of the pathology.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

from repro.faults.plan import FaultKind
from repro.runtime.wire import MAX_HEADER_BYTES, WireClient

#: How long a one-shot listener waits for its single connection before
#: giving up — the bound that guarantees no fault thread outlives its
#: request by more than this.
_LISTENER_TIMEOUT = 10.0
#: Slowloris pacing: one drip per interval, client deadline a few drips
#: in.  Real wall time, confined to the fault path — never a payload.
SLOWLORIS_DEADLINE = 0.25
_DRIP_INTERVAL = 0.05
_MAX_DRIPS = 200


# -- one-shot fault listeners --------------------------------------------------


def _reset_hard(conn):
    """Arrange for close() to fire an RST instead of a graceful FIN."""
    conn.setsockopt(
        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
    )


def _drain_head(conn):
    """Read the request up to its blank line (best-effort, bounded)."""
    buffer = b""
    while b"\r\n\r\n" not in buffer and len(buffer) < MAX_HEADER_BYTES:
        try:
            chunk = conn.recv(65536)
        except OSError:
            return buffer
        if not chunk:
            return buffer
        buffer += chunk
    return buffer


def _behave_reset(conn):
    _drain_head(conn)
    conn.sendall(
        b"HTTP/1.1 200 OK\r\nContent-Length: 1000\r\n\r\npartial body, then"
    )
    _reset_hard(conn)


def _behave_slowloris(conn):
    _drain_head(conn)
    try:
        conn.sendall(b"HTTP/1.1 200 OK\r\nX-Drip:")
        for _ in range(_MAX_DRIPS):
            time.sleep(_DRIP_INTERVAL)
            conn.sendall(b"z")
    except OSError:
        pass  # the client gave up — exactly the point


def _behave_half_close(conn):
    _drain_head(conn)
    conn.shutdown(socket.SHUT_WR)
    _drain_head(conn)  # keep reading until the client hangs up


def _behave_truncation(conn):
    _drain_head(conn)
    conn.sendall(
        b"HTTP/1.1 200 OK\r\nContent-Length: 4096\r\n\r\n<soapenv:Envelope"
    )


def _behave_garbage(conn):
    _drain_head(conn)
    conn.sendall(b"220 mail.example.com ESMTP ready\r\n\r\n")


def _behave_header_overflow(conn):
    _drain_head(conn)
    conn.sendall(
        b"HTTP/1.1 200 OK\r\nX-Padding: " + b"a" * (MAX_HEADER_BYTES + 1024)
        + b"\r\n\r\n"
    )


def _behave_duplicate_header(conn):
    _drain_head(conn)
    conn.sendall(
        b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 7\r\n\r\n"
        b"aaaaaaa"
    )


def _behave_bad_chunk(conn):
    _drain_head(conn)
    conn.sendall(
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"ZZZ\r\nnot a chunk\r\n"
    )


_BEHAVIORS = {
    FaultKind.RESET: _behave_reset,
    FaultKind.SLOWLORIS: _behave_slowloris,
    FaultKind.HALF_CLOSE: _behave_half_close,
    FaultKind.TRUNCATION: _behave_truncation,
    FaultKind.GARBAGE_FRAMING: _behave_garbage,
    FaultKind.HEADER_OVERFLOW: _behave_header_overflow,
    FaultKind.DUPLICATE_HEADER: _behave_duplicate_header,
    FaultKind.BAD_CHUNK: _behave_bad_chunk,
}


def oneshot_fault_listener(kind):
    """Spin up a listener that misbehaves per ``kind`` for one connection.

    Returns ``(host, port, thread)``.  The listener accepts exactly one
    connection (or gives up after a bounded wait if none arrives), runs
    the pathology, and exits — it can never outlive its request by more
    than the bounded timeouts, so a sweep leaves no orphaned threads.
    """
    behavior = _BEHAVIORS[FaultKind(kind)]
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    listener.settimeout(_LISTENER_TIMEOUT)
    host, port = listener.getsockname()

    def run():
        conn = None
        try:
            conn, _ = listener.accept()
            conn.settimeout(_LISTENER_TIMEOUT)
            behavior(conn)
        except OSError:
            pass
        finally:
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
            listener.close()

    thread = threading.Thread(
        target=run, name=f"wire-fault-{port}", daemon=True
    )
    thread.start()
    return host, port, thread


def post_to_fault_listener(kind, url, body, headers):
    """Post one request to a one-shot listener misbehaving per ``kind``.

    Every current pathology makes the client raise its classified
    :class:`~repro.runtime.transport.TransportError`; a kind that hands
    back a parseable-but-wrong response would return it.
    """
    host, port, thread = oneshot_fault_listener(kind)
    # A client of its own: the fault connection is never kept, and the
    # wrapped transport's kept connection stays untouched.
    client = WireClient()
    timeout = SLOWLORIS_DEADLINE if kind is FaultKind.SLOWLORIS else None
    try:
        return client.post(host, port, url, body, headers, timeout=timeout)
    finally:
        client.close()
        thread.join(timeout=_LISTENER_TIMEOUT)
