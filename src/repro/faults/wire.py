"""Socket-level fault injection: faults the in-memory stack cannot express.

The in-memory chaos wrapper (:mod:`repro.faults.transport`) misbehaves
at the *response object* level.  This module misbehaves at the *byte*
level: a scheduled fault redirects the request to a one-shot loopback
listener that performs a genuine socket pathology — reset mid-body,
slowloris byte-trickling, half-close, garbage framing, oversized or
duplicated headers, chunked-encoding violations — so the strict
:class:`~repro.runtime.wire.WireClient` actually experiences the
failure and raises its classified framing error.

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

Scheduling follows the :class:`~repro.faults.plan.FaultPlan` idiom
exactly: a seeded single uniform draw walked through cumulative rates
in taxonomy order, with label-derived sub-seeds, so a resumed or
sharded sweep sees the same schedule as an uninterrupted serial one.
Only the *schedule* is deterministic byte-for-byte; the classified
outcome per kind is deterministic by construction of the pathology.
"""

from __future__ import annotations

import enum
import random
import socket
import struct
import threading
import time

from repro.faults.plan import derive_seed
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


class WireFaultKind(enum.Enum):
    """Wire-only failure modes, in order of appearance on the socket."""

    #: RST mid-body: response headers promise more than arrives.
    RESET = "reset"
    #: The peer keeps trickling one header byte inside any recv window.
    SLOWLORIS = "slowloris"
    #: ``shutdown(SHUT_WR)`` before a single response byte.
    HALF_CLOSE = "half-close"
    #: Clean FIN mid-body — a truncated but well-framed prefix.
    TRUNCATION = "truncation"
    #: The peer speaks, but it is not HTTP.
    GARBAGE_FRAMING = "garbage-framing"
    #: A header block past any sane client limit.
    HEADER_OVERFLOW = "header-overflow"
    #: Two conflicting ``Content-Length`` headers.
    DUPLICATE_HEADER = "duplicate-header"
    #: ``Transfer-Encoding: chunked`` with a non-hex chunk size.
    BAD_CHUNK = "bad-chunk"


#: Sweep order used by campaigns and reports.
DEFAULT_WIRE_FAULT_KINDS = tuple(WireFaultKind)


class WireFaultPlan:
    """A seeded schedule of wire faults at given rates.

    Mirrors :class:`repro.faults.plan.FaultPlan`: the per-request draw
    is a single uniform sample walked through cumulative rates in
    :class:`WireFaultKind` order, so the schedule depends only on the
    seed, the rates and the request index.
    """

    def __init__(self, seed, rates, base_latency_ms=5.0):
        self.seed = seed
        self.rates = {
            WireFaultKind(kind): float(rate) for kind, rate in rates.items()
        }
        total = sum(self.rates.values())
        if total > 1.0 + 1e-9:
            raise ValueError(f"wire fault rates sum to {total}, above 1.0")
        self.base_latency_ms = base_latency_ms
        self._rng = random.Random(seed)
        self.requests_seen = 0
        self.faults_scheduled = 0

    @classmethod
    def single(cls, seed, kind, rate, **kwargs):
        """A plan injecting only ``kind`` at ``rate``."""
        return cls(seed, {WireFaultKind(kind): rate}, **kwargs)

    def derive(self, *labels):
        """A fresh plan with the same rates and a label-derived seed."""
        return WireFaultPlan(
            derive_seed(self.seed, *labels),
            dict(self.rates),
            base_latency_ms=self.base_latency_ms,
        )

    def next_event(self):
        """The injection decision for the next request (None = clean)."""
        self.requests_seen += 1
        draw = self._rng.random()
        cumulative = 0.0
        for kind in WireFaultKind:
            cumulative += self.rates.get(kind, 0.0)
            if draw < cumulative:
                self.faults_scheduled += 1
                return kind
        return None


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
    WireFaultKind.RESET: _behave_reset,
    WireFaultKind.SLOWLORIS: _behave_slowloris,
    WireFaultKind.HALF_CLOSE: _behave_half_close,
    WireFaultKind.TRUNCATION: _behave_truncation,
    WireFaultKind.GARBAGE_FRAMING: _behave_garbage,
    WireFaultKind.HEADER_OVERFLOW: _behave_header_overflow,
    WireFaultKind.DUPLICATE_HEADER: _behave_duplicate_header,
    WireFaultKind.BAD_CHUNK: _behave_bad_chunk,
}


def oneshot_fault_listener(kind):
    """Spin up a listener that misbehaves per ``kind`` for one connection.

    Returns ``(host, port, thread)``.  The listener accepts exactly one
    connection (or gives up after a bounded wait if none arrives), runs
    the pathology, and exits — it can never outlive its request by more
    than the bounded timeouts, so a sweep leaves no orphaned threads.
    """
    behavior = _BEHAVIORS[WireFaultKind(kind)]
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


class WireFaultingTransport:
    """Wraps a :class:`WireTransport`; injects scheduled socket faults.

    A clean request flows to the wrapped transport untouched (stamping
    the plan's simulated base latency, exactly like the in-memory chaos
    wrapper).  A scheduled fault instead dials a one-shot misbehaving
    listener with the same request bytes, so the classified error the
    client raises comes from a genuine socket pathology, not a mock.
    """

    def __init__(self, inner, plan):
        self.inner = inner
        self.plan = plan
        self.faults_injected = {kind: 0 for kind in WireFaultKind}

    @property
    def total_faults_injected(self):
        return sum(self.faults_injected.values())

    def register(self, url, handler):
        return self.inner.register(url, handler)

    def unregister(self, url):
        self.inner.unregister(url)

    def post(self, url, body, headers=None):
        kind = self.plan.next_event()
        if kind is None:
            response = self.inner.post(url, body, headers)
            if not response.elapsed_ms:
                response.elapsed_ms = self.plan.base_latency_ms
            return response

        self.faults_injected[kind] += 1
        host, port, thread = oneshot_fault_listener(kind)
        # A client of its own: the fault connection is never kept, and
        # the inner transport's kept connection stays untouched.
        client = WireClient()
        timeout = (
            SLOWLORIS_DEADLINE if kind is WireFaultKind.SLOWLORIS else None
        )
        try:
            response = client.post(
                host, port, url, body, headers, timeout=timeout
            )
        finally:
            client.close()
            thread.join(timeout=_LISTENER_TIMEOUT)
        # Unreachable for every current pathology (all of them raise a
        # classified TransportError), kept total for future kinds that
        # hand back a parseable-but-wrong response.
        response.elapsed_ms = self.plan.base_latency_ms
        return response
