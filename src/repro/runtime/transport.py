"""HTTP transports and the shared transport error taxonomy.

Two interchangeable transports implement the same duck-typed interface
(``register``/``unregister``/``post``/``close`` plus a ``requests_sent``
counter): the :class:`InMemoryHttpTransport` below, which routes POSTs
to handlers through a plain dict, and :class:`repro.runtime.wire
.WireTransport`, which carries the same requests over real loopback
sockets.  Campaigns pick one through their ``transport_factory`` hook
and must observe identical behavior either way.

**The taxonomy contract.**  Both transports raise the *same* classified
exception for the same logical failure, so resilience policies, triage
and reporting never need to know which transport ran:

========================  ==============================================
exception                 logical failure (both transports)
========================  ==============================================
:class:`ConnectionRefused`  nothing is accepting requests — the
                            transport was closed (in-memory) or the TCP
                            connect was refused (wire)
:class:`DeadlineExceeded`   the response arrived later than the client
                            was willing to wait
:class:`CircuitOpen`        a client-side circuit breaker refused to
                            send the request at all
:class:`ProtocolError`      the peer answered, but not with valid HTTP
                            — only the wire transport can *encounter*
                            these, but the classes live here so the
                            taxonomy is closed in one place
========================  ==============================================

:class:`ProtocolError` splits into the framing violations a strict
byte-level HTTP client can distinguish: :class:`BadStatusLine`,
:class:`HeaderOverflow`, :class:`ChunkedEncodingError`,
:class:`PrematureEOF` and :class:`ConnectionReset`.  All of them are
:class:`TransportError` subclasses, so every existing classification
path (lifecycle communication errors, invoke ``classify_failure``,
resilience retry loops) absorbs them with no new cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class TransportError(Exception):
    """A failure below HTTP: the request never produced a usable response."""


class ConnectionRefused(TransportError):
    """Nothing is accepting requests at the target URL.

    In-memory: the transport was :meth:`closed
    <InMemoryHttpTransport.close>`.  Wire: the TCP connect was refused
    or the listener is gone.  (The in-memory stack never binds a port,
    so this deliberately names the *logical* failure, not the syscall.)
    """


class DeadlineExceeded(TransportError):
    """The response arrived later than the client was willing to wait."""


class CircuitOpen(TransportError):
    """A client-side circuit breaker refused to send the request."""


class ProtocolError(TransportError):
    """The peer answered, but not with valid HTTP framing."""


class BadStatusLine(ProtocolError):
    """The response's first line is not ``HTTP/1.x <code> <reason>``."""


class HeaderOverflow(ProtocolError):
    """A header line or the header block exceeded the client's limits."""


class ChunkedEncodingError(ProtocolError):
    """A chunked transfer-encoding violation (bad size line, lost CRLF)."""


class PrematureEOF(ProtocolError):
    """The peer closed the connection before the framed body was complete."""


class ConnectionReset(ProtocolError):
    """The peer reset the connection mid-exchange (RST, broken pipe)."""


@dataclass
class HttpResponse:
    """A minimal HTTP response."""

    status: int
    body: str = ""
    headers: dict = field(default_factory=dict)
    #: Simulated round-trip latency.  Neither transport measures wall
    #: time into this field — the in-memory stack never sleeps, and the
    #: wire transport confines real timings to trace artifacts so both
    #: produce byte-identical campaign payloads.  Fault injectors set
    #: this and resilience policies read it.
    elapsed_ms: float = 0.0

    @property
    def ok(self):
        return 200 <= self.status < 300


class InMemoryHttpTransport:
    """Routes POSTs to registered endpoint handlers.

    Handlers take ``(body, headers)`` and return an :class:`HttpResponse`
    (or a plain string, promoted to a 200 response).
    """

    def __init__(self):
        self._endpoints = {}
        self.requests_sent = 0
        self.closed = False

    def register(self, url, handler):
        self._endpoints[url] = handler
        return url

    def unregister(self, url):
        self._endpoints.pop(url, None)

    def close(self):
        """Stop accepting requests; further POSTs raise ConnectionRefused.

        Mirrors shutting down the wire transport's listener so both
        transports refuse identically (unit-tested cross-transport).
        Idempotent.
        """
        self.closed = True

    def post(self, url, body, headers=None):
        """POST ``body`` to ``url``; 404 when nothing is listening.

        A handler that raises becomes an HTTP 500 — one buggy endpoint
        must not abort a whole campaign, exactly like a real app server
        turning an unhandled servlet exception into an error page.
        """
        if self.closed:
            raise ConnectionRefused(f"transport closed: {url}")
        self.requests_sent += 1
        return dispatch(self._endpoints, url, body, headers or {})


def dispatch(handlers, url, body, headers):
    """Route one POST through ``handlers``, a ``{url: handler}`` map.

    The one routing rule of both transports: 404 when nothing is
    listening at ``url``, 500 when the handler raises, and a plain
    string promoted to a 200 response.
    """
    handler = handlers.get(url)
    if handler is None:
        return HttpResponse(status=404, body=f"no endpoint at {url}")
    try:
        outcome = handler(body, headers)
    except Exception as exc:
        return HttpResponse(status=500, body=f"internal server error: {exc}")
    if isinstance(outcome, HttpResponse):
        return outcome
    return HttpResponse(status=200, body=str(outcome))


def close_transport(transport):
    """Close ``transport`` and every wrapped layer beneath it.

    Campaigns stack wrappers (resilience → fault injector → transport);
    walking the ``inner`` chain lets a cell tear down whatever it built
    without knowing the stacking — for the wire transport that is what
    reclaims the listener socket and its accept thread.
    """
    seen = set()
    while transport is not None and id(transport) not in seen:
        seen.add(id(transport))
        close = getattr(transport, "close", None)
        if callable(close):
            close()
        transport = getattr(transport, "inner", None)
