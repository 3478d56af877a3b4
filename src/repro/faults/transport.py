"""Chaos wrapper: a transport that injects the scheduled faults."""

from __future__ import annotations

from repro.faults.plan import DEFAULT_WIRE_FAULT_KINDS, FaultKind
from repro.faults.wire import post_to_fault_listener
from repro.runtime.transport import ConnectionRefused, HttpResponse


def _truncate(body):
    """Drop the second half of the body — the connection died mid-read."""
    return body[: len(body) // 2]


def _corrupt(body):
    """Break well-formedness while keeping the payload recognizable."""
    if "</" in body:
        # Amputate the first closing tag: classic buggy-proxy mangling.
        return body.replace("</", "<", 1)
    return body + "<unclosed"


class FaultingTransport:
    """Wraps a transport and injects faults according to a plan.

    Fault application points mirror where each failure happens on a real
    wire: CONNECTION_REFUSED pre-empts the request entirely, HTTP_5xx
    replace the server's answer, LATENCY stamps the response with a
    simulated round-trip beyond any deadline, and TRUNCATED_BODY /
    MALFORMED_ENVELOPE mangle an otherwise good response.  A socket
    kind sends the request to a one-shot listener that performs the
    pathology (:mod:`repro.faults.wire`), so the classified error the
    client raises comes from a genuine socket, not a mock.
    """

    def __init__(self, inner, plan):
        self.inner = inner
        self.plan = plan
        self.faults_injected = {kind: 0 for kind in FaultKind}

    @property
    def total_faults_injected(self):
        return sum(self.faults_injected.values())

    def register(self, url, handler):
        return self.inner.register(url, handler)

    def unregister(self, url):
        self.inner.unregister(url)

    def post(self, url, body, headers=None):
        event = self.plan.next_event()
        if event is None:
            response = self.inner.post(url, body, headers)
            if not response.elapsed_ms:
                response.elapsed_ms = self.plan.base_latency_ms
            return response

        kind = event.kind
        self.faults_injected[kind] += 1
        if kind is FaultKind.CONNECTION_REFUSED:
            raise ConnectionRefused(f"connection to {url} refused")
        if kind is FaultKind.HTTP_500:
            return HttpResponse(
                status=500, body="<html>Internal Server Error</html>",
                elapsed_ms=self.plan.base_latency_ms,
            )
        if kind is FaultKind.HTTP_503:
            return HttpResponse(
                status=503, body="<html>Service Unavailable</html>",
                headers={"Retry-After": "1"},
                elapsed_ms=self.plan.base_latency_ms,
            )

        if kind in DEFAULT_WIRE_FAULT_KINDS:
            response = post_to_fault_listener(kind, url, body, headers)
        else:
            response = self.inner.post(url, body, headers)
        if kind is FaultKind.LATENCY:
            response.elapsed_ms = event.latency_ms
            return response
        response.elapsed_ms = self.plan.base_latency_ms
        if kind is FaultKind.TRUNCATED_BODY:
            response.body = _truncate(response.body)
        elif kind is FaultKind.MALFORMED_ENVELOPE:
            response.body = _corrupt(response.body)
        return response
