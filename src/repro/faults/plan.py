"""The fault taxonomy and the deterministic per-request fault schedule.

A :class:`FaultPlan` is a reproducible stream of injection decisions
over any kinds of the one :class:`FaultKind` taxonomy: seeded once, it
answers "does request number *n* fail, and how?" the same way on every
run.  A campaign seeds each plan with :func:`derive_seed`, hashing
stable labels (server id, service name, client id, …) into its own
seed, so a campaign that resumes from a checkpoint sees exactly the
faults the uninterrupted run would have seen — scheduling is
independent of any global request counter.
"""

from __future__ import annotations

import enum
import hashlib
import random
from dataclasses import dataclass


class FaultKind(enum.Enum):
    """The injectable failure modes: six response-level kinds, then
    eight socket kinds performed on a real loopback socket, each group
    in order of appearance on the wire."""

    #: TCP connect fails; the request never leaves the client.
    CONNECTION_REFUSED = "connection-refused"
    #: The server answers HTTP 500 with a non-SOAP error page.
    HTTP_500 = "http-500"
    #: The server answers HTTP 503 (overloaded / restarting).
    HTTP_503 = "http-503"
    #: The response arrives, but far beyond any sane deadline.
    LATENCY = "latency"
    #: The connection drops mid-response: a truncated body.
    TRUNCATED_BODY = "truncated-body"
    #: The body arrives whole but is not well-formed SOAP.
    MALFORMED_ENVELOPE = "malformed-envelope"
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


#: The response-level kinds, in sweep order: the default sweep.
DEFAULT_FAULT_KINDS = tuple(FaultKind)[:6]
#: The socket kinds, in sweep order; the CLI sweeps them only with
#: ``--transport wire``.
DEFAULT_WIRE_FAULT_KINDS = tuple(FaultKind)[6:]


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled injection."""

    kind: FaultKind
    #: Simulated response latency for LATENCY faults, ms.
    latency_ms: float = 0.0


def derive_seed(seed, *labels):
    """Mix ``labels`` into ``seed`` reproducibly (no salted ``hash()``)."""
    digest = hashlib.sha256(
        ("\x1f".join([str(seed), *map(str, labels)])).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


class FaultPlan:
    """A seeded schedule of faults at a given rate.

    ``rates`` maps :class:`FaultKind` to an injection probability; the
    per-request draw is a single uniform sample walked through the
    cumulative rates in taxonomy order, so the schedule depends only on
    the seed, the rates and the request index.
    """

    def __init__(self, seed, rates, slow_latency_ms=30_000.0,
                 base_latency_ms=5.0):
        self.rates = {FaultKind(kind): float(rate) for kind, rate in rates.items()}
        total = sum(self.rates.values())
        if total > 1.0 + 1e-9:
            raise ValueError(f"fault rates sum to {total}, above 1.0")
        self.slow_latency_ms = slow_latency_ms
        self.base_latency_ms = base_latency_ms
        self._rng = random.Random(seed)
        self.requests_seen = 0
        self.faults_scheduled = 0

    @classmethod
    def single(cls, seed, kind, rate, **kwargs):
        """A plan injecting only ``kind`` at ``rate``."""
        return cls(seed, {FaultKind(kind): rate}, **kwargs)

    def next_event(self):
        """The injection decision for the next request (None = clean)."""
        self.requests_seen += 1
        draw = self._rng.random()
        cumulative = 0.0
        for kind in FaultKind:
            cumulative += self.rates.get(kind, 0.0)
            if draw < cumulative:
                self.faults_scheduled += 1
                latency = (
                    self.slow_latency_ms if kind is FaultKind.LATENCY else 0.0
                )
                return FaultEvent(kind=kind, latency_ms=latency)
        return None
