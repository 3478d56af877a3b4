"""Unit tests for socket-level fault injection and the shared taxonomy.

Satellite guarantee under test: every wire pathology raises exactly one
classified exception from the transport taxonomy shared with the
in-memory stack — the property that makes zero unclassified triage
escapes automatic.
"""

import threading

import pytest

from repro.faults import (
    DEFAULT_WIRE_FAULT_KINDS,
    FaultKind,
    FaultPlan,
    FaultingTransport,
    WireFaultKind,
    WireFaultPlan,
    WireFaultingTransport,
    fault_kind_of,
)
from repro.faults.wire import SLOWLORIS_DEADLINE, oneshot_fault_listener
from repro.runtime import InMemoryHttpTransport, WireClient
from repro.runtime.transport import (
    BadStatusLine,
    ChunkedEncodingError,
    ConnectionRefused,
    ConnectionReset,
    DeadlineExceeded,
    HeaderOverflow,
    PrematureEOF,
    ProtocolError,
    TransportError,
)

#: The documented pathology -> classified error contract, in full.
EXPECTED_ERRORS = {
    WireFaultKind.RESET: ConnectionReset,
    WireFaultKind.SLOWLORIS: DeadlineExceeded,
    WireFaultKind.HALF_CLOSE: PrematureEOF,
    WireFaultKind.TRUNCATION: PrematureEOF,
    WireFaultKind.GARBAGE_FRAMING: BadStatusLine,
    WireFaultKind.HEADER_OVERFLOW: HeaderOverflow,
    WireFaultKind.DUPLICATE_HEADER: ProtocolError,
    WireFaultKind.BAD_CHUNK: ChunkedEncodingError,
}


class TestOneshotListeners:
    @pytest.mark.parametrize("kind", DEFAULT_WIRE_FAULT_KINDS,
                             ids=lambda kind: kind.value)
    def test_each_pathology_raises_its_classified_error(self, kind):
        host, port, thread = oneshot_fault_listener(kind)
        timeout = (
            SLOWLORIS_DEADLINE if kind is WireFaultKind.SLOWLORIS else 5.0
        )
        with pytest.raises(EXPECTED_ERRORS[kind]) as excinfo:
            WireClient(timeout=timeout).post(host, port, "/x", "<probe/>")
        # The shared taxonomy: every wire error is a TransportError, so
        # lifecycle triage classifies it as a communication ERROR.
        assert isinstance(excinfo.value, TransportError)
        thread.join(timeout=15.0)
        assert not thread.is_alive(), f"{kind.value} listener leaked"


class TestWireFaultPlan:
    def test_rates_above_one_rejected(self):
        with pytest.raises(ValueError, match="above 1.0"):
            WireFaultPlan(7, {WireFaultKind.RESET: 0.6,
                              WireFaultKind.TRUNCATION: 0.6})

    def test_schedule_is_seed_deterministic(self):
        rates = {kind: 0.1 for kind in WireFaultKind}
        first = WireFaultPlan(42, rates)
        second = WireFaultPlan(42, rates)
        schedule = [first.next_event() for _ in range(50)]
        assert schedule == [second.next_event() for _ in range(50)]
        assert first.faults_scheduled == second.faults_scheduled

    def test_derive_matches_fresh_plan_with_derived_seed(self):
        from repro.faults.plan import derive_seed

        plan = WireFaultPlan.single(9, WireFaultKind.RESET, 0.5)
        derived = plan.derive("server", "client")
        fresh = WireFaultPlan.single(
            derive_seed(9, "server", "client"), WireFaultKind.RESET, 0.5
        )
        assert [derived.next_event() for _ in range(20)] == [
            fresh.next_event() for _ in range(20)
        ]

    def test_single_accepts_string_kind(self):
        plan = WireFaultPlan.single(1, "reset", 1.0)
        assert plan.next_event() is WireFaultKind.RESET


class TestWireFaultingTransport:
    def test_clean_request_passes_through_with_base_latency(self):
        inner = InMemoryHttpTransport()
        inner.register("http://x", lambda body, headers: "pong")
        faulting = WireFaultingTransport(
            inner, WireFaultPlan.single(3, WireFaultKind.RESET, 0.0,
                                        base_latency_ms=5.0)
        )
        response = faulting.post("http://x", "ping")
        assert response.body == "pong"
        assert response.elapsed_ms == 5.0
        assert faulting.total_faults_injected == 0

    def test_scheduled_fault_raises_classified_and_counts(self):
        inner = InMemoryHttpTransport()
        inner.register("http://x", lambda body, headers: "pong")
        faulting = WireFaultingTransport(
            inner, WireFaultPlan.single(3, WireFaultKind.TRUNCATION, 1.0)
        )
        with pytest.raises(PrematureEOF):
            faulting.post("http://x", "ping")
        assert faulting.faults_injected[WireFaultKind.TRUNCATION] == 1
        assert not [
            thread.name for thread in threading.enumerate()
            if thread.name.startswith("wire-fault-")
        ]


class TestFaultsBesideAKeptConnection:
    def test_fault_table_holds_while_the_client_keeps_a_connection(
        self, monkeypatch
    ):
        """Every pathology still raises its classified error when the
        inner transport holds a kept connection to the real server, and
        that connection carries the clean posts in between: fault
        connections are never kept, and never displace it."""
        from repro.runtime import WireTransport

        opened = []
        original = WireClient._connect

        def counting(self, host, port, deadline):
            opened.append(port)
            return original(self, host, port, deadline)

        monkeypatch.setattr(WireClient, "_connect", counting)
        inner = WireTransport()
        inner.register("http://x", lambda body, headers: "pong")
        try:
            assert inner.post("http://x", "ping").body == "pong"
            server_port = inner.server_address[1]
            for kind in DEFAULT_WIRE_FAULT_KINDS:
                faulting = WireFaultingTransport(
                    inner, WireFaultPlan.single(3, kind, 1.0)
                )
                with pytest.raises(EXPECTED_ERRORS[kind]):
                    faulting.post("http://x", "ping")
                assert inner.post("http://x", "ping").body == "pong"
        finally:
            inner.close()
        assert opened.count(server_port) == 1
        assert len(opened) == 1 + len(DEFAULT_WIRE_FAULT_KINDS)
        assert not [
            thread.name for thread in threading.enumerate()
            if thread.name.startswith("wire-")
        ]


class TestSharedTaxonomy:
    """Satellite 1: both stacks raise the *same* classified errors."""

    def test_connection_refused_is_one_class_across_stacks(self):
        inner = InMemoryHttpTransport()
        inner.register("http://x", lambda body, headers: "pong")
        chaos = FaultingTransport(
            inner,
            FaultPlan.single(1, FaultKind.CONNECTION_REFUSED, 1.0),
        )
        with pytest.raises(ConnectionRefused) as memory_exc:
            chaos.post("http://x", "ping")

        import socket

        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ConnectionRefused) as wire_exc:
            WireClient(timeout=2.0).post("127.0.0.1", port, "/x", "body")
        assert type(memory_exc.value) is type(wire_exc.value)

    def test_closed_transport_refuses_identically(self):
        from repro.runtime import WireTransport, close_transport

        for transport in (InMemoryHttpTransport(), WireTransport()):
            transport.register("http://x", lambda body, headers: "pong")
            close_transport(transport)
            with pytest.raises(ConnectionRefused):
                transport.post("http://x", "ping")


class TestFaultKindCoercion:
    def test_memory_kind_strings(self):
        assert fault_kind_of("http-503") is FaultKind.HTTP_503

    def test_wire_kind_strings(self):
        assert fault_kind_of("slowloris") is WireFaultKind.SLOWLORIS

    def test_enum_values_pass_through(self):
        assert fault_kind_of(FaultKind.LATENCY) is FaultKind.LATENCY
        assert fault_kind_of(WireFaultKind.RESET) is WireFaultKind.RESET

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            fault_kind_of("carrier-pigeon")

    def test_taxonomies_are_disjoint(self):
        memory = {kind.value for kind in FaultKind}
        wire = {kind.value for kind in WireFaultKind}
        assert not memory & wire
