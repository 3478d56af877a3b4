"""Fault plans, chaos transport, and the resilient client runtime."""

import pytest

from repro.appservers import GlassFish
from repro.faults import FaultKind, FaultPlan, FaultingTransport, policy_for
from repro.faults.plan import derive_seed
from repro.faults.policies import CLIENT_POLICIES
from repro.frameworks.client import SudsClient
from repro.frameworks.registry import CLIENT_IDS
from repro.runtime import (
    CircuitOpen,
    ConnectionRefused,
    DeadlineExceeded,
    HttpResponse,
    InMemoryHttpTransport,
    ResiliencePolicy,
    ResilientTransport,
    run_full_lifecycle,
)
from repro.services import ServiceDefinition
from repro.typesystem import Language, Property, TypeInfo


def _deployed():
    entry = TypeInfo(Language.JAVA, "pkg", "Plain",
                     properties=(Property("size"),))
    return GlassFish().deploy(ServiceDefinition(entry))


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        rates = {kind: 0.05 for kind in FaultKind}
        a = FaultPlan(seed=42, rates=rates)
        b = FaultPlan(seed=42, rates=rates)
        assert [a.next_event() for _ in range(200)] == [
            b.next_event() for _ in range(200)
        ]

    def test_different_seeds_diverge(self):
        a = FaultPlan.single(1, FaultKind.HTTP_500, 0.5)
        b = FaultPlan.single(2, FaultKind.HTTP_500, 0.5)
        assert [a.next_event() for _ in range(64)] != [
            b.next_event() for _ in range(64)
        ]

    def test_zero_rate_never_faults(self):
        plan = FaultPlan.single(7, FaultKind.CONNECTION_REFUSED, 0.0)
        assert all(plan.next_event() is None for _ in range(100))

    def test_rate_one_always_faults(self):
        plan = FaultPlan.single(7, FaultKind.TRUNCATED_BODY, 1.0)
        events = [plan.next_event() for _ in range(50)]
        assert all(
            event is not None and event.kind is FaultKind.TRUNCATED_BODY
            for event in events
        )

    def test_rates_above_one_rejected(self):
        for first, second in (
            (FaultKind.HTTP_500, FaultKind.HTTP_503),
            (FaultKind.LATENCY, FaultKind.SLOWLORIS),
        ):
            with pytest.raises(ValueError, match="above 1.0"):
                FaultPlan(0, {first: 0.7, second: 0.6})

    def test_derive_seed_is_stable_and_label_sensitive(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")
        assert derive_seed(1, "a", "b") != derive_seed(1, "a", "c")
        assert derive_seed(1, "a", "b") != derive_seed(2, "a", "b")

    def test_observed_rate_tracks_configured_rate(self):
        plan = FaultPlan.single(123, FaultKind.HTTP_503, 0.3)
        faults = sum(plan.next_event() is not None for _ in range(2000))
        assert 0.25 < faults / 2000 < 0.35

    @pytest.mark.parametrize("kind", FaultKind, ids=lambda kind: kind.value)
    def test_schedule_is_seed_deterministic_for_every_kind(self, kind):
        first = FaultPlan.single(42, kind, 0.5)
        second = FaultPlan.single(42, kind, 0.5)
        schedule = [first.next_event() for _ in range(50)]
        assert schedule == [second.next_event() for _ in range(50)]
        assert first.faults_scheduled == second.faults_scheduled > 0
        assert {event.kind for event in schedule if event} == {kind}

    @pytest.mark.parametrize("kind", FaultKind, ids=lambda kind: kind.value)
    def test_rates_zero_and_one_hold_for_every_kind(self, kind):
        never = FaultPlan.single(7, kind, 0.0)
        assert all(never.next_event() is None for _ in range(100))
        always = FaultPlan.single(7, kind, 1.0)
        assert all(always.next_event().kind is kind for _ in range(50))

    @pytest.mark.parametrize("kind", FaultKind, ids=lambda kind: kind.value)
    def test_single_accepts_every_kind_as_a_string(self, kind):
        plan = FaultPlan.single(1, kind.value, 1.0)
        assert plan.next_event().kind is kind


class TestFaultingTransport:
    def _transport(self, kind, rate=1.0):
        inner = InMemoryHttpTransport()
        inner.register("http://x/svc", lambda body, headers: "pong")
        plan = FaultPlan.single(5, kind, rate)
        return FaultingTransport(inner, plan)

    def test_clean_passthrough(self):
        transport = self._transport(FaultKind.HTTP_500, rate=0.0)
        response = transport.post("http://x/svc", "ping")
        assert response.ok and response.body == "pong"
        assert transport.total_faults_injected == 0

    def test_connection_refused_raises(self):
        transport = self._transport(FaultKind.CONNECTION_REFUSED)
        with pytest.raises(ConnectionRefused):
            transport.post("http://x/svc", "ping")
        assert transport.faults_injected[FaultKind.CONNECTION_REFUSED] == 1

    def test_http_errors_returned(self):
        assert self._transport(FaultKind.HTTP_500).post("u", "b").status == 500
        assert self._transport(FaultKind.HTTP_503).post("u", "b").status == 503

    def test_latency_stamps_slow_response(self):
        transport = self._transport(FaultKind.LATENCY)
        response = transport.post("http://x/svc", "ping")
        assert response.ok
        assert response.elapsed_ms == transport.plan.slow_latency_ms

    def test_truncation_halves_body(self):
        transport = self._transport(FaultKind.TRUNCATED_BODY)
        response = transport.post("http://x/svc", "ping")
        assert response.body == "po"

    def test_malformed_envelope_breaks_wellformedness(self):
        inner = InMemoryHttpTransport()
        inner.register("u", lambda body, headers: "<a><b>x</b></a>")
        transport = FaultingTransport(
            inner, FaultPlan.single(5, FaultKind.MALFORMED_ENVELOPE, 1.0)
        )
        from repro.xmlcore import XmlParseError, parse

        with pytest.raises(XmlParseError):
            parse(transport.post("u", "ping").body)


class TestHandlerCrashContainment:
    def test_handler_exception_becomes_http_500(self):
        transport = InMemoryHttpTransport()

        def broken(body, headers):
            raise RuntimeError("endpoint bug")

        transport.register("http://x/broken", broken)
        response = transport.post("http://x/broken", "ping")
        assert response.status == 500
        assert "endpoint bug" in response.body


class TestResilientTransport:
    def _flaky(self, failures, status=503):
        """A transport that fails ``failures`` times, then succeeds."""
        state = {"left": failures}

        class Flaky:
            def post(self, url, body, headers=None):
                if state["left"] > 0:
                    state["left"] -= 1
                    return HttpResponse(status=status, body="boom")
                return HttpResponse(status=200, body="ok")

        return Flaky()

    def test_naive_policy_surfaces_first_failure(self):
        transport = ResilientTransport(self._flaky(1), ResiliencePolicy())
        assert transport.post("u", "b").status == 503
        assert transport.last.attempts == 1

    def test_retry_recovers_and_is_recorded(self):
        policy = ResiliencePolicy(max_retries=2)
        transport = ResilientTransport(self._flaky(2), policy, seed=3)
        response = transport.post("u", "b")
        assert response.ok
        assert transport.last.attempts == 3
        assert transport.last.recovered
        assert transport.retries_performed == 2
        assert transport.last.backoff_ms > 0

    def test_budget_exhaustion_returns_last_failure(self):
        policy = ResiliencePolicy(max_retries=2)
        transport = ResilientTransport(self._flaky(5), policy)
        assert transport.post("u", "b").status == 503

    def test_deadline_exceeded_on_slow_response(self):
        class Slow:
            def post(self, url, body, headers=None):
                return HttpResponse(status=200, body="ok", elapsed_ms=99_999)

        transport = ResilientTransport(
            Slow(), ResiliencePolicy(timeout_ms=1_000)
        )
        with pytest.raises(DeadlineExceeded):
            transport.post("u", "b")

    def test_deterministic_backoff_jitter(self):
        policy = ResiliencePolicy(max_retries=3)
        a = ResilientTransport(self._flaky(3), policy, seed=11)
        b = ResilientTransport(self._flaky(3), policy, seed=11)
        a.post("u", "b")
        b.post("u", "b")
        assert a.last.backoff_ms == b.last.backoff_ms

    def test_circuit_breaker_opens_and_half_opens(self):
        policy = ResiliencePolicy(
            max_retries=0, breaker_threshold=2, breaker_cooldown=2
        )
        transport = ResilientTransport(self._flaky(2), policy)
        assert transport.post("u", "b").status == 503
        assert transport.post("u", "b").status == 503
        # Breaker open: requests are rejected without touching the wire.
        with pytest.raises(CircuitOpen):
            transport.post("u", "b")
        with pytest.raises(CircuitOpen):
            transport.post("u", "b")
        # Cooldown elapsed: the half-open probe goes through and closes.
        assert transport.post("u", "b").ok
        assert transport.post("u", "b").ok
        assert transport.breaker.trips == 1


class TestPolicies:
    def test_every_studied_client_has_a_policy(self):
        assert set(CLIENT_POLICIES) == set(CLIENT_IDS)

    def test_policy_for_unknown_client_is_naive(self):
        assert policy_for("not-a-client").max_retries == 0

    def test_retrying_stacks_retry_more_than_naive_ones(self):
        assert policy_for("metro").max_retries > policy_for("suds").max_retries


class TestResilientLifecycle:
    def test_degraded_communication_on_recovery(self):
        from repro.faults import FaultEvent

        record = _deployed()

        # Exactly one 503 then clean: the single-retry client recovers.
        class ScriptedPlan:
            slow_latency_ms = 30_000.0
            base_latency_ms = 5.0

            def __init__(self):
                self.events = [FaultEvent(FaultKind.HTTP_503)]

            def next_event(self):
                return self.events.pop(0) if self.events else None

        faulting = FaultingTransport(InMemoryHttpTransport(), ScriptedPlan())
        transport = ResilientTransport(
            faulting, ResiliencePolicy(max_retries=1), seed=1
        )
        outcome = run_full_lifecycle(
            record, SudsClient(), client_id="suds", transport=transport
        )
        from repro.core.outcomes import StepStatus

        assert outcome.communication is StepStatus.DEGRADED
        assert outcome.execution is StepStatus.OK

    def test_hard_failure_on_exhausted_budget(self):
        record = _deployed()
        plan = FaultPlan.single(0, FaultKind.CONNECTION_REFUSED, 1.0)
        faulting = FaultingTransport(InMemoryHttpTransport(), plan)
        transport = ResilientTransport(
            faulting, ResiliencePolicy(max_retries=1), seed=1
        )
        outcome = run_full_lifecycle(
            record, SudsClient(), client_id="suds", transport=transport
        )
        from repro.core.outcomes import StepStatus

        assert outcome.communication is StepStatus.ERROR
        assert "refused" in outcome.detail

    def test_truncated_body_is_a_communication_error(self):
        record = _deployed()
        plan = FaultPlan.single(0, FaultKind.TRUNCATED_BODY, 1.0)
        transport = FaultingTransport(InMemoryHttpTransport(), plan)
        outcome = run_full_lifecycle(
            record, SudsClient(), client_id="suds", transport=transport
        )
        from repro.core.outcomes import StepStatus

        assert outcome.communication is StepStatus.ERROR
        assert "malformed response" in outcome.detail
