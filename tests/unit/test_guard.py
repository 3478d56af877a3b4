"""Unit tests for the guarded lifecycle executor and its triage taxonomy."""

import dataclasses
import gc
import time
import weakref

import pytest

from repro.appservers import GlassFish
from repro.core.outcomes import StepStatus
from repro.frameworks.client import MetroClient, SudsClient
from repro.runtime import (
    FATAL_BUCKETS,
    INLINE_LIMITS,
    GuardLimits,
    GuardedStep,
    InputBudgetExceeded,
    TriageBucket,
    classify_exception,
    run_full_lifecycle,
    run_guarded,
)
from repro.services import ServiceDefinition
from repro.typesystem import Language, Property, SimpleType, TypeInfo
from repro.wsdl.errors import WsdlReadError
from repro.xmlcore import XmlLimitError, XmlParseError
from repro.xsd.errors import SchemaError


def _deploy_plain():
    entry = TypeInfo(
        Language.JAVA, "pkg", "Plain",
        properties=(
            Property("size", SimpleType.INT),
            Property("tags", SimpleType.STRING, is_array=True),
        ),
    )
    record = GlassFish().deploy(ServiceDefinition(entry))
    assert record.accepted
    return record


class TestClassification:
    def test_tool_errors_are_parser_crash(self):
        for exc in (
            XmlParseError("boom"),
            WsdlReadError("boom"),
            SchemaError("boom"),
        ):
            assert classify_exception(exc) is TriageBucket.PARSER_CRASH

    def test_resource_errors_are_blowup(self):
        for exc in (
            XmlLimitError("deep", limit="max_depth"),
            InputBudgetExceeded("big"),
            RecursionError(),
            MemoryError(),
            OverflowError(),
        ):
            assert classify_exception(exc) is TriageBucket.RESOURCE_BLOWUP

    def test_limit_error_outranks_its_parse_error_parent(self):
        # XmlLimitError subclasses XmlParseError so legacy handlers keep
        # working, but the guard must triage it as a resource budget.
        exc = XmlLimitError("deep", limit="max_depth")
        assert isinstance(exc, XmlParseError)
        assert classify_exception(exc) is TriageBucket.RESOURCE_BLOWUP

    def test_everything_else_is_tool_internal(self):
        for exc in (RuntimeError("x"), KeyError("x"), ZeroDivisionError()):
            assert classify_exception(exc) is TriageBucket.TOOL_INTERNAL

    def test_fatal_buckets(self):
        assert TriageBucket.TIMEOUT in FATAL_BUCKETS
        assert TriageBucket.TOOL_INTERNAL in FATAL_BUCKETS
        assert TriageBucket.PARSER_CRASH not in FATAL_BUCKETS


class TestGuardedStep:
    def test_clean_run_returns_value(self):
        verdict = run_guarded("add", lambda a, b: a + b, 2, 3)
        assert verdict.ok and not verdict.fatal
        assert verdict.value == 5
        assert verdict.bucket is TriageBucket.CLEAN

    def test_classified_exception_becomes_verdict(self):
        def blow_up():
            raise XmlParseError("not xml")

        verdict = run_guarded("parse", blow_up)
        assert not verdict.ok
        assert verdict.bucket is TriageBucket.PARSER_CRASH
        assert "not xml" in verdict.detail
        assert isinstance(verdict.exception, XmlParseError)

    def test_unclassified_exception_is_tool_internal(self):
        verdict = run_guarded("gen", lambda: 1 / 0)
        assert verdict.bucket is TriageBucket.TOOL_INTERNAL
        assert verdict.fatal
        assert "ZeroDivisionError" in verdict.detail

    def test_timeout_abandons_the_step(self):
        limits = GuardLimits(deadline_seconds=0.05)
        verdict = run_guarded("slow", time.sleep, 5.0, limits=limits)
        assert verdict.bucket is TriageBucket.TIMEOUT
        assert verdict.fatal
        assert "deadline" in verdict.detail

    def test_inline_limits_run_without_watchdog(self):
        verdict = run_guarded("fast", lambda: "ok", limits=INLINE_LIMITS)
        assert verdict.ok and verdict.value == "ok"

    def test_failed_step_input_freed_with_its_verdict(self):
        # The verdict's exception reaches the step's frames through its
        # traceback; no reference cycle may keep them, and the input
        # they hold, alive until the cyclic collector runs.
        class Document:
            pass

        def parse(document):
            raise XmlParseError("not xml")

        document = Document()
        alive = weakref.ref(document)
        gc.disable()
        try:
            verdict = run_guarded("parse", parse, document,
                                  limits=GuardLimits(deadline_seconds=10.0))
            assert verdict.bucket is TriageBucket.PARSER_CRASH
            del document, verdict
            assert alive() is None
        finally:
            gc.enable()

    def test_input_budget(self):
        step = GuardedStep("read", str, limits=GuardLimits(max_input_bytes=10))
        step.check_input("short")
        with pytest.raises(InputBudgetExceeded):
            step.check_input("x" * 11)

    def test_keyboard_interrupt_propagates(self):
        def interrupted():
            raise KeyboardInterrupt("operator intent")

        with pytest.raises(KeyboardInterrupt):
            GuardedStep("step", interrupted, limits=INLINE_LIMITS).run()

    def test_detail_is_truncated(self):
        def verbose():
            raise XmlParseError("y" * 5000)

        verdict = run_guarded("parse", verbose)
        assert len(verdict.detail) <= 300


class TestGuardedLifecycle:
    def test_clean_lifecycle_unchanged(self):
        record = _deploy_plain()
        outcome = run_full_lifecycle(record, MetroClient(), client_id="metro")
        assert outcome.execution == StepStatus.OK
        assert outcome.triage == ""

    def test_corrupt_wsdl_text_is_classified_not_raised(self):
        record = _deploy_plain()
        broken = dataclasses.replace(
            record, wsdl_text=record.wsdl_text[: len(record.wsdl_text) // 3]
        )
        outcome = run_full_lifecycle(broken, SudsClient(), client_id="suds")
        assert outcome.generation == StepStatus.ERROR
        assert outcome.triage == TriageBucket.PARSER_CRASH.value
        assert "[parser-crash]" in outcome.detail

    def test_resource_blowup_wsdl_is_classified(self):
        record = _deploy_plain()
        point = record.wsdl_text.rfind("</")
        bomb = (
            record.wsdl_text[:point]
            + "x" * 2_000_000
            + record.wsdl_text[point:]
        )
        broken = dataclasses.replace(record, wsdl_text=bomb)
        outcome = run_full_lifecycle(broken, SudsClient(), client_id="suds")
        assert outcome.generation == StepStatus.ERROR
        assert outcome.triage == TriageBucket.RESOURCE_BLOWUP.value

    def test_oversized_input_hits_the_budget(self):
        record = _deploy_plain()
        limits = GuardLimits(deadline_seconds=None, max_input_bytes=100)
        outcome = run_full_lifecycle(
            record, SudsClient(), client_id="suds", limits=limits
        )
        assert outcome.generation == StepStatus.ERROR
        assert outcome.triage == TriageBucket.RESOURCE_BLOWUP.value

    def test_internal_generator_bug_is_contained(self):
        record = _deploy_plain()
        client = SudsClient()
        client.generate = lambda document: (_ for _ in ()).throw(
            RuntimeError("simulated harness bug")
        )
        outcome = run_full_lifecycle(record, client, client_id="suds")
        assert outcome.generation == StepStatus.ERROR
        assert outcome.triage == TriageBucket.TOOL_INTERNAL.value
        assert "simulated harness bug" in outcome.detail
