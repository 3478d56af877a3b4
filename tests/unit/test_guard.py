"""Unit tests for the guarded lifecycle executor and its triage taxonomy."""

import dataclasses
import gc
import multiprocessing
import threading
import time
import weakref

import pytest

from repro.appservers import GlassFish
from repro.core.outcomes import StepStatus
from repro.frameworks.client import MetroClient, SudsClient
from repro.obs.trace import Tracer, activate
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

    @pytest.mark.parametrize("intent", [SystemExit, KeyboardInterrupt])
    def test_operator_intent_propagates_under_a_deadline(self, intent):
        def stop():
            raise intent(3)

        limits = GuardLimits(deadline_seconds=5.0)
        started = time.perf_counter()
        with pytest.raises(intent):
            GuardedStep("s", stop, limits=limits).run()
        assert time.perf_counter() - started < 2.0
        verdict = run_guarded("next", lambda: "ok", limits=limits)
        assert verdict.ok and verdict.value == "ok"

    def test_detail_is_truncated(self):
        def verbose():
            raise XmlParseError("y" * 5000)

        verdict = run_guarded("parse", verbose)
        assert len(verdict.detail) <= 300


def _guarded_in_child(conn):
    verdict = run_guarded(
        "child", lambda: "ok", limits=GuardLimits(deadline_seconds=5.0)
    )
    conn.send((verdict.bucket.value, verdict.elapsed_seconds))
    conn.close()


class TestDeadlineWorker:
    LIMITS = GuardLimits(deadline_seconds=5.0)

    def test_deadline_steps_share_one_thread(self):
        ran_on = []

        def step(value):
            ran_on.append(threading.current_thread())
            return value

        before = threading.active_count()
        for value in range(20):
            verdict = run_guarded("step", step, value, limits=self.LIMITS)
            assert verdict.value == value
        assert threading.active_count() <= before + 1
        assert all(thread is ran_on[0] for thread in ran_on)
        assert ran_on[0] is not threading.current_thread()

    def test_abandoned_step_never_reaches_a_later_verdict(self):
        finished = threading.Event()

        def slow():
            time.sleep(0.3)
            finished.set()
            return "late"

        verdict = run_guarded(
            "slow", slow, limits=GuardLimits(deadline_seconds=0.05)
        )
        assert verdict.bucket is TriageBucket.TIMEOUT
        started = time.perf_counter()
        verdict = run_guarded("next", lambda: "mine", limits=self.LIMITS)
        assert verdict.value == "mine"
        assert time.perf_counter() - started < 1.0
        assert finished.wait(5.0)
        for value in range(5):
            verdict = run_guarded(
                "later", lambda v: v, value, limits=self.LIMITS
            )
            assert verdict.ok and verdict.value == value

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_forked_child_gets_a_working_worker(self):
        assert run_guarded("parent", lambda: 1, limits=self.LIMITS).ok
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=_guarded_in_child, args=(sender,))
        child.start()
        sender.close()
        try:
            assert receiver.poll(10.0), "child sent no verdict"
            bucket, elapsed = receiver.recv()
        finally:
            child.join(10.0)
        assert bucket == TriageBucket.CLEAN.value
        assert elapsed < 2.0
        assert child.exitcode == 0

    def test_worker_starts_before_the_step_span_opens(self, monkeypatch):
        # The step's span times the step only: a driving thread's first
        # deadline step starts its guard-worker with no guard span open.
        tracer = Tracer("0123456789abcdef")
        open_at_start = []
        start = threading.Thread.start

        def recording_start(thread):
            if thread.name == "guard-worker":
                open_at_start.append(tracer.current_span_id)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        verdicts = []
        with activate(tracer):
            # A new driving thread has no worker yet.
            driver = threading.Thread(target=lambda: verdicts.append(
                run_guarded("step", lambda: 1, limits=self.LIMITS)
            ))
            driver.start()
            driver.join(10.0)
        assert verdicts and verdicts[0].ok
        assert open_at_start == [tracer.root_id]

    def test_clean_step_input_freed_with_its_verdict(self):
        # The clean-path twin of the failed-step test above: once the
        # verdict is handed over, the worker keeps neither the step's
        # arguments nor its value.
        class Document:
            pass

        document = Document()
        alive = weakref.ref(document)
        gc.disable()
        try:
            verdict = run_guarded("read", lambda doc: [doc], document,
                                  limits=GuardLimits(deadline_seconds=10.0))
            assert verdict.ok and verdict.value[0] is document
            del document, verdict
            assert alive() is None
        finally:
            gc.enable()


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
