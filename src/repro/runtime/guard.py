"""Guarded lifecycle-step execution: every failure becomes a verdict.

The 22k-service sweep must be *total*: whatever a hostile WSDL makes a
parser, generator or compiler simulator do — crash, recurse forever,
allocate a gigabyte — the harness records a classified cell and moves
on.  :class:`GuardedStep` wraps one lifecycle step with a wall-clock
deadline, an input-size budget and an exception taxonomy that triages
any raised error into one of four buckets:

``parser-crash``
    The tool rejected the document with one of its own classified
    errors (:class:`XmlParseError`, :class:`WsdlReadError`, …) — the
    expected, healthy response to a corrupt description.
``resource-blowup``
    A resource budget tripped (:class:`XmlLimitError`, RecursionError,
    MemoryError, the guard's own input-size cap) — contained, but worth
    tracking per tool.
``timeout``
    The step ran past its wall-clock deadline and was abandoned.
``tool-internal``
    Anything else: an unclassified exception escaping a simulator.
    This is the bucket that must stay empty — each hit is a harness
    bug, and the fuzz campaign quarantines the offending cell.
"""

from __future__ import annotations

import enum
import os
import queue
import threading
import time
import weakref
from dataclasses import dataclass, field

from repro.obs.trace import current_tracer
from repro.wsdl.errors import WsdlError
from repro.xmlcore.errors import XmlError, XmlLimitError
from repro.xmlcore.parser import XmlLimits
from repro.xsd.errors import SchemaError


class TriageBucket(enum.Enum):
    """Where a guarded step's outcome lands in the crash-triage matrix."""

    CLEAN = "clean"
    PARSER_CRASH = "parser-crash"
    TIMEOUT = "timeout"
    RESOURCE_BLOWUP = "resource-blowup"
    TOOL_INTERNAL = "tool-internal"


#: Buckets that poison a (server, service, client) triple: re-running
#: the cell would stall the sweep or re-trigger a harness bug.
FATAL_BUCKETS = (TriageBucket.TIMEOUT, TriageBucket.TOOL_INTERNAL)


@dataclass(frozen=True)
class GuardLimits:
    """Budgets enforced around one guarded step."""

    #: Wall-clock deadline per step.  The step runs on the driving
    #: thread's long-lived deadline worker, which is replaced only when
    #: a step is abandoned; ``None`` runs the step inline instead
    #: (cheapest, used on trusted input).
    deadline_seconds: float = 10.0
    #: Largest description text a step is asked to process at all.
    max_input_bytes: int = 8_000_000
    #: Parser budgets handed to :func:`repro.xmlcore.parse`.
    xml: XmlLimits = field(default_factory=XmlLimits)


#: No watchdog, default parser budgets — for trusted, in-corpus input.
INLINE_LIMITS = GuardLimits(deadline_seconds=None)


class InputBudgetExceeded(Exception):
    """The description text exceeds the guard's input-size budget."""


@dataclass
class GuardVerdict:
    """Classified outcome of one guarded step."""

    step: str
    bucket: TriageBucket
    detail: str = ""
    elapsed_seconds: float = 0.0
    value: object = None
    exception: BaseException = None

    @property
    def ok(self):
        return self.bucket is TriageBucket.CLEAN

    @property
    def fatal(self):
        """True when the cell should be quarantined, not re-run."""
        return self.bucket in FATAL_BUCKETS


def classify_exception(exc):
    """Map an exception to its :class:`TriageBucket`."""
    if isinstance(
        exc,
        (
            XmlLimitError,
            InputBudgetExceeded,
            RecursionError,
            MemoryError,
            OverflowError,
        ),
    ):
        return TriageBucket.RESOURCE_BLOWUP
    if isinstance(exc, (XmlError, WsdlError, SchemaError)):
        return TriageBucket.PARSER_CRASH
    return TriageBucket.TOOL_INTERNAL


def _describe(exc, limit=300):
    text = f"{type(exc).__name__}: {exc}"
    return text if len(text) <= limit else text[: limit - 1] + "…"


class GuardedStep:
    """Run one callable under the guard budgets, never letting it raise.

    ``run`` returns a :class:`GuardVerdict`; the wrapped callable's
    return value is on ``verdict.value`` when the bucket is CLEAN.
    KeyboardInterrupt/SystemExit still propagate — the guard contains
    tool failures, not operator intent.
    """

    def __init__(self, name, fn, limits=None):
        self.name = name
        self.fn = fn
        self.limits = limits or GuardLimits()

    def check_input(self, text):
        """Raise :class:`InputBudgetExceeded` when ``text`` is too big."""
        if text is not None and len(text) > self.limits.max_input_bytes:
            raise InputBudgetExceeded(
                f"{self.name}: input of {len(text)} chars exceeds the "
                f"{self.limits.max_input_bytes}-char budget"
            )

    def run(self, *args, **kwargs):
        deadline = self.limits.deadline_seconds
        # The deadline worker is ready before the span opens, so the span
        # times the step and not a thread start.  The span opens and
        # closes on the driving thread; an abandoned deadline thread
        # never touches the tracer.
        worker = None if deadline is None else _deadline_worker()
        with current_tracer().span(self.name) as span:
            started = time.perf_counter()
            if worker is None:
                outcome = self._call(args, kwargs)
            else:
                outcome = self._call_with_deadline(
                    worker, args, kwargs, deadline
                )
            outcome.elapsed_seconds = time.perf_counter() - started
            span.annotate(bucket=outcome.bucket.value)
            if outcome.detail:
                span.annotate(detail=outcome.detail)
        return outcome

    def _call(self, args, kwargs):
        try:
            value = self.fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 — triaged, never swallowed
            return GuardVerdict(
                step=self.name,
                bucket=classify_exception(exc),
                detail=_describe(exc),
                exception=exc,
            )
        return GuardVerdict(step=self.name, bucket=TriageBucket.CLEAN, value=value)

    def _call_with_deadline(self, worker, args, kwargs, deadline):
        worker.jobs.put((self._call, args, kwargs))
        outcome = None
        try:
            outcome = worker.results.get(timeout=deadline).pop()
        except queue.Empty:
            pass
        finally:
            if not isinstance(outcome, GuardVerdict):
                # Timed out, interrupted while waiting, or the step
                # raised operator intent: the worker is retired with
                # whatever it still runs.  A late result lands in a
                # queue nobody reads again, and the next step gets a
                # fresh worker.
                _workers.worker = None
                worker.stop()
        if outcome is None:
            return GuardVerdict(
                step=self.name,
                bucket=TriageBucket.TIMEOUT,
                detail=f"{self.name}: exceeded {deadline:g}s wall-clock deadline",
            )
        if isinstance(outcome, BaseException):
            # KeyboardInterrupt/SystemExit propagate on the driving
            # thread, as they do inline.
            raise outcome
        return outcome


class _DeadlineWorker:
    """One daemon thread that runs a driving thread's guarded steps.

    Jobs go in one at a time; the driving thread waits for each result
    with the step's deadline.  The thread holds no reference to the
    worker object, so a worker that is stopped, or dropped because its
    driving thread died, ends its thread once the step in hand is done.
    """

    def __init__(self):
        self.jobs = queue.SimpleQueue()
        self.results = queue.SimpleQueue()
        threading.Thread(
            target=_serve, args=(self.jobs, self.results),
            name="guard-worker", daemon=True,
        ).start()
        #: Ends the thread once the step in hand is done; runs by itself
        #: when the worker is dropped.
        self.stop = weakref.finalize(self, self.jobs.put, None)


def _serve(jobs, results):
    """The worker loop: run each ``(call, args, kwargs)`` job until ``None``.

    Each outcome travels in a one-item list the driving thread empties,
    and the loop drops the job before handing it over, so once a
    verdict is handed back nothing here keeps the step, its arguments
    or the verdict alive.  A ``BaseException`` escaping the step is
    handed back too, for the driving thread to re-raise: a loop that
    died with it would leave the driving thread waiting out the
    deadline.
    """
    for call, args, kwargs in iter(jobs.get, None):
        try:
            box = [call(args, kwargs)]
        except BaseException as exc:  # noqa: BLE001 — re-raised by run
            box = [exc]
        del call, args, kwargs
        results.put(box)


#: Per driving thread: its ``_DeadlineWorker``, once it has run a step.
_workers = threading.local()


def _deadline_worker():
    worker = getattr(_workers, "worker", None)
    if worker is None:
        worker = _workers.worker = _DeadlineWorker()
    return worker


def _forget_workers():
    # A forked child inherits the forking thread's worker object but
    # not its thread, so every child starts without workers.
    global _workers
    _workers = threading.local()


os.register_at_fork(after_in_child=_forget_workers)


def run_guarded(name, fn, *args, limits=None, **kwargs):
    """One-shot convenience wrapper around :class:`GuardedStep`."""
    return GuardedStep(name, fn, limits=limits).run(*args, **kwargs)
