"""Full five-step lifecycle execution (Fig. 1 steps 1–5)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.outcomes import StepStatus
from repro.obs.trace import current_tracer
from repro.runtime.client import ClientInvocationError, GeneratedClientProxy
from repro.runtime.guard import (
    INLINE_LIMITS,
    GuardedStep,
    GuardVerdict,
    InputBudgetExceeded,
    TriageBucket,
)
from repro.runtime.server import EchoServiceEndpoint
from repro.runtime.transport import InMemoryHttpTransport, TransportError
from repro.wsdl.reader import read_wsdl
from repro.xmlcore import parse as parse_xml


@dataclass
class LifecycleOutcome:
    """Classified outcome of one full lifecycle run."""

    service_name: str
    client_id: str
    generation: StepStatus
    compilation: StepStatus
    communication: StepStatus
    execution: StepStatus
    detail: str = ""
    #: Triage bucket of the guard that failed, "" on the happy path.
    triage: str = ""

    @property
    def reached_execution(self):
        return self.execution in (StepStatus.OK, StepStatus.WARNING)


def _read_description(text, xml_limits):
    """What every wsdl2code tool does first: parse the downloaded WSDL."""
    return read_wsdl(parse_xml(text, limits=xml_limits))


def guarded_read(text, limits=None):
    """The guarded ``wsdl-read`` of one WSDL text, as a :class:`GuardVerdict`.

    A text over the input budget is a RESOURCE_BLOWUP verdict without a
    parse.  Reading takes no client, so a sweep reads each description
    once and hands the verdict to every client: a read that fails or
    times out fails each of them the same way.
    """
    limits = limits or INLINE_LIMITS
    read_step = GuardedStep("wsdl-read", _read_description, limits=limits)
    try:
        read_step.check_input(text)
    except InputBudgetExceeded as exc:
        return GuardVerdict(
            step=read_step.name,
            bucket=TriageBucket.RESOURCE_BLOWUP,
            detail=str(exc),
        )
    return read_step.run(text, limits.xml)


class SharedReads:
    """One sweep unit's reads: each record's verdict, taken once.

    Calling it with a record returns :func:`guarded_read` of the
    record's WSDL under this object's ``limits``.  The first cell that
    asks reads it, inside its own span, and every later cell gets the
    same verdict.
    """

    def __init__(self, limits=None):
        self.limits = limits
        #: id(record) -> (record, verdict); the record pins its id.
        self._verdicts = {}

    def __call__(self, record):
        entry = self._verdicts.get(id(record))
        if entry is None:
            entry = self._verdicts[id(record)] = (
                record, guarded_read(record.wsdl_text, self.limits),
            )
        return entry[1]


#: The lifecycle steps an outcome classifies, in order.
_STEPS = ("generation", "compilation", "communication", "execution")


def _outcome(service_name, client_id, statuses, detail="", verdict=None):
    """A lifecycle outcome: ``statuses`` of the steps that ran, SKIPPED
    for the rest.  A failed guard's ``verdict`` gives the detail and the
    triage bucket."""
    triage = ""
    if verdict is not None:
        triage = verdict.bucket.value
        detail = f"[{triage}] {verdict.detail}"
    return LifecycleOutcome(
        service_name, client_id,
        **{step: statuses.get(step, StepStatus.SKIPPED) for step in _STEPS},
        detail=detail, triage=triage,
    )


def count_steps(cell, outcome):
    """Count ``outcome``'s four step statuses into ``cell``.

    Adds one to ``tests``, then to the ``<step>_errors`` counter of the
    first step that ended in ERROR, or else to ``completed``; returns
    whether the outcome completed.
    """
    cell.tests += 1
    for step in _STEPS:
        if getattr(outcome, step) is StepStatus.ERROR:
            counter = f"{step}_errors"
            setattr(cell, counter, getattr(cell, counter) + 1)
            return False
    cell.completed += 1
    return True


def _status(result):
    return StepStatus.WARNING if result.warnings else StepStatus.OK


@dataclass
class ClientBuild:
    """What :func:`build_client` made of one document for one client.

    ``statuses`` holds the status of each step that ran, the failed one
    as ERROR.  On failure ``failed`` names that step, and either
    ``verdict`` is the guard's verdict (the step raised, timed out or
    blew a budget) or ``errors`` holds the tool's error diagnostics (a
    classified rejection).
    """

    statuses: dict
    bundle: object = None
    failed: str = ""
    verdict: GuardVerdict = None
    errors: list = ()

    @property
    def ok(self):
        return not self.failed


def build_client(document, client, limits):
    """Steps 2–3 under guards: ``generate``, then ``compile`` when the
    client compiles; an error at a step suppresses the step after it.

    The one client ladder of every sampled sweep: the lifecycle gate
    (:func:`prepare_client_proxy`) and the fuzz pipeline both climb it.
    """
    statuses = {"generation": StepStatus.ERROR}
    generated = GuardedStep("generate", client.generate, limits=limits).run(
        document
    )
    if not generated.ok:
        return ClientBuild(statuses, failed="generation", verdict=generated)
    generation = generated.value
    if not generation.succeeded:
        return ClientBuild(
            statuses, failed="generation", errors=generation.errors
        )
    statuses["generation"] = _status(generation)
    bundle = generation.bundle
    if not client.requires_compilation:
        # A dynamic client's generate already instantiated its proxy.
        statuses["compilation"] = StepStatus.NOT_APPLICABLE
        return ClientBuild(statuses, bundle)
    statuses["compilation"] = StepStatus.ERROR
    compiled = GuardedStep(
        "compile", client.compiler.compile, limits=limits
    ).run(bundle)
    if not compiled.ok:
        return ClientBuild(statuses, bundle, "compilation", verdict=compiled)
    if not compiled.value.succeeded:
        return ClientBuild(
            statuses, bundle, "compilation", errors=compiled.value.errors
        )
    statuses["compilation"] = _status(compiled.value)
    return ClientBuild(statuses, bundle)


@dataclass
class ClientGate:
    """Outcome of steps 2–3 plus proxy construction for one cell.

    ``failure`` carries the fully-classified :class:`LifecycleOutcome`
    when any gated step failed; on success ``document`` and ``proxy``
    are live, ``statuses`` holds the generation and compilation
    statuses, and the echo endpoint is mounted on the transport.
    """

    service_name: str
    client_id: str
    document: object = None
    proxy: object = None
    statuses: dict = None
    failure: LifecycleOutcome | None = None

    @property
    def ok(self):
        return self.failure is None


def prepare_client_proxy(deployment_record, client, client_id="",
                         transport=None, limits=None, reads=None):
    """Run steps 2–3 and build the client proxy, all under guards.

    This is the shared gate in front of every data-plane exchange: the
    full lifecycle uses it before its single echo invocation, and the
    step-4 invocation campaign uses it once per (service, client) cell
    before driving many payloads through the returned proxy.  The gate
    takes the record's ``wsdl-read`` verdict from ``reads``, the sweep
    unit's :class:`SharedReads`, so a record is read once for all of its
    clients; without ``reads`` the gate reads the record under
    ``limits``.  No client's steps change the read document, so every
    client can share it.
    """
    limits = limits or INLINE_LIMITS
    transport = transport or InMemoryHttpTransport()
    service_name = getattr(deployment_record.service, "name", "")

    def failed(statuses, detail="", verdict=None):
        return ClientGate(service_name, client_id, failure=_outcome(
            service_name, client_id, statuses, detail, verdict,
        ))

    read = (reads or SharedReads(limits))(deployment_record)
    if not read.ok:
        # Reading the description is the first thing every wsdl2code
        # tool does, so a read failure is a generation-step error.
        return failed({"generation": StepStatus.ERROR}, verdict=read)
    document = read.value
    service_name = document.name or service_name

    built = build_client(document, client, limits)
    if not built.ok:
        return failed(
            built.statuses, "; ".join(str(d) for d in built.errors[:3]),
            built.verdict,
        )

    EchoServiceEndpoint(deployment_record).mount(transport)
    proxied = GuardedStep(
        "proxy", GeneratedClientProxy, limits=limits
    ).run(built.bundle, document, transport)
    broken = {**built.statuses, "communication": StepStatus.ERROR}
    if not proxied.ok:
        return failed(broken, verdict=proxied)
    if not document.operations or not proxied.value.operations:
        return failed(broken, "generated client exposes no operations")
    return ClientGate(
        service_name, client_id, document=document, proxy=proxied.value,
        statuses=built.statuses,
    )


def run_full_lifecycle(deployment_record, client, client_id="", transport=None,
                       values=None, limits=None, reads=None):
    """Run steps 2–5 for one deployed service and one client framework.

    Step 1 (Service Description Generation) already happened when the
    record was produced.  Steps with errors suppress the later ones,
    matching the campaign's gating semantics.

    Every step runs under a :class:`GuardedStep`, so a hostile or
    corrupted description can never propagate an unclassified exception:
    it lands in an ERROR outcome whose ``triage`` names the bucket.
    ``limits`` defaults to :data:`INLINE_LIMITS` (no watchdog thread);
    fuzz campaigns pass budgets with a wall-clock deadline.  ``reads``
    is the sweep unit's :class:`SharedReads`, as
    :func:`prepare_client_proxy` takes it.
    """
    with current_tracer().span(
        "lifecycle",
        service=getattr(deployment_record.service, "name", ""),
        client=client_id,
    ) as span:
        outcome = _run_full_lifecycle(
            deployment_record, client, client_id=client_id,
            transport=transport, values=values, limits=limits, reads=reads,
        )
        span.annotate(execution=outcome.execution.value)
        if outcome.triage:
            span.annotate(triage=outcome.triage)
    return outcome


def _run_full_lifecycle(deployment_record, client, client_id="", transport=None,
                        values=None, limits=None, reads=None):
    limits = limits or INLINE_LIMITS
    transport = transport or InMemoryHttpTransport()

    gate = prepare_client_proxy(
        deployment_record, client, client_id=client_id,
        transport=transport, limits=limits, reads=reads,
    )
    if not gate.ok:
        return gate.failure

    operation = gate.document.operations[0].name
    payload = values
    if payload is None:
        payload = _sample_values(deployment_record.service.parameter_type)
    invoked = GuardedStep("invoke", gate.proxy.invoke, limits=limits).run(
        operation, payload
    )
    if not invoked.ok:
        statuses = {**gate.statuses, "communication": StepStatus.ERROR}
        if isinstance(invoked.exception, (ClientInvocationError, TransportError)):
            return _outcome(
                gate.service_name, client_id, statuses, str(invoked.exception)
            )
        return _outcome(
            gate.service_name, client_id, statuses, verdict=invoked
        )
    result = invoked.value

    # A resilient transport records how the exchange went; recovery
    # after one or more re-sends is DEGRADED, not clean OK.
    attempt_log = getattr(transport, "last", None)
    communication_status = StepStatus.OK
    if attempt_log is not None and getattr(attempt_log, "recovered", False):
        communication_status = StepStatus.DEGRADED

    echoed = result == payload
    return _outcome(gate.service_name, client_id, {
        **gate.statuses,
        "communication": communication_status,
        "execution": StepStatus.OK if echoed else StepStatus.ERROR,
    }, "" if echoed else "echo mismatch")


_SAMPLE_BY_XSD = {
    "string": "sample",
    "boolean": "true",
    "dateTime": "2014-06-22T10:30:00Z",
    "anyURI": "urn:example:sample",
    "QName": "tns:sample",
    "base64Binary": "c2FtcGxl",
    "duration": "PT5M",
}


def _sample_values(type_info):
    """Build an echoable property dict for ``type_info``."""
    from repro.xsd.builtins import xsd_name_for

    values = {}
    for prop in type_info.properties:
        xsd_local = xsd_name_for(prop.value_type).local
        value = _SAMPLE_BY_XSD.get(xsd_local, "7")
        values[prop.name] = [value, value] if prop.is_array else value
    if not values:
        values["state"] = "Ready"
    return values
