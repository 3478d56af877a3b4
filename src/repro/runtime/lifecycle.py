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


def _triage_detail(verdict):
    return f"[{verdict.bucket.value}] {verdict.detail}"


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


def _failed(service_name, client_id, step, generation=StepStatus.ERROR,
            compilation=StepStatus.SKIPPED, detail="", triage=""):
    """A lifecycle outcome for a guard failure at ``step``."""
    statuses = {
        "generation": StepStatus.SKIPPED,
        "compilation": StepStatus.SKIPPED,
        "communication": StepStatus.SKIPPED,
        "execution": StepStatus.SKIPPED,
    }
    statuses["generation"] = generation
    statuses["compilation"] = compilation
    statuses[step] = StepStatus.ERROR
    return LifecycleOutcome(
        service_name, client_id,
        generation=statuses["generation"],
        compilation=statuses["compilation"],
        communication=statuses["communication"],
        execution=statuses["execution"],
        detail=detail,
        triage=triage,
    )


@dataclass
class ClientGate:
    """Outcome of steps 2–3 plus proxy construction for one cell.

    ``failure`` carries the fully-classified :class:`LifecycleOutcome`
    when any gated step failed; on success ``document`` and ``proxy``
    are live and the echo endpoint is mounted on the transport.
    """

    service_name: str
    client_id: str
    document: object = None
    proxy: object = None
    generation: StepStatus = StepStatus.SKIPPED
    compilation: StepStatus = StepStatus.SKIPPED
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

    def gate_failed(outcome):
        return ClientGate(outcome.service_name, client_id, failure=outcome)

    read = (reads or SharedReads(limits))(deployment_record)
    if not read.ok:
        # Reading the description is the first thing every wsdl2code
        # tool does, so a read failure is a generation-step error.
        return gate_failed(_failed(
            service_name, client_id, "generation",
            detail=_triage_detail(read),
            triage=read.bucket.value,
        ))
    document = read.value
    service_name = document.name or service_name

    generated = GuardedStep("generate", client.generate, limits=limits).run(
        document
    )
    if not generated.ok:
        return gate_failed(_failed(
            service_name, client_id, "generation",
            detail=_triage_detail(generated),
            triage=generated.bucket.value,
        ))
    generation = generated.value
    if not generation.succeeded:
        return gate_failed(LifecycleOutcome(
            service_name, client_id,
            generation=StepStatus.ERROR,
            compilation=StepStatus.SKIPPED,
            communication=StepStatus.SKIPPED,
            execution=StepStatus.SKIPPED,
            detail="; ".join(str(d) for d in generation.errors[:3]),
        ))
    generation_status = (
        StepStatus.WARNING if generation.warnings else StepStatus.OK
    )

    compilation_status = StepStatus.NOT_APPLICABLE
    if client.requires_compilation:
        compiled = GuardedStep(
            "compile", client.compiler.compile, limits=limits
        ).run(generation.bundle)
        if not compiled.ok:
            return gate_failed(_failed(
                service_name, client_id, "compilation",
                generation=generation_status,
                detail=_triage_detail(compiled),
                triage=compiled.bucket.value,
            ))
        compilation = compiled.value
        if not compilation.succeeded:
            return gate_failed(LifecycleOutcome(
                service_name, client_id,
                generation=generation_status,
                compilation=StepStatus.ERROR,
                communication=StepStatus.SKIPPED,
                execution=StepStatus.SKIPPED,
                detail="; ".join(str(d) for d in compilation.errors[:3]),
            ))
        compilation_status = (
            StepStatus.WARNING if compilation.warnings else StepStatus.OK
        )

    endpoint = EchoServiceEndpoint(deployment_record)
    endpoint.mount(transport)
    proxied = GuardedStep(
        "proxy", GeneratedClientProxy, limits=limits
    ).run(generation.bundle, document, transport)
    if not proxied.ok:
        return gate_failed(_failed(
            service_name, client_id, "communication",
            generation=generation_status,
            compilation=compilation_status,
            detail=_triage_detail(proxied),
            triage=proxied.bucket.value,
        ))
    proxy = proxied.value
    if not document.operations or not proxy.operations:
        return gate_failed(LifecycleOutcome(
            service_name, client_id,
            generation=generation_status,
            compilation=compilation_status,
            communication=StepStatus.ERROR,
            execution=StepStatus.SKIPPED,
            detail="generated client exposes no operations",
        ))

    return ClientGate(
        service_name, client_id,
        document=document,
        proxy=proxy,
        generation=generation_status,
        compilation=compilation_status,
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
    document, proxy = gate.document, gate.proxy
    service_name = gate.service_name
    generation_status, compilation_status = gate.generation, gate.compilation

    operation = document.operations[0].name
    payload = values
    if payload is None:
        payload = _sample_values(deployment_record.service.parameter_type)
    invoked = GuardedStep("invoke", proxy.invoke, limits=limits).run(
        operation, payload
    )
    if not invoked.ok:
        if isinstance(invoked.exception, (ClientInvocationError, TransportError)):
            detail, triage = str(invoked.exception), ""
        else:
            detail, triage = _triage_detail(invoked), invoked.bucket.value
        return LifecycleOutcome(
            service_name, client_id,
            generation=generation_status,
            compilation=compilation_status,
            communication=StepStatus.ERROR,
            execution=StepStatus.SKIPPED,
            detail=detail,
            triage=triage,
        )
    result = invoked.value

    # A resilient transport records how the exchange went; recovery
    # after one or more re-sends is DEGRADED, not clean OK.
    attempt_log = getattr(transport, "last", None)
    communication_status = StepStatus.OK
    if attempt_log is not None and getattr(attempt_log, "recovered", False):
        communication_status = StepStatus.DEGRADED

    execution_status = StepStatus.OK if result == payload else StepStatus.ERROR
    detail = "" if execution_status is StepStatus.OK else "echo mismatch"
    return LifecycleOutcome(
        service_name, client_id,
        generation=generation_status,
        compilation=compilation_status,
        communication=communication_status,
        execution=execution_status,
        detail=detail,
    )


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
