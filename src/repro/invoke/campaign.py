"""Step-4 invocation campaign: data-plane robustness over the echo path.

For every (server, service, client) cell whose client survives
generation and compilation, the campaign pushes a seeded family of
schema-derived payloads through the *real* proxy → envelope →
transport → server path and triages each round trip with the total
fidelity taxonomy of :mod:`repro.invoke.fidelity`.  The result is a
fidelity matrix per (server, client, payload class) — the data-plane
companion to the control-plane matrices of the run/resilience/fuzz
campaigns, run by the same engine with the same guarantees:
whole-server units checkpointed behind a fingerprint guard, a merge
that is byte-identical for any worker count, and quarantine of fatal
(server, service, client, payload-class) cells.
"""

from __future__ import annotations

from fnmatch import fnmatch

from dataclasses import dataclass, field

from repro.core.campaign import CampaignConfig
from repro.core.cells import CellMatrix, Counters, cells_to_obj
from repro.core.extended import LifecycleCampaign
from repro.core.store import QuarantineRegistry
from repro.invoke.fidelity import (
    Fidelity,
    Triage,
    classify_failure,
    compare_roundtrip,
)
from repro.invoke.payloads import (
    DEFAULT_CLASSES,
    PayloadClass,
    PayloadGenerator,
    request_shape,
)
from repro.invoke.response import ResponseTap, validate_response
from repro.obs.trace import current_tracer
from repro.runtime import close_transport
from repro.runtime.guard import GuardLimits, GuardedStep
from repro.runtime.lifecycle import SharedReads, prepare_client_proxy


@dataclass
class InvocationCampaignConfig:
    """Parameters of one step-4 invocation sweep."""

    base: CampaignConfig = field(default_factory=CampaignConfig)
    seed: int = 20140622
    payload_classes: tuple = DEFAULT_CLASSES
    #: Payloads generated per (service, payload class) combination.
    payloads_per_class: int = 2
    #: Deployed services per server driven through the invocation loop.
    sample_per_server: int = 6
    #: Wall-clock deadline per guarded invocation.
    deadline_seconds: float = 10.0
    #: ``fnmatch`` pattern narrowing the swept services ("" = all).
    service_filter: str = ""

    def guard_limits(self):
        return GuardLimits(deadline_seconds=self.deadline_seconds)

    def fingerprint(self):
        """Stable identity used to guard checkpoint compatibility."""
        return {
            "campaign": "invoke",
            "seed": self.seed,
            "servers": list(self.base.server_ids),
            "clients": list(self.base.client_ids),
            "classes": [
                PayloadClass(cls).value for cls in self.payload_classes
            ],
            "payloads_per_class": self.payloads_per_class,
            "sample": self.sample_per_server,
            "deadline_seconds": repr(float(self.deadline_seconds)),
            "service_filter": self.service_filter,
        }


@dataclass
class InvocationCellStats(Counters):
    """One fidelity-matrix cell: (server, client, payload class).

    The five fidelity counters plus ``quarantined`` partition
    ``payloads`` — the taxonomy is total.  ``unclassified`` is an
    overlay: the subset of ``fault`` whose failure escaped every
    classified path, and the number the acceptance gate pins to zero.
    """

    payloads: int = 0
    lossless: int = 0
    coerced: int = 0
    corrupted: int = 0
    fault: int = 0
    client_reject: int = 0
    #: Skipped because the (server, service, client, class) is poisoned.
    quarantined: int = 0
    #: Subset of ``fault`` that escaped classification (harness bugs).
    unclassified: int = 0
    #: Overlay: round trips whose *raw* echoed body violated the
    #: response schema (:mod:`repro.invoke.response`), regardless of
    #: what the client decoded.  Each one also downgrades a lossless
    #: triage to COERCED, so the overlay never hides in a clean cell.
    schema_violations: int = 0

    FAIL_FIELDS = ("corrupted", "fault", "client_reject", "unclassified")

    _FIDELITY_FIELDS = {
        Fidelity.LOSSLESS: "lossless",
        Fidelity.COERCED: "coerced",
        Fidelity.CORRUPTED: "corrupted",
        Fidelity.FAULT: "fault",
        Fidelity.CLIENT_REJECT: "client_reject",
    }

    def add(self, triage):
        self.payloads += 1
        name = self._FIDELITY_FIELDS[triage.fidelity]
        setattr(self, name, getattr(self, name) + 1)
        if triage.unclassified:
            self.unclassified += 1

    def add_quarantined(self):
        self.payloads += 1
        self.quarantined += 1

    def as_row(self):
        return (
            self.payloads,
            self.lossless,
            self.coerced,
            self.corrupted,
            self.fault,
            self.client_reject,
            self.quarantined,
        )


def _quarantine_client(client_id, payload_class):
    """Encode (client, class) into the registry's client field, giving
    the quarantine the 4-tuple granularity the fidelity matrix needs."""
    return f"{client_id}:{PayloadClass(payload_class).value}"


@dataclass
class InvocationCampaignResult(CellMatrix):
    """Aggregate result of one invocation sweep."""

    payload_classes: tuple = ()  # PayloadClass values (strings)
    #: Per "server|client" pair: services seen, proxies built, gates failed.
    gates: dict = field(default_factory=dict)
    #: Sorted (server, service, client:class, bucket, detail) records.
    quarantine: list = field(default_factory=list)

    CELL = InvocationCellStats
    AXES = {"payload_classes": PayloadClass}
    KIND = "invoke"

    @property
    def payloads_executed(self):
        return sum(cell.payloads for cell in self.cells.values())

    @property
    def unclassified_total(self):
        """Unclassified failures across the matrix; must be zero."""
        return sum(cell.unclassified for cell in self.cells.values())

    @property
    def services_matched(self):
        return sum(self.services_per_server.values())


invoke_result_to_obj = InvocationCampaignResult.to_obj
invoke_result_from_obj = InvocationCampaignResult.from_obj


class InvocationCampaign(LifecycleCampaign):
    """Sweeps schema-derived payloads over every surviving cell.

    Per server the corpus is deployed once and a deterministic sample
    selected (optionally narrowed by ``service_filter``); per service
    the WSDL is read once and the payload family generated once —
    independent of client and execution order — and every client that
    passes the steps-2–3 gate drives the whole family through its live
    proxy under the invoke guard.  Fatal invocations poison the
    (server, service, client:class) quarantine entry so resumed sweeps
    skip them.
    """

    CONFIG = InvocationCampaignConfig
    RESULT = InvocationCampaignResult

    def run(self, progress=None, checkpoint=None):
        """:meth:`Campaign.run`, noting a filter that matched nothing."""
        result = super().run(progress=progress, checkpoint=checkpoint)
        if progress and not result.services_matched \
                and self.sweep.service_filter:
            progress(
                f"no deployed service matches filter "
                f"{self.sweep.service_filter!r}; empty fidelity matrix"
            )
        return result

    def _select(self, deployed):
        """The sampled records, narrowed by ``service_filter``."""
        selected = super()._select(deployed)
        pattern = self.sweep.service_filter
        if pattern:
            selected = [
                record for record in selected
                if fnmatch(record.service.name, pattern)
            ]
        return selected

    def _sweep_server(self, server_id, selected, clients, new_transport,
                      server_span):
        """Invoke every surviving cell of one server's sample.

        Returns its gate counters, its cells and its quarantine entries.
        """
        sweep = self.sweep
        generator = PayloadGenerator(
            sweep.seed,
            classes=sweep.payload_classes,
            payloads_per_class=sweep.payloads_per_class,
        )
        limits = sweep.guard_limits()
        tracer = current_tracer()
        cells = {}
        gates = {}
        quarantine = QuarantineRegistry()
        reads = SharedReads(limits)
        for record in selected:
            service_name = record.service.name
            payloads = generator.generate(record.wsdl, service_name)
            shape = {
                shape_field.name: shape_field
                for shape_field in request_shape(record.wsdl)
            }
            with tracer.span("service", service=service_name):
                for client_id, client in clients.items():
                    gate_stats = gates.setdefault(
                        f"{server_id}|{client_id}",
                        {"services": 0, "invoked": 0, "gate_failed": 0},
                    )
                    gate_stats["services"] += 1
                    self._invoke_cell(
                        server_id, service_name, record, client_id,
                        client, payloads, shape, limits, cells,
                        gate_stats, quarantine, new_transport, reads,
                    )
        return {
            "gates": gates,
            "cells": cells_to_obj(cells),
            "quarantine": [list(entry) for entry in quarantine.entries()],
        }

    def _invoke_cell(self, server_id, service_name, record, client_id,
                     client, payloads, shape, limits, cells, gate_stats,
                     quarantine, new_transport, reads):
        """Drive the whole payload family through one (service, client)."""
        tracer = current_tracer()
        with tracer.span("cell", service=service_name, client=client_id) as span:
            transport = ResponseTap(new_transport())
            try:
                self._invoke_payloads(
                    transport, server_id, service_name, record, client_id,
                    client, payloads, shape, limits, cells, gate_stats,
                    quarantine, span, reads,
                )
            finally:
                close_transport(transport)

    def _invoke_payloads(self, transport, server_id, service_name, record,
                         client_id, client, payloads, shape, limits, cells,
                         gate_stats, quarantine, span, reads):
        tracer = current_tracer()
        gate = prepare_client_proxy(
            record, client, client_id=client_id,
            transport=transport, limits=limits, reads=reads,
        )
        if not gate.ok:
            gate_stats["gate_failed"] += 1
            span.annotate(gate="failed", detail=gate.failure.detail[:120])
            return
        gate_stats["invoked"] += 1
        operation = gate.document.operations[0].name
        for payload in payloads:
            key = (server_id, client_id, payload.payload_class.value)
            cell = cells.get(key)
            if cell is None:
                cell = cells[key] = InvocationCellStats()
            qclient = _quarantine_client(client_id, payload.payload_class)
            with tracer.span(
                "invoke", payload=payload.label, digest=payload.digest,
            ) as invoke_span:
                if quarantine.contains(server_id, service_name, qclient):
                    cell.add_quarantined()
                    invoke_span.annotate(quarantined=True)
                    continue
                verdict = GuardedStep(
                    "invoke", gate.proxy.invoke, limits=limits
                ).run(operation, payload.values)
                if verdict.ok:
                    triage = compare_roundtrip(
                        payload.values, verdict.value, shape
                    )
                    problems = validate_response(
                        transport.last_body, shape, operation,
                        envelope=gate.proxy.last_envelope,
                    )
                    if problems:
                        cell.schema_violations += 1
                        invoke_span.annotate(schema=problems[0][:120])
                        if triage.fidelity is Fidelity.LOSSLESS:
                            triage = Triage(
                                Fidelity.COERCED, f"schema: {problems[0]}"
                            )
                else:
                    triage = classify_failure(verdict)
                cell.add(triage)
                invoke_span.annotate(fidelity=triage.fidelity.value)
                if triage.detail:
                    invoke_span.annotate(detail=triage.detail[:120])
            if triage.fatal:
                quarantine.poison(
                    server_id, service_name, qclient,
                    triage.fidelity.value, triage.detail,
                )
