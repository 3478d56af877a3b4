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

from dataclasses import dataclass, field, fields

from repro.core.campaign import CampaignConfig
from repro.core.extended import LifecycleCampaign
from repro.core.sharding import CAMPAIGN_INVOKE, ShardJob
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
from repro.runtime import InMemoryHttpTransport, close_transport
from repro.runtime.guard import GuardLimits, GuardedStep
from repro.runtime.lifecycle import SharedReads, prepare_client_proxy
from repro.runtime.wire import transport_factory_for, unit_transports

_INVOKE_FORMAT = 1


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
class InvocationCellStats:
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

    @property
    def lossless_rate(self):
        executed = self.payloads - self.quarantined
        return self.lossless / executed if executed else 1.0

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

    def to_obj(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_obj(cls, obj):
        return cls(**obj)


def _invoke_cell_key(server_id, client_id, payload_class):
    return (server_id, client_id, PayloadClass(payload_class).value)


def _quarantine_client(client_id, payload_class):
    """Encode (client, class) into the registry's client field, giving
    the quarantine the 4-tuple granularity the fidelity matrix needs."""
    return f"{client_id}:{PayloadClass(payload_class).value}"


@dataclass
class InvocationCampaignResult:
    """Aggregate result of one invocation sweep."""

    server_ids: tuple = ()
    client_ids: tuple = ()
    payload_classes: tuple = ()  # PayloadClass values (strings)
    seed: int = 0
    cells: dict = field(default_factory=dict)
    services_per_server: dict = field(default_factory=dict)
    #: Per "server|client" pair: services seen, proxies built, gates failed.
    gates: dict = field(default_factory=dict)
    #: Sorted (server, service, client:class, bucket, detail) records.
    quarantine: list = field(default_factory=list)

    def cell(self, server_id, client_id, payload_class):
        return self.cells[_invoke_cell_key(server_id, client_id, payload_class)]

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

    def by_class(self, payload_class):
        """All cells of one payload class: (server, client) → stats."""
        value = PayloadClass(payload_class).value
        return {
            (server, client): cell
            for (server, client, cls), cell in self.cells.items()
            if cls == value
        }

    def totals(self):
        keys = (
            "payloads",
            "lossless",
            "coerced",
            "corrupted",
            "fault",
            "client_reject",
            "quarantined",
            "unclassified",
            "schema_violations",
        )
        totals = dict.fromkeys(keys, 0)
        for cell in self.cells.values():
            for key in keys:
                totals[key] += getattr(cell, key)
        return totals


def invoke_result_to_obj(result):
    """JSON-compatible dict for an :class:`InvocationCampaignResult`."""
    return {
        "format": _INVOKE_FORMAT,
        "seed": result.seed,
        "server_ids": list(result.server_ids),
        "client_ids": list(result.client_ids),
        "payload_classes": list(result.payload_classes),
        "services_per_server": dict(result.services_per_server),
        "gates": {key: dict(value) for key, value in result.gates.items()},
        "quarantine": [list(entry) for entry in result.quarantine],
        "cells": {
            "|".join(key): cell.to_obj() for key, cell in result.cells.items()
        },
    }


def invoke_result_from_obj(obj):
    """Rebuild a result from :func:`invoke_result_to_obj` output."""
    if obj.get("format") != _INVOKE_FORMAT:
        raise ValueError(f"unsupported invoke format: {obj.get('format')!r}")
    result = InvocationCampaignResult(
        server_ids=tuple(obj["server_ids"]),
        client_ids=tuple(obj["client_ids"]),
        payload_classes=tuple(obj["payload_classes"]),
        seed=obj["seed"],
        services_per_server=dict(obj["services_per_server"]),
        gates={key: dict(value) for key, value in obj["gates"].items()},
        quarantine=[tuple(entry) for entry in obj["quarantine"]],
    )
    for key, cell in obj["cells"].items():
        result.cells[tuple(key.split("|"))] = InvocationCellStats.from_obj(cell)
    return result


def merge_invoke(iconfig, ordered):
    """Fold invocation unit payloads, in canonical order, into a result."""
    result = InvocationCampaignResult(
        server_ids=tuple(iconfig.base.server_ids),
        client_ids=tuple(iconfig.base.client_ids),
        payload_classes=tuple(
            PayloadClass(cls).value for cls in iconfig.payload_classes
        ),
        seed=iconfig.seed,
    )
    registry = QuarantineRegistry()
    for unit, data in ordered:
        result.services_per_server[unit.server_id] = data["services"]
        for key, value in data["gates"].items():
            result.gates[key] = dict(value)
        for key, cell in data["cells"].items():
            result.cells[tuple(key.split("|"))] = (
                InvocationCellStats.from_obj(cell)
            )
        for entry in data["quarantine"]:
            registry.poison(*entry)
    result.quarantine = registry.entries()
    return result


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

    #: Builds each cell's transport (through :func:`unit_transports`, so
    #: a wire unit's cells share one listener and one connection); the
    #: regress drill-down swaps in a recorder-wrapping factory to
    #: capture the cell's exchanges.
    transport_factory = InMemoryHttpTransport

    def __init__(self, config=None):
        self.iconfig = config or InvocationCampaignConfig()
        self.transport_factory = transport_factory_for(
            self.iconfig.base.transport
        )
        super().__init__(
            self.iconfig.base,
            sample_per_server=self.iconfig.sample_per_server,
        )

    def _generator(self):
        iconfig = self.iconfig
        return PayloadGenerator(
            iconfig.seed,
            classes=iconfig.payload_classes,
            payloads_per_class=iconfig.payloads_per_class,
        )

    #: Folds unit payloads into an ``InvocationCampaignResult``.
    merge = staticmethod(merge_invoke)

    def run(self, progress=None, checkpoint=None):
        """Execute the sweep in-process; see :meth:`Campaign.run`."""
        result = super().run(progress=progress, checkpoint=checkpoint)
        if progress and not result.services_matched \
                and self.iconfig.service_filter:
            progress(
                f"no deployed service matches filter "
                f"{self.iconfig.service_filter!r}; empty fidelity matrix"
            )
        return result

    def _select(self, deployed):
        """The sampled records, narrowed by ``service_filter``."""
        selected = super()._select(deployed)
        pattern = self.iconfig.service_filter
        if pattern:
            selected = [
                record for record in selected
                if fnmatch(record.service.name, pattern)
            ]
        return selected

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
            key = _invoke_cell_key(server_id, client_id, payload.payload_class)
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

    # -- sharded execution -----------------------------------------------------

    def shard_job(self):
        """This sweep as a :class:`~repro.core.sharding.ShardJob`.

        One unit per server: quarantine entries are keyed by server, so
        whole-server units keep poisoning semantics self-contained.
        """
        return ShardJob(CAMPAIGN_INVOKE, self.iconfig, 1)

    def run_shard_unit(self, unit):
        """Deploy one server and invoke every surviving cell.

        Returns the unit payload: the sampled service count, the
        server's gate counters and cells, and its quarantine entries.
        """
        server_id = unit.server_id
        clients = self._clients()
        generator = self._generator()
        limits = self.iconfig.guard_limits()
        tracer = current_tracer()
        cells = {}
        gates = {}
        quarantine = QuarantineRegistry()
        reads = SharedReads(limits)
        with tracer.span("server", server=server_id), \
                unit_transports(self.transport_factory) as new_transport:
            selected = self._deploy_sample(server_id)
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
            "services": len(selected),
            "gates": gates,
            "cells": {
                "|".join(key): cell.to_obj() for key, cell in cells.items()
            },
            "quarantine": [list(entry) for entry in quarantine.entries()],
        }
