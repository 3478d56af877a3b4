"""Drill-down: make a drift report explain itself.

A changed cell in a drift report names coordinates, counters and a
class — not *why*.  This layer re-executes just the drifted cell (the
sweep narrowed to one server, one client and the cell's sweep
coordinates; every campaign derives its randomness from labels, so the
narrowed re-drive reproduces the cell byte-for-byte) and attaches:

* the cell's deterministic **trace span IDs** — computed under the full
  sweep's trace ID, so they join directly against any ``--trace-dir``
  trace of the campaign, serial or pooled;
* the recorded **wire exchanges** for campaigns with a data plane
  (resilience, invoke), captured by wrapping the cell's transport in a
  :class:`~repro.runtime.recorder.TransportRecorder`;
* deterministic **notes**: failing services and diagnostic codes (run),
  triage buckets per mutant (fuzz), non-lossless fidelity verdicts
  (invoke), survival counters (resilience).

Nothing timing-derived enters the drill-down, so a drift report is
byte-identical across reruns, worker counts and checkpoint resumes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.obs.trace import Tracer, activate, server_span_id, trace_id_for
from repro.regress.diff import DriftClass
from repro.runtime.recorder import TransportRecorder
from repro.runtime.transport import InMemoryHttpTransport

#: Caps keeping drill-downs readable and reports small; deterministic
#: because the underlying streams are canonically ordered.
MAX_SPANS = 8
MAX_EXCHANGES = 3
MAX_NOTES = 8
_BODY_LIMIT = 400


@dataclass(frozen=True)
class CellDrilldown:
    """Deterministic evidence attached to one drift entry."""

    campaign: str
    cell: str
    trace_id: str
    server_span: str
    spans: tuple = ()
    exchanges: tuple = ()
    exchanges_total: int = 0
    notes: tuple = ()

    def to_obj(self):
        return {
            "campaign": self.campaign,
            "cell": self.cell,
            "trace_id": self.trace_id,
            "server_span": self.server_span,
            "spans": [dict(span) for span in self.spans],
            "exchanges": [dict(exchange) for exchange in self.exchanges],
            "exchanges_total": self.exchanges_total,
            "notes": list(self.notes),
        }


def _clip(text, limit=_BODY_LIMIT):
    text = str(text)
    return text if len(text) <= limit else text[:limit] + "..."


def _span_obj(event):
    """A span event without its timing fields (report determinism)."""
    return {
        "id": event["id"],
        "parent": event["parent"],
        "name": event["name"],
        "attrs": dict(event["attrs"]),
        "notes": {
            key: value for key, value in event["notes"].items()
            if key not in ("recorded_wall_seconds",)
        },
    }


def _exchange_obj(exchange):
    return {
        "url": exchange.url,
        "status": exchange.response_status,
        "span_id": exchange.span_id,
        "request": _clip(exchange.request_body),
        "response": _clip(exchange.response_body),
    }


class _RecorderFactory:
    """Transport factory that keeps every recorder it hands out."""

    def __init__(self):
        self.recorders = []

    def __call__(self):
        recorder = TransportRecorder(InMemoryHttpTransport())
        self.recorders.append(recorder)
        return recorder

    @property
    def exchanges(self):
        out = []
        for recorder in self.recorders:
            out.extend(recorder.exchanges)
        return out


def _narrow_base(base, server_id, client_id):
    return replace(base, server_ids=(server_id,), client_ids=(client_id,))


def _parts(campaign, cell):
    parts = cell.split("|")
    expected = {"run": 2, "resilience": 4, "fuzz": 4, "invoke": 3}[campaign]
    if len(parts) != expected:
        raise ValueError(
            f"malformed {campaign!r} cell key {cell!r}: expected "
            f"{expected} coordinates"
        )
    return parts


def _traced(campaign_obj, trace_id):
    """Run a narrowed campaign under the full sweep's trace identity."""
    tracer = Tracer(trace_id)
    with activate(tracer):
        result = campaign_obj.run()
    return result, tracer.events


# -- per-kind re-drives -------------------------------------------------------


def _drill_run(config, server_id, client_id, trace_id):
    from repro.core.campaign import Campaign

    narrowed = Campaign(_narrow_base(config, server_id, client_id))
    result, events = _traced(narrowed, trace_id)
    failing = {}
    for record in result.records:
        codes = tuple(record.generation.codes) + tuple(record.compilation.codes)
        if record.generation.has_error or record.compilation.has_error:
            failing[record.service_name] = codes
    notes = [
        f"{service}: {', '.join(failing[service]) or 'error'}"
        for service in sorted(failing)
    ]
    spans = [
        event for event in events
        if event["name"] == "test"
        and event["attrs"].get("client") == client_id
    ]
    # Failing services first, then canonical order; the cap keeps the
    # drill-down bounded on wide cells.
    id_by_service = {
        event["id"]: _service_of(event, events) for event in spans
    }
    spans.sort(
        key=lambda event: (
            id_by_service[event["id"]] not in failing,
            id_by_service[event["id"]],
        )
    )
    return spans, [], notes


def _service_of(event, events):
    by_id = {item["id"]: item for item in events}
    node = event
    while node is not None:
        service = node["attrs"].get("service")
        if service is not None:
            return service
        node = by_id.get(node["parent"])
    return ""


def _drill_resilience(config, server_id, client_id, kind, rate, trace_id):
    from repro.faults.campaign import ResilienceCampaign
    from repro.faults.plan import FaultKind

    narrowed = ResilienceCampaign(replace(
        config,
        base=_narrow_base(config.base, server_id, client_id),
        fault_kinds=(FaultKind(kind),),
        rates=(float(rate),),
    ))
    factory = _RecorderFactory()
    narrowed.transport_factory = factory
    result, events = _traced(narrowed, trace_id)
    stats = result.cells.get((server_id, client_id, kind, rate))
    notes = []
    if stats is not None:
        notes.append(
            f"tests={stats.tests} completed={stats.completed} "
            f"recovered={stats.recovered} retries={stats.retries} "
            f"comm_errors={stats.communication_errors}"
        )
    spans = [
        event for event in events
        if event["name"] == "cell"
        or (event["name"] == "lifecycle"
            and event["notes"].get("execution") != "ok")
    ]
    return spans, factory.exchanges, notes


def _drill_fuzz(config, server_id, client_id, kind, intensity, trace_id):
    from repro.faults.campaign import FuzzCampaign
    from repro.faults.corpus import MutationKind

    narrowed = FuzzCampaign(replace(
        config,
        base=_narrow_base(config.base, server_id, client_id),
        mutation_kinds=(MutationKind(kind),),
        intensities=(float(intensity),),
    ))
    result, events = _traced(narrowed, trace_id)
    spans = [
        event for event in events
        if event["name"] == "mutant"
        and (event["notes"].get("bucket") != "clean"
             or event["notes"].get("quarantined"))
    ]
    notes = [
        f"{event['attrs'].get('service')}: "
        f"{event['notes'].get('bucket', 'quarantined')}"
        for event in spans
    ]
    return spans, [], sorted(set(notes))


def _drill_invoke(config, server_id, client_id, payload_class, trace_id):
    from repro.invoke.campaign import InvocationCampaign
    from repro.invoke.payloads import PayloadClass

    narrowed = InvocationCampaign(replace(
        config,
        base=_narrow_base(config.base, server_id, client_id),
        payload_classes=(PayloadClass(payload_class),),
    ))
    factory = _RecorderFactory()
    narrowed.transport_factory = factory
    result, events = _traced(narrowed, trace_id)
    spans = [
        event for event in events
        if (event["name"] == "invoke"
            and event["notes"].get("fidelity") not in (None, "lossless"))
        or (event["name"] == "cell" and event["notes"].get("gate") == "failed")
    ]
    notes = []
    for event in spans:
        verdict = event["notes"].get("fidelity") or "gate-failed"
        label = event["attrs"].get("payload") or event["attrs"].get("service")
        detail = event["notes"].get("detail", "")
        notes.append(f"{label}: {verdict}" + (f" ({detail})" if detail else ""))
    return spans, factory.exchanges, notes


_DRILLERS = {
    "run": _drill_run,
    "resilience": _drill_resilience,
    "fuzz": _drill_fuzz,
    "invoke": _drill_invoke,
}


def drill_cell(campaign, config, cell, fingerprint):
    """Re-drive one drifted cell; returns its :class:`CellDrilldown`.

    ``fingerprint`` is the *full* sweep's config fingerprint — span IDs
    are derived from it so they match the campaign's own traces.
    """
    parts = _parts(campaign, cell)
    server_id = parts[0]
    trace_id = trace_id_for(campaign, fingerprint)
    spans, exchanges, notes = _DRILLERS[campaign](
        config, *parts, trace_id
    )
    return CellDrilldown(
        campaign=campaign,
        cell=cell,
        trace_id=trace_id,
        server_span=server_span_id(trace_id, server_id),
        spans=tuple(_span_obj(event) for event in spans[:MAX_SPANS]),
        exchanges=tuple(
            _exchange_obj(exchange) for exchange in exchanges[:MAX_EXCHANGES]
        ),
        exchanges_total=len(exchanges),
        notes=tuple(notes[:MAX_NOTES]),
    )


def drill_entries(entries, configs, fingerprints, limit=5):
    """Drill the first ``limit`` drillable entries per campaign.

    REMOVED_CELL entries cannot be re-driven (the fresh sweep no longer
    produces the cell); they get a trace-pointer-only drill-down.
    Returns ``{(campaign, cell): CellDrilldown}``.
    """
    out = {}
    budget = {}
    for entry in entries:
        campaign = entry.campaign
        if entry.drift is DriftClass.REMOVED_CELL:
            trace_id = trace_id_for(campaign, fingerprints[campaign])
            out[(campaign, entry.cell)] = CellDrilldown(
                campaign=campaign,
                cell=entry.cell,
                trace_id=trace_id,
                server_span=server_span_id(
                    trace_id, _parts(campaign, entry.cell)[0]
                ),
                notes=("cell no longer produced by the sweep",),
            )
            continue
        if budget.get(campaign, 0) >= limit:
            continue
        budget[campaign] = budget.get(campaign, 0) + 1
        out[(entry.campaign, entry.cell)] = drill_cell(
            campaign, configs[campaign], entry.cell, fingerprints[campaign]
        )
    return out
