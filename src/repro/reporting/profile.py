"""Profiling reports over one campaign trace.

Consumes a trace loaded by :func:`repro.obs.sink.load_trace` and renders
what the sweep's black box hides: where wall-clock time goes per
lifecycle stage (p50/p95/p99 from the mergeable fixed-bucket
histograms), which services are pathologically slow (span durations
rolled up under their server), and what each pool worker was doing
(busy/idle/killed from the supervisor's heartbeat timeline).
"""

from __future__ import annotations

from repro.obs.metrics import Histogram
from repro.reporting.tables import render_table

#: Stage rows are ordered by where they sit in the lifecycle, with
#: unknown stages appended alphabetically after the known ones.
_STAGE_ORDER = (
    "campaign", "server", "deploy", "service", "wsdl-read", "wsi-check",
    "test", "generate", "compile", "instantiate", "cell", "lifecycle",
    "mutant", "proxy", "invoke",
)

#: Span names that measure one service's processing and carry enough
#: attrs to roll up per (server, service).
_SERVICE_SPAN_NAMES = ("service", "lifecycle", "mutant")


def _stage_sort_key(stage):
    try:
        return (0, _STAGE_ORDER.index(stage))
    except ValueError:
        return (1, stage)


def stage_histograms(trace):
    """``{stage name: Histogram}`` from the trace's ``span_ms`` lines."""
    stages = {}
    for event in trace["metrics_events"]:
        if event["kind"] != "histogram" or event["name"] != "span_ms":
            continue
        labels = dict(tuple(pair) for pair in event["labels"])
        stage = labels.get("name")
        if stage is None:
            continue
        histogram = Histogram.from_obj(event)
        if stage in stages:
            stages[stage].merge(histogram)
        else:
            stages[stage] = histogram
    return stages


def stage_latency_rows(trace):
    """(stage, count, p50, p95, p99, mean, total-ms) rows."""
    rows = []
    stages = stage_histograms(trace)
    for stage in sorted(stages, key=_stage_sort_key):
        histogram = stages[stage]
        rows.append(
            (
                stage,
                histogram.count,
                f"{histogram.quantile(0.50):.2f}",
                f"{histogram.quantile(0.95):.2f}",
                f"{histogram.quantile(0.99):.2f}",
                f"{histogram.mean:.2f}",
                f"{histogram.total:.1f}",
            )
        )
    return rows


def wire_rows(trace):
    """(part, count, p50, p95, mean, total-ms) rows of the wire split."""
    from repro.obs.perf import wire_histograms

    return [
        (
            part,
            histogram.count,
            f"{histogram.quantile(0.50):.3f}",
            f"{histogram.quantile(0.95):.3f}",
            f"{histogram.mean:.3f}",
            f"{histogram.total:.1f}",
        )
        for part, histogram in wire_histograms(trace).items()
    ]


def _server_of(span, by_id):
    """Walk parent edges up to the enclosing server rollup span."""
    seen = set()
    current = span
    while current is not None and current["id"] not in seen:
        seen.add(current["id"])
        if current["name"] == "server":
            return current["attrs"].get("server", "?")
        current = by_id.get(current["parent"])
    return "?"


def slowest_services(trace, top=10):
    """Top-``top`` (server, service, spans, total-ms) by total duration.

    The run campaign has one ``service`` span per service; resilience
    and fuzz sweeps measure a service once per (client, config) cell via
    ``lifecycle``/``mutant`` spans, so durations aggregate per
    (server, service) before ranking.
    """
    by_id = {span["id"]: span for span in trace["spans"]}
    names_present = {span["name"] for span in trace["spans"]}
    # Prefer the coarsest per-service span kind present, so nested
    # lifecycle spans are not double-counted under their service span.
    for name in _SERVICE_SPAN_NAMES:
        if name in names_present:
            selected = name
            break
    else:
        return []
    totals = {}
    for span in trace["spans"]:
        if span["name"] != selected:
            continue
        service = span["attrs"].get("service")
        if service is None:
            continue
        server = _server_of(span, by_id)
        key = (server, service)
        spans_count, total = totals.get(key, (0, 0.0))
        totals[key] = (spans_count + 1, total + span["ms"])
    ranked = sorted(
        totals.items(), key=lambda item: (-item[1][1], item[0])
    )[:top]
    return [
        (server, service, spans_count, f"{total:.1f}")
        for (server, service), (spans_count, total) in ranked
    ]


def worker_utilization_rows(trace):
    """Per-worker rows from the trace's ``worker`` lines."""
    return [
        (
            row["worker"],
            f"{row['busy_pct']:.1f}%",
            f"{row['idle_pct']:.1f}%",
            f"{row['killed_pct']:.1f}%",
            row["units"],
            row["outcome"],
        )
        for row in sorted(trace["workers"], key=lambda row: row["worker"])
    ]


def critical_path_rows(trace, max_depth=32):
    """(depth, stage, self ms, total ms, % of root, span id) rows."""
    from repro.obs.critical import critical_path

    rows = []
    for depth, hop in enumerate(critical_path(trace, max_depth=max_depth)):
        attrs = hop["attrs"]
        where = ",".join(
            str(attrs[key]) for key in ("server", "client", "service")
            if key in attrs
        )
        label = hop["name"] if not where else f"{hop['name']}[{where}]"
        rows.append(
            (
                "  " * depth + label,
                f"{hop['self_ms']:.1f}",
                f"{hop['ms']:.1f}",
                f"{hop['pct_of_root']:.1f}%",
                hop["id"][:12],
            )
        )
    return rows


def render_profile(trace, top=10):
    """Full ASCII profile of one trace."""
    meta = trace["meta"]
    out = [
        f"trace {meta['trace_id']} · campaign {meta['campaign']} · "
        f"{meta['workers']} worker(s) · {len(trace['spans'])} spans"
    ]
    skipped = trace.get("skipped_lines", 0)
    if skipped:
        out[0] += (
            f"\nwarning: {skipped} truncated trailing line(s) skipped "
            "(trace writer crashed or is still flushing)"
        )
    if not trace["spans"]:
        out.append(
            "no spans recorded — the trace has a valid meta line but no "
            "measurements; the sweep may have been interrupted before any "
            "unit completed, or tracing was enabled on an empty campaign."
        )
        return "\n\n".join(out)
    rows = stage_latency_rows(trace)
    if rows:
        out.append(
            render_table(
                ("Stage", "Count", "p50 ms", "p95 ms", "p99 ms", "Mean ms",
                 "Total ms"),
                rows,
                title="Stage latency rollup",
            )
        )
    path_rows = critical_path_rows(trace)
    if path_rows:
        out.append(
            render_table(
                ("Span", "Self ms", "Total ms", "% of root", "Span id"),
                path_rows,
                title="Critical path (most expensive chain from the root)",
            )
        )
    wire = wire_rows(trace)
    if wire:
        out.append(
            render_table(
                ("Part", "Count", "p50 ms", "p95 ms", "Mean ms", "Total ms"),
                wire,
                title="Wire exchanges (total per post, then its parts)",
            )
        )
    from repro.obs.critical import slowest_service_spans

    service_rows = [
        (server, service, count, f"{total:.1f}", span_id[:12],
         f"{slow_ms:.1f}")
        for server, service, count, total, span_id, slow_ms
        in slowest_service_spans(trace, top=top)
    ]
    if service_rows:
        out.append(
            render_table(
                ("Server", "Service", "Spans", "Total ms", "Slowest span",
                 "Slowest ms"),
                service_rows,
                title=f"Top {len(service_rows)} slowest services",
            )
        )
    utilization = worker_utilization_rows(trace)
    if utilization:
        out.append(
            render_table(
                ("Worker", "Busy", "Idle", "Killed", "Units", "Outcome"),
                utilization,
                title="Worker utilization",
            )
        )
    return "\n\n".join(out)
