"""Zero-dependency observability: deterministic tracing, metrics, sinks.

See DESIGN.md §9 for the span model and the determinism contract.
"""

from repro.obs.critical import (
    cell_critical_paths,
    critical_path,
    slowest_service_spans,
    span_index,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Histogram,
    MetricsRegistry,
)
from repro.obs.perf import (
    LEDGER_FILENAME,
    PERF_FORMAT,
    LedgerError,
    PerfDiff,
    PerfLedger,
    diff_profiles,
    perf_profile,
    profile_digest,
    trace_to_profile_inputs,
)
from repro.obs.sink import (
    TRACE_FILENAME,
    TRACE_SCHEMA,
    TraceSink,
    TraceValidationError,
    load_trace,
    resolve_trace_path,
    validate_trace_lines,
)
from repro.obs.trace import (
    NULL_TRACER,
    TRACE_FORMAT,
    NullTracer,
    Span,
    TraceCollector,
    Tracer,
    activate,
    current_tracer,
    root_span_id,
    server_span_id,
    span_id_for,
    trace_id_for,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Histogram",
    "LEDGER_FILENAME",
    "LedgerError",
    "MetricsRegistry",
    "PERF_FORMAT",
    "PerfDiff",
    "PerfLedger",
    "cell_critical_paths",
    "critical_path",
    "diff_profiles",
    "perf_profile",
    "profile_digest",
    "slowest_service_spans",
    "span_index",
    "trace_to_profile_inputs",
    "TRACE_FILENAME",
    "TRACE_FORMAT",
    "TRACE_SCHEMA",
    "TraceCollector",
    "TraceSink",
    "TraceValidationError",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "activate",
    "current_tracer",
    "load_trace",
    "resolve_trace_path",
    "root_span_id",
    "server_span_id",
    "span_id_for",
    "trace_id_for",
    "validate_trace_lines",
]
