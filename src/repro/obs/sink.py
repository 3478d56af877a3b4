"""Crash-safe JSONL trace sink and the trace-file schema.

One trace is one ``trace.jsonl``: a ``meta`` line, span event lines in
deterministic order, per-worker utilization lines, then the metrics
registry flattened into ``metric`` lines.  Writes go through the same
atomic-write/fsync machinery the checkpoints use
(:func:`repro.core.store.write_text_atomic`), so a crash mid-flush can
never leave a torn trace — the file is either the previous complete
flush or the new one.

The schema is a plain dict (``TRACE_SCHEMA``) mirrored verbatim at
``tests/data/trace_schema.json``; :func:`validate_trace_lines` is the
zero-dependency validator the ``wsinterop profile`` command runs before
rendering anything, so CI's traced smoke proves every emitted line
conforms.
"""

from __future__ import annotations

import os
import time

from repro.core.canon import canonical_json
from repro.core.store import (
    StoreError,
    decode_jsonl,
    validate_jsonl,
    write_text_atomic,
)
from repro.obs.trace import TRACE_FORMAT

TRACE_FILENAME = "trace.jsonl"

#: Required fields and their types per line type, in the
#: :func:`repro.core.store.validate_jsonl` schema form.
TRACE_SCHEMA = {
    "format": TRACE_FORMAT,
    "line_types": {
        "meta": {
            "format": "int",
            "trace_id": "str",
            "campaign": "str",
            "workers": "int",
            "created": "number",
        },
        "span": {
            "id": "str",
            "parent": "str",
            "name": "str",
            "attrs": "object",
            "notes": "object",
            "ms": "number",
            "t0": "number",
        },
        "worker": {
            "worker": "int",
            "busy_pct": "number",
            "idle_pct": "number",
            "killed_pct": "number",
            "units": "int",
            "outcome": "str",
        },
        "metric": {
            "kind": "str",
            "name": "str",
            "labels": "array",
        },
    },
}


class TraceValidationError(StoreError, ValueError):
    """A trace cannot be loaded: missing, unreadable, or a line that
    does not conform to :data:`TRACE_SCHEMA`."""

    hint = (
        "run a sweep with --trace-dir first, then point `profile` or "
        "`perf record --trace` at that directory or its trace.jsonl"
    )

    def __init__(self, message, kind=StoreError.CORRUPT):
        super().__init__(kind, message)


def _decode(lines):
    return validate_jsonl(
        lines, TRACE_SCHEMA["line_types"], TraceValidationError, "trace"
    )


def validate_trace_lines(lines):
    """Validate a whole trace and return its line count: the first line
    must be the meta line, and only a torn trailing line is tolerated
    (:func:`repro.core.store.validate_jsonl`)."""
    return len(_decode(lines)[0])


class TraceSink:
    """Writes one trace directory; every flush is atomic."""

    def __init__(self, directory):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    @property
    def path(self):
        return os.path.join(self.directory, TRACE_FILENAME)

    def write(self, trace_id, campaign, events, metrics, workers=1,
              worker_events=()):
        """Publish the trace: meta, spans, workers, metrics — one flush."""
        lines = [
            {
                "type": "meta",
                "format": TRACE_FORMAT,
                "trace_id": trace_id,
                "campaign": campaign,
                "workers": workers,
                "created": round(time.time(), 3),
            }
        ]
        lines.extend(events)
        lines.extend(worker_events)
        if metrics is not None:
            lines.extend(metrics.to_events())
        text = "".join(canonical_json(line) + "\n" for line in lines)
        write_text_atomic(text, self.path)
        return self.path


def resolve_trace_path(path):
    """Accept either a trace file or a ``--trace-dir`` directory."""
    if os.path.isdir(path):
        return os.path.join(path, TRACE_FILENAME)
    return path


def load_trace(path, validate=True):
    """Load a trace file into ``{meta, spans, workers, metrics_events}``.

    With ``validate`` (the default) every line is checked against
    :data:`TRACE_SCHEMA` as it is decoded, so downstream renderers can
    assume shape.  ``skipped_lines`` counts the lines that were not
    JSON (with ``validate``, at most a torn trailing one), so the
    profile can surface that the trace was truncated.  A missing,
    unreadable or (with ``validate``) off-schema trace raises
    :class:`TraceValidationError`.
    """
    path = resolve_trace_path(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except FileNotFoundError as exc:
        raise TraceValidationError(
            f"no trace found at {path!r}", StoreError.MISSING
        ) from exc
    except (OSError, ValueError) as exc:
        raise TraceValidationError(
            f"cannot read trace {path!r}: {exc}"
        ) from exc
    try:
        objects, skipped = _decode(lines) if validate else decode_jsonl(lines)
    except TraceValidationError as exc:
        raise TraceValidationError(f"invalid trace {path}: {exc}") from exc
    trace = {
        "meta": None, "spans": [], "workers": [], "metrics_events": [],
        "skipped_lines": skipped,
    }
    for obj in objects:
        if obj["type"] == "meta":
            trace["meta"] = obj
        elif obj["type"] == "span":
            trace["spans"].append(obj)
        elif obj["type"] == "worker":
            trace["workers"].append(obj)
        elif obj["type"] == "metric":
            trace["metrics_events"].append(obj)
    return trace
